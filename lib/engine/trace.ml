(* A low-overhead event tracer keyed to *simulated* time.

   The simulator's instrumentation points (protocol-call dispatch, barrier
   generations, lock holds, message send->deliver arcs) call into this
   module only when a tracer is attached to the machine; with no tracer the
   hot paths pay a single field read, and a traced run records events
   without ever advancing a virtual clock, so simulated output is
   bit-identical to an untraced run.

   Events buffer in memory as plain records and serialize on demand to the
   Chrome trace-event JSON format (chrome://tracing, Perfetto): one process,
   one "thread" row per simulated processor, timestamps in simulated cycles
   (the viewer labels them "us"; 1 tick = 1 cycle). Spans are complete
   events (ph "X"); message arcs are async-nestable pairs (ph "b"/"e")
   matched by id, which both viewers draw as an arc-like bar spanning
   send to delivery. *)

type ev = {
  name : string;
  cat : string;
  ph : char; (* 'X' complete, 'b'/'e' async begin/end, 'i' instant *)
  ts : float; (* simulated cycles *)
  dur : float; (* complete events only *)
  tid : int; (* simulated processor *)
  id : int; (* async pair id, -1 when unused *)
  args : (string * int) list;
}

type t = {
  mutable evs : ev array;
  mutable n : int;
  mutable next_id : int; (* async (message-arc) id generator *)
  open_locks : (int * int, float) Hashtbl.t; (* (tid, rid) -> acquire ts *)
}

let create () =
  { evs = [||]; n = 0; next_id = 0; open_locks = Hashtbl.create 32 }

let dummy =
  { name = ""; cat = ""; ph = 'i'; ts = 0.; dur = 0.; tid = 0; id = -1; args = [] }

let push t ev =
  if t.n = Array.length t.evs then begin
    let a = Array.make (max 1024 (2 * t.n)) dummy in
    Array.blit t.evs 0 a 0 t.n;
    t.evs <- a
  end;
  t.evs.(t.n) <- ev;
  t.n <- t.n + 1

let span t ~name ~cat ~tid ~ts ~dur ?(args = []) () =
  push t { name; cat; ph = 'X'; ts; dur; tid; id = -1; args }

let instant t ~name ~cat ~tid ~ts ?(args = []) () =
  push t { name; cat; ph = 'i'; ts; dur = 0.; tid; id = -1; args }

(* A send->deliver arc: an async pair anchored on the source row at [ts]
   and the destination row at [ts_end]. Both times are known at send time
   (delivery is scheduled then), so the pair is recorded at once. *)
let arc t ~name ~cat ~tid_src ~tid_dst ~ts ~ts_end ?(args = []) () =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { name; cat; ph = 'b'; ts; dur = 0.; tid = tid_src; id; args };
  push t { name; cat; ph = 'e'; ts = ts_end; dur = 0.; tid = tid_dst; id; args = [] }

(* Lock-hold spans: the acquire site deposits its timestamp, the release
   site emits the [lock.hold] span covering the whole hold. A release with
   no recorded acquire (lock taken before tracing started) is dropped. *)
let lock_acquired t ~tid ~rid ~ts =
  Hashtbl.replace t.open_locks (tid, rid) ts

let lock_released t ~tid ~rid ~ts =
  match Hashtbl.find_opt t.open_locks (tid, rid) with
  | None -> ()
  | Some t0 ->
      Hashtbl.remove t.open_locks (tid, rid);
      span t ~name:"lock.hold" ~cat:"lock" ~tid ~ts:t0 ~dur:(ts -. t0)
        ~args:[ ("rid", rid) ] ()

(* ---- Chrome trace-event JSON serialization ---- *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_ev buf ev =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":0,\"tid\":%d,\"ts\":%.17g"
       (escape ev.name) (escape ev.cat) ev.ph ev.tid ev.ts);
  if ev.ph = 'X' then Buffer.add_string buf (Printf.sprintf ",\"dur\":%.17g" ev.dur);
  if ev.id >= 0 then Buffer.add_string buf (Printf.sprintf ",\"id\":%d" ev.id);
  if ev.ph = 'i' then Buffer.add_string buf ",\"s\":\"t\"";
  (match ev.args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (escape k) v))
        args;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let to_buffer t ~nprocs buf =
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"ace simulated machine\"}}";
  for tid = 0 to nprocs - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"proc %d\"}}"
         tid tid);
    Buffer.add_string buf
      (Printf.sprintf
         ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
         tid tid)
  done;
  for i = 0 to t.n - 1 do
    Buffer.add_string buf ",\n";
    add_ev buf t.evs.(i)
  done;
  Buffer.add_string buf "\n]}\n"

let write_file t ~nprocs path =
  let buf = Buffer.create (256 * (t.n + 1)) in
  to_buffer t ~nprocs buf;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc
