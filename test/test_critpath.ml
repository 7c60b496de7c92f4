(* Critical-path profiler tests: trace/critpath readers on malformed
   input (hand-written cases, and truncated or byte-mutated documents fed
   to every reader), hand-computed blame and what-if on a tiny fixture DAG, recorder
   round-trips through the ace-critpath-v1 serialization, and the
   acceptance invariants — recording never changes simulated time, path
   blame sums to the simulated duration, and the what-if prediction for a
   halved send overhead lands near an actual re-run under that cost. *)

module Crit = Ace_engine.Crit
module Stats = Ace_engine.Stats
module Driver = Ace_harness.Driver
module Trace_read = Ace_obs.Trace_read
module Critpath = Ace_obs.Critpath
module Cm = Ace_net.Cost_model
module Repro = Ace_check.Repro
module Prog = Ace_check.Prog

let em3d_cfg = { Ace_apps.Em3d.default with Ace_apps.Em3d.n_nodes = 64; steps = 2 }
let nprocs = 4

let tmp_file contents =
  let path = Filename.temp_file "ace" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let check_rejects name load path =
  (match load path with
  | (_ : 'a) -> Alcotest.failf "%s: expected an exception" name
  | exception (Failure _ | Ace_obs.Json.Parse_error _) -> ()
  | exception Sys_error _ -> ());
  Sys.remove path

(* ---- readers on malformed input ---- *)

let test_trace_read_malformed () =
  (match Trace_read.load "/nonexistent/ace.trace.json" with
  | (_ : Trace_read.ev list) -> Alcotest.fail "missing file: expected Sys_error"
  | exception Sys_error _ -> ());
  check_rejects "empty file" Trace_read.load (tmp_file "");
  check_rejects "truncated JSON" Trace_read.load
    (tmp_file "{\"traceEvents\": [{\"name\": \"x\"");
  check_rejects "garbage" Trace_read.load (tmp_file "not json at all");
  check_rejects "wrong top level" Trace_read.load (tmp_file "[1, 2, 3]");
  check_rejects "no traceEvents" Trace_read.load (tmp_file "{\"foo\": 1}")

let test_trace_read_tolerant_events () =
  (* Event objects with missing fields parse to defaults, not crashes. *)
  let path = tmp_file "{\"traceEvents\": [{}, {\"ph\": \"X\", \"tid\": 3}]}" in
  let evs = Trace_read.load path in
  Sys.remove path;
  Alcotest.(check int) "events" 2 (List.length evs);
  Alcotest.(check int) "nprocs from max tid" 4 (Trace_read.nprocs evs)

let test_critpath_load_malformed () =
  (match Critpath.load "/nonexistent/ace.critpath.json" with
  | (_ : Critpath.dag) -> Alcotest.fail "missing file: expected Sys_error"
  | exception Sys_error _ -> ());
  check_rejects "empty file" Critpath.load (tmp_file "");
  check_rejects "garbage" Critpath.load (tmp_file "][");
  check_rejects "wrong schema" Critpath.load
    (tmp_file "{\"schema\": \"ace-bench-v2\", \"nodes\": []}");
  check_rejects "not an object" Critpath.load (tmp_file "42");
  check_rejects "bad node row" Critpath.load
    (tmp_file
       "{\"schema\": \"ace-critpath-v1\", \"nprocs\": 1, \"end_time\": 0,\n\
        \ \"kinds\": [\"root\"], \"heads\": [-1], \"nodes\": [[0, 0]], \"bd\": []}");
  (* a node whose pred points forward violates topological order *)
  check_rejects "forward pred" Critpath.load
    (tmp_file
       "{\"schema\": \"ace-critpath-v1\", \"nprocs\": 1, \"end_time\": 1,\n\
        \ \"kinds\": [\"root\"], \"heads\": [0],\n\
        \ \"nodes\": [[1, -1, 0, 0, -1, 0, 0], [-1, -1, 0, 0, -1, 1, 1]],\n\
        \ \"bd\": []}")

(* ---- hand-built fixture: a 3-step chain across two procs ----

   node 0: root                                   time 0    cost 0
   node 1: app   on P0            pred 0          time 100  cost 100
   node 2: msg   P0 -> P1         pred 1          time 150  cost 50
   node 3: app   on P1 (space 0)  pred 2          time 250  cost 100

   The critical path is 3 -> 2 -> 1 -> 0 and its blame must sum to the
   250-cycle duration; halving msg latency must predict 200 cycles. *)

let fixture =
  "{\"schema\": \"ace-critpath-v1\", \"nprocs\": 2, \"end_time\": 250,\n\
   \ \"kinds\": [\"root\", \"app\", \"msg\"],\n\
   \ \"heads\": [1, 3],\n\
   \ \"nodes\": [[-1, -1, 0, -1, -1, 0, 0],\n\
   \            [0, -1, 1, 0, -1, 100, 100],\n\
   \            [1, -1, 2, 0, 1, 150, 50],\n\
   \            [2, -1, 1, 1, 0, 250, 100]],\n\
   \ \"bd\": []}"

let test_fixture_path_and_blame () =
  let dag = Critpath.of_string fixture in
  Alcotest.(check int) "nodes" 4 (Critpath.n_nodes dag);
  Alcotest.(check int) "terminal" 3 (Critpath.terminal dag);
  Alcotest.(check (list int)) "path" [ 3; 2; 1; 0 ] (Critpath.critical_path dag);
  let bp = Critpath.blamed_path dag in
  Alcotest.(check (float 1e-9)) "blame = duration" 250. (Critpath.total_blame bp);
  let by_kind = Critpath.blame_by_kind dag bp in
  Alcotest.(check (float 1e-9)) "app blame" 200. (List.assoc "app" by_kind);
  Alcotest.(check (float 1e-9)) "msg blame" 50. (List.assoc "msg" by_kind);
  let by_link = Critpath.blame_by_link dag bp in
  Alcotest.(check (float 1e-9)) "link 0->1" 50. (List.assoc (0, 1) by_link);
  let by_node = Critpath.blame_by_node dag bp in
  (* messages are blamed to their destination proc *)
  Alcotest.(check (float 1e-9)) "P0 blame" 100. (List.assoc 0 by_node);
  Alcotest.(check (float 1e-9)) "P1 blame" 150. (List.assoc 1 by_node)

let test_fixture_whatif () =
  let dag = Critpath.of_string fixture in
  let pred_of spec =
    match Critpath.parse_whatif spec with
    | Ok w ->
        let _, predicted, _ = Critpath.predict dag [ w ] in
        predicted
    | Error msg -> Alcotest.failf "parse_whatif %s: %s" spec msg
  in
  Alcotest.(check (float 1e-9)) "halve msg" 225. (pred_of "op=msg:0.5");
  Alcotest.(check (float 1e-9)) "drop msg" 200. (pred_of "op=msg:0");
  Alcotest.(check (float 1e-9)) "halve link 0->1" 225. (pred_of "link=0->1:0.5");
  Alcotest.(check (float 1e-9)) "halve other link" 250. (pred_of "link=1->0:0.5");
  Alcotest.(check (float 1e-9)) "halve any link" 225. (pred_of "link=*:0.5");
  Alcotest.(check (float 1e-9)) "scale up msg" 300. (pred_of "op=msg:2");
  (match Critpath.parse_whatif "op=msg" with
  | Ok _ -> Alcotest.fail "missing factor should not parse"
  | Error _ -> ());
  (match Critpath.parse_whatif "bogus=1:0.5" with
  | Ok _ -> Alcotest.fail "unknown target should not parse"
  | Error _ -> ())

let test_fixture_segments () =
  let dag = Critpath.of_string fixture in
  let bp = Critpath.blamed_path dag in
  let segs = Critpath.segments dag bp in
  let total = List.fold_left (fun a s -> a +. s.Critpath.seg_cycles) 0. segs in
  Alcotest.(check (float 1e-9)) "segments cover the path" 250. total;
  (match Critpath.top_segments dag bp ~k:1 with
  | [ s ] ->
      Alcotest.(check string) "heaviest kind" "app" s.Critpath.seg_kind;
      Alcotest.(check (float 1e-9)) "heaviest cycles" 100. s.Critpath.seg_cycles
  | l -> Alcotest.failf "top_segments k:1 returned %d" (List.length l))

(* Indices below -1 or message endpoints outside the machine are refused
   with a named failure instead of being read as "no predecessor" or
   printed as a P99 link: each case is the 2-proc fixture with one field
   corrupted. *)
let test_critpath_out_of_range () =
  let corrupt ~from ~into =
    match Str_find.find fixture from with
    | -1 -> Alcotest.failf "fixture has no %S" from
    | i ->
        String.sub fixture 0 i ^ into
        ^ String.sub fixture (i + String.length from)
            (String.length fixture - i - String.length from)
  in
  let rejects name doc msg =
    match Critpath.of_string doc with
    | (_ : Critpath.dag) -> Alcotest.failf "%s: accepted" name
    | exception Failure m -> Alcotest.(check string) name msg m
  in
  rejects "pred -5"
    (corrupt ~from:"[2, -1, 1, 1, 0, 250, 100]" ~into:"[-5, -1, 1, 1, 0, 250, 100]")
    "critpath: node 3 has a non-causal edge";
  rejects "pred2 -2"
    (corrupt ~from:"[2, -1, 1, 1, 0, 250, 100]" ~into:"[2, -2, 1, 1, 0, 250, 100]")
    "critpath: node 3 has a non-causal edge";
  rejects "head -7"
    (corrupt ~from:"\"heads\": [1, 3]" ~into:"\"heads\": [-7, 3]")
    "critpath: head out of range";
  rejects "msg from P99"
    (corrupt ~from:"[1, -1, 2, 0, 1, 150, 50]" ~into:"[1, -1, 2, 99, 1, 150, 50]")
    "critpath: message node 2 has an endpoint outside 0..1";
  rejects "msg to P-1"
    (corrupt ~from:"[1, -1, 2, 0, 1, 150, 50]" ~into:"[1, -1, 2, 0, -1, 150, 50]")
    "critpath: message node 2 has an endpoint outside 0..1"

(* ---- reader fuzzing ----

   Truncate or overwrite a few bytes of a valid document. Each reader must
   either parse the result or raise its documented exception with its own
   message prefix — never index out of bounds, Not_found or a stack
   overflow — and a DAG that parses must survive the analyses. *)

let mutant seed =
  let open QCheck.Gen in
  let n = String.length seed in
  let overwrite positions bytes =
    map
      (fun edits ->
        let b = Bytes.of_string seed in
        List.iter (fun (i, c) -> Bytes.set b i c) edits;
        Bytes.to_string b)
      (list_size (int_range 1 4) (pair positions bytes))
  in
  (* numbers carry the indices, so they get their own mutation *)
  let digits =
    List.filter (fun i -> seed.[i] >= '0' && seed.[i] <= '9') (List.init n Fun.id)
  in
  oneof
    [
      map (fun k -> String.sub seed 0 k) (int_bound n);
      overwrite (int_bound (n - 1))
        (oneof [ oneofl [ '['; ']'; '{'; '}'; '"'; ','; ':'; ' '; '\n'; '|' ]; char ]);
      overwrite (oneofl digits) (oneofl [ '-'; '0'; '1'; '2'; '5'; '9'; 'e' ]);
    ]

let prefixed p m = String.length m >= String.length p && String.sub m 0 (String.length p) = p

let reader_fuzz name seed ~read ~documented =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~print:String.escaped (mutant seed))
    (fun doc ->
      match read doc with
      | () -> true
      | exception e when documented e -> true
      | exception e ->
          QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e))

let critpath_seed =
  "{\"schema\": \"ace-critpath-v1\", \"nprocs\": 2, \"end_time\": 250,\n\
   \ \"kinds\": [\"root\", \"app\", \"msg\", \"seg\"],\n\
   \ \"heads\": [1, 4],\n\
   \ \"nodes\": [[-1, -1, 0, -1, -1, 0, 0],\n\
   \            [0, -1, 1, 0, -1, 100, 100],\n\
   \            [1, -1, 2, 0, 1, 150, 50],\n\
   \            [2, -1, 1, 1, 0, 250, 100],\n\
   \            [3, 1, 3, 1, 0, 260, 10]],\n\
   \ \"bd\": [[4, 1, 0, 6], [4, 1, 1, 4]]}"

let fuzz_critpath =
  reader_fuzz "critpath reader" critpath_seed
    ~read:(fun doc ->
      let d = Critpath.of_string doc in
      let bp = Critpath.blamed_path d in
      ignore (Critpath.blame_by_kind d bp, Critpath.blame_by_space d bp);
      ignore (Critpath.blame_by_link d bp, Critpath.blame_by_node d bp);
      ignore (Critpath.top_segments d bp ~k:3);
      ignore (Critpath.replay d [ { Critpath.target = Critpath.Op "msg"; factor = 0.5 } ]))
    ~documented:(function
      | Failure m -> prefixed "critpath: " m
      | Ace_obs.Json.Parse_error _ -> true
      | _ -> false)

let trace_seed =
  "{\"traceEvents\": [\n\
   \ {\"name\": \"thread_name\", \"ph\": \"M\", \"tid\": 0, \"args\": {\"name\": \"P0\"}},\n\
   \ {\"name\": \"start_read\", \"cat\": \"ace\", \"ph\": \"X\", \"ts\": 10.5,\n\
   \  \"dur\": 4, \"tid\": 0, \"args\": {\"space\": 1, \"rid\": 7}},\n\
   \ {\"name\": \"msg\", \"cat\": \"net\", \"ph\": \"b\", \"ts\": 12, \"tid\": 1, \"id\": 3}]}"

let fuzz_trace =
  reader_fuzz "trace reader" trace_seed
    ~read:(fun doc -> ignore (Trace_read.nprocs (Trace_read.of_string doc)))
    ~documented:(function
      | Failure m -> prefixed "trace: " m
      | Ace_obs.Json.Parse_error _ -> true
      | _ -> false)

let repro_seed =
  Repro.to_string
    {
      Repro.proto = "DYN_UPDATE";
      policy = Ace_engine.Event_queue.Rotate { stride = 2; offset = 0 };
      faults = Some (Ace_net.Faults.spec ~drop:0.03 ~dup:0.02 ~jitter:25. ~seed:11 ());
      batch = true;
      reason = "heap mismatch";
      prog = Prog.generate () (Random.State.make [| 3 |]);
    }

let fuzz_repro =
  reader_fuzz "repro reader" repro_seed
    ~read:(fun doc -> ignore (Repro.of_string doc))
    ~documented:(function
      | Invalid_argument m -> prefixed "Repro.of_string: " m
      | _ -> false)

(* ---- recorder round-trip through the serialization ---- *)

let run_em3d ?crit ?cost ?stats () =
  Driver.run_ace ?crit ?cost ?stats ~nprocs (module Ace_apps.Em3d) em3d_cfg

let test_roundtrip () =
  let c = Crit.create ~nprocs () in
  let _ = run_em3d ~crit:c () in
  let live = Critpath.of_crit c in
  let path = Filename.temp_file "ace" ".critpath.json" in
  Crit.write_file c path;
  let loaded = Critpath.load path in
  Sys.remove path;
  Alcotest.(check int) "nodes" (Critpath.n_nodes live) (Critpath.n_nodes loaded);
  Alcotest.(check int) "nprocs" live.Critpath.nprocs loaded.Critpath.nprocs;
  Alcotest.(check (float 0.)) "end_time" live.Critpath.end_time
    loaded.Critpath.end_time;
  Alcotest.(check (array string)) "kinds" live.Critpath.kinds loaded.Critpath.kinds;
  Alcotest.(check (array int)) "pred" live.Critpath.pred loaded.Critpath.pred;
  Alcotest.(check (array int)) "pred2" live.Critpath.pred2 loaded.Critpath.pred2;
  Alcotest.(check (array int)) "kind" live.Critpath.kind loaded.Critpath.kind;
  Alcotest.(check (array int)) "a" live.Critpath.a loaded.Critpath.a;
  Alcotest.(check (array int)) "b" live.Critpath.b loaded.Critpath.b;
  Alcotest.(check (array (float 0.))) "time" live.Critpath.time
    loaded.Critpath.time;
  Alcotest.(check (array (float 0.))) "cost" live.Critpath.cost
    loaded.Critpath.cost;
  Alcotest.(check (array int)) "heads" live.Critpath.heads loaded.Critpath.heads;
  Alcotest.(check int) "bd length" (Array.length live.Critpath.bd)
    (Array.length loaded.Critpath.bd);
  Array.iteri
    (fun i rows ->
      Array.iteri
        (fun j (k, sp, cyc) ->
          let k', sp', cyc' = loaded.Critpath.bd.(i).(j) in
          Alcotest.(check (pair (pair int int) (float 0.)))
            (Printf.sprintf "bd %d.%d" i j)
            ((k, sp), cyc)
            ((k', sp'), cyc'))
        rows)
    live.Critpath.bd;
  (* and the loaded dag analyzes identically *)
  let bp = Critpath.blamed_path live and bp' = Critpath.blamed_path loaded in
  Alcotest.(check (float 0.)) "blame" (Critpath.total_blame bp)
    (Critpath.total_blame bp')

(* ---- acceptance invariants on a real run ---- *)

let test_bit_identical_and_blame_total () =
  let off = run_em3d () in
  let c = Crit.create ~nprocs () in
  let on_ = run_em3d ~crit:c () in
  Alcotest.(check (float 0.)) "recording is bit-identical" off.Driver.seconds
    on_.Driver.seconds;
  Alcotest.(check (float 0.)) "same result" off.Driver.result on_.Driver.result;
  let dag = Critpath.of_crit c in
  let bp = Critpath.blamed_path dag in
  let blame_s = Critpath.total_blame bp /. Cm.cm5_ace.Cm.cycles_per_sec in
  Alcotest.(check (float 1e-9)) "path blame = simulated time" on_.Driver.seconds
    blame_s

let test_whatif_vs_rerun () =
  let c = Crit.create ~nprocs () in
  let _ = run_em3d ~crit:c () in
  let dag = Critpath.of_crit c in
  let _, pred_end, _ =
    Critpath.predict dag [ { Critpath.target = Critpath.Op "send_ovh"; factor = 0.5 } ]
  in
  let pred_s = pred_end /. Cm.cm5_ace.Cm.cycles_per_sec in
  let half =
    { Cm.cm5_ace with Cm.am_send_overhead = Cm.cm5_ace.Cm.am_send_overhead /. 2. }
  in
  let actual = run_em3d ~cost:half () in
  let err =
    abs_float (pred_s -. actual.Driver.seconds) /. actual.Driver.seconds
  in
  if err > 0.10 then
    Alcotest.failf
      "what-if send_ovh:0.5 predicted %.6fs, actual re-run %.6fs (%.1f%% off)"
      pred_s actual.Driver.seconds (100. *. err)

let test_blame_space_stats () =
  let c = Crit.create ~nprocs () in
  let cells = ref [] and other = ref 0. in
  let stats t =
    cells := Stats.dim_cells t (Stats.fam "coh.blame.by_space");
    other := Stats.get t "coh.blame.other"
  in
  let r = run_em3d ~crit:c ~stats () in
  let total =
    List.fold_left (fun a (_, v) -> a +. v) !other !cells
  in
  Alcotest.(check bool) "per-space blame populated" true (!cells <> []);
  let total_s = total /. Cm.cm5_ace.Cm.cycles_per_sec in
  Alcotest.(check (float 1e-9)) "blame cells sum to simulated time"
    r.Driver.seconds total_s

let () =
  Alcotest.run "critpath"
    [
      ( "readers",
        [
          Alcotest.test_case "trace_read malformed" `Quick
            test_trace_read_malformed;
          Alcotest.test_case "trace_read tolerant" `Quick
            test_trace_read_tolerant_events;
          Alcotest.test_case "critpath malformed" `Quick
            test_critpath_load_malformed;
          Alcotest.test_case "critpath out-of-range indices" `Quick
            test_critpath_out_of_range;
          QCheck_alcotest.to_alcotest fuzz_critpath;
          QCheck_alcotest.to_alcotest fuzz_trace;
          QCheck_alcotest.to_alcotest fuzz_repro;
        ] );
      ( "fixture",
        [
          Alcotest.test_case "path and blame" `Quick test_fixture_path_and_blame;
          Alcotest.test_case "what-if" `Quick test_fixture_whatif;
          Alcotest.test_case "segments" `Quick test_fixture_segments;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "serialization round-trip" `Quick test_roundtrip;
          Alcotest.test_case "bit-identical, blame total" `Quick
            test_bit_identical_and_blame_total;
          Alcotest.test_case "what-if vs re-run" `Quick test_whatif_vs_rerun;
          Alcotest.test_case "per-space blame stats" `Quick
            test_blame_space_stats;
        ] );
    ]
