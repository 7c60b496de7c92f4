type 'a t = {
  mutex : Mutex.t;
  ids : (string, int) Hashtbl.t;
  filler : 'a;
  mutable names : string array;
  mutable values : 'a array;
  mutable n : int;
}

let create filler =
  {
    mutex = Mutex.create ();
    ids = Hashtbl.create 32;
    filler;
    names = [||];
    values = [||];
    n = 0;
  }

let grow a n dummy =
  let b = Array.make (max 16 (2 * n)) dummy in
  Array.blit a 0 b 0 n;
  b

let intern t name v =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.ids name with
      | Some id -> id
      | None ->
          let id = t.n in
          if id = Array.length t.names then begin
            t.names <- grow t.names id "";
            t.values <- grow t.values id t.filler
          end;
          t.names.(id) <- name;
          t.values.(id) <- v;
          t.n <- id + 1;
          Hashtbl.add t.ids name id;
          id)

let size t = Mutex.protect t.mutex (fun () -> t.n)

let checked t id f =
  Mutex.protect t.mutex (fun () ->
      if id < 0 || id >= t.n then invalid_arg "Intern: unknown id" else f id)

let name t id = checked t id (fun id -> t.names.(id))
let value t id = checked t id (fun id -> t.values.(id))
let names t = Mutex.protect t.mutex (fun () -> Array.sub t.names 0 t.n)
