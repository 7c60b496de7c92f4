type 'a state =
  | Empty of (time:float -> 'a -> unit) list (* waiters, reverse order *)
  | Full of float * 'a

(* [cause] is the causal context of the fill (a Crit node id, -1 when no
   recorder was active): a fiber that awaits only after the fill has
   already happened needs the filler's identity to record the
   cross-processor dependency edge (see [Machine.await]). *)
type 'a t = { mutable state : 'a state; mutable cause : int }

let create () = { state = Empty []; cause = -1 }

let fill t ~time v =
  match t.state with
  | Full _ -> failwith "Ivar.fill: already filled"
  | Empty waiters ->
      t.cause <- Crit.fill_cause ();
      t.state <- Full (time, v);
      List.iter (fun f -> f ~time v) (List.rev waiters)

let cause t = t.cause

let fill_time t =
  match t.state with
  | Full (time, _) -> time
  | Empty _ -> invalid_arg "Ivar.fill_time: not filled"

let value t =
  match t.state with
  | Full (_, v) -> v
  | Empty _ -> invalid_arg "Ivar.value: not filled"

let is_filled t = match t.state with Empty _ -> false | Full _ -> true

let on_fill t f =
  match t.state with
  | Full (time, v) -> f ~time v
  | Empty waiters -> t.state <- Empty (f :: waiters)
