type step =
  | Load of int * (int array -> bool) option
  | Clock of int option
  | Cas of { addr : int; expected : int; desired : int }
  | Store of int * (int array -> int)

type _ Effect.t +=
  | E_load : int -> int Effect.t
  | E_store : int * int -> int Effect.t
  | E_cas : int * int * int -> int Effect.t
  | E_faa : int * int -> int Effect.t
  | E_xchg : int * int -> int Effect.t
  | E_fence : int Effect.t
  | E_clock : int Effect.t
  | E_work : int -> int Effect.t
  | E_stall_until : int -> int Effect.t
  | E_tid : int Effect.t
  | E_stopping : bool Effect.t
  | E_label : string -> unit Effect.t
  | E_probe : step array * int array * int -> int Effect.t

exception Killed

let load a = Effect.perform (E_load a)

let store a v = ignore (Effect.perform (E_store (a, v)))

let cas a ~expected ~desired = Effect.perform (E_cas (a, expected, desired)) <> 0

let faa a n = Effect.perform (E_faa (a, n))

let xchg a v = Effect.perform (E_xchg (a, v))

let fence () = ignore (Effect.perform E_fence)

let clock () = Effect.perform E_clock

let work n = if n > 0 then ignore (Effect.perform (E_work n))

let stall_until t = ignore (Effect.perform (E_stall_until t))

let stall_for n = ignore (Effect.perform (E_stall_until (-n)))
(* Negative argument means "relative to now"; decoded by the machine.
   This avoids charging a clock-read for the common idiom. *)

let tid () = Effect.perform E_tid

let stopping () = Effect.perform E_stopping

let label s = Effect.perform (E_label s)

let probe steps values ~backoff =
  let loads = ref 0 and accessed = ref false and ok = ref true in
  for i = 0 to Array.length steps - 1 do
    match steps.(i) with
    | Load _ ->
        incr loads;
        accessed := true
    | Clock _ -> ()
    | Cas _ ->
        if i > 0 then ok := false;
        accessed := true
    | Store _ -> if not !accessed then ok := false
  done;
  if not (!accessed && !ok) then
    invalid_arg
      "Sim.probe: steps must be an optional leading Cas, then loads, clock reads and stores, \
       with a Load or Cas before any Store";
  if Array.length values < !loads then invalid_arg "Sim.probe: one value slot per load";
  Effect.perform (E_probe (steps, values, backoff))

let await ?deadline a ~until ~backoff =
  let values = [| 0 |] in
  let load = Load (a, Some (fun vs -> until (Array.unsafe_get vs 0))) in
  let steps = match deadline with None -> [| load |] | Some d -> [| load; Clock (Some d) |] in
  ignore (Effect.perform (E_probe (steps, values, backoff)));
  values.(0)

let rec spin_while cond = if cond () then spin_while cond
