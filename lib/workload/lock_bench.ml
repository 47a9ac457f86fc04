open Tsim
open Tbtso_core

type kind =
  | L_pthread
  | L_safepoint
  | L_ffbl of { delta : int; echo : bool }
  | L_ffbl_adapted of { period : int; echo : bool }

let kind_name = function
  | L_pthread -> "pthread"
  | L_safepoint -> "safe-point"
  | L_ffbl { delta; echo } ->
      Printf.sprintf "FFBL[%gms]%s"
        (float_of_int delta /. float_of_int (Config.ms 1))
        (if echo then "" else " no-echo")
  | L_ffbl_adapted { period; echo } ->
      Printf.sprintf "FFBL[os %gms]%s"
        (float_of_int period /. float_of_int (Config.ms 1))
        (if echo then "" else " no-echo")

type pattern = {
  pattern_name : string;
  owner_gap : int;
  nonowner_gap : int;
  owner_stall_every : int option;
  owner_stall : int;
}

let paper_patterns () =
  [
    {
      pattern_name = "owner-frequent/nonowner-rare";
      owner_gap = 300;
      nonowner_gap = Config.ms 1;
      owner_stall_every = None;
      owner_stall = 0;
    };
    {
      pattern_name = "nonowner-4x-more-frequent";
      owner_gap = 300;
      nonowner_gap = Config.ms 1 / 4;
      owner_stall_every = None;
      owner_stall = 0;
    };
    {
      pattern_name = "equal-frequency";
      owner_gap = 300;
      nonowner_gap = 300;
      owner_stall_every = None;
      owner_stall = 0;
    };
    {
      pattern_name = "owner-stalls";
      owner_gap = 300;
      nonowner_gap = Config.ms 1 / 4;
      owner_stall_every = Some 20;
      owner_stall = Config.ms 20;
    };
  ]

type params = {
  kind : kind;
  pattern : pattern;
  config : Config.t;
  run_ticks : int;
  cs_ticks : int;
  seed : int;
}

type result = {
  kind_name : string;
  owner_acquisitions : int;
  nonowner_acquisitions : int;
  run_ticks : int;
  echo_cuts : int;
  full_waits : int;
}

type ops = {
  olock : unit -> unit;
  ounlock : unit -> unit;
  nlock : unit -> unit;
  nunlock : unit -> unit;
  echo_cuts : unit -> int;
  full_waits : unit -> int;
}

let make_ops kind machine =
  match kind with
  | L_pthread ->
      let l = Spinlock.Ticket.create machine in
      {
        olock = (fun () -> Spinlock.Ticket.lock l);
        ounlock = (fun () -> Spinlock.Ticket.unlock l);
        nlock = (fun () -> Spinlock.Ticket.lock l);
        nunlock = (fun () -> Spinlock.Ticket.unlock l);
        echo_cuts = (fun () -> 0);
        full_waits = (fun () -> 0);
      }
  | L_safepoint ->
      let l = Safepoint_lock.create machine in
      {
        olock = (fun () -> Safepoint_lock.owner_lock l);
        ounlock = (fun () -> Safepoint_lock.owner_unlock l);
        nlock = (fun () -> Safepoint_lock.nonowner_lock l);
        nunlock = (fun () -> Safepoint_lock.nonowner_unlock l);
        echo_cuts = (fun () -> 0);
        full_waits = (fun () -> 0);
      }
  | L_ffbl { delta; echo } ->
      let l = Ffbl.create machine ~bound:(Bound.Delta delta) ~echo in
      {
        olock = (fun () -> Ffbl.owner_lock l);
        ounlock = (fun () -> Ffbl.owner_unlock l);
        nlock = (fun () -> Ffbl.nonowner_lock l);
        nunlock = (fun () -> Ffbl.nonowner_unlock l);
        echo_cuts = (fun () -> Ffbl.nonowner_echo_cuts l);
        full_waits = (fun () -> Ffbl.nonowner_full_waits l);
      }
  | L_ffbl_adapted { period = _; echo } ->
      let adapt = Tbtso_hwmodel.Os_adapt.install machine ~ncores:2 in
      let l = Ffbl.create machine ~bound:(Tbtso_hwmodel.Os_adapt.bound adapt) ~echo in
      {
        olock = (fun () -> Ffbl.owner_lock l);
        ounlock = (fun () -> Ffbl.owner_unlock l);
        nlock = (fun () -> Ffbl.nonowner_lock l);
        nunlock = (fun () -> Ffbl.nonowner_unlock l);
        echo_cuts = (fun () -> Ffbl.nonowner_echo_cuts l);
        full_waits = (fun () -> Ffbl.nonowner_full_waits l);
      }

let run p =
  let config =
    match p.kind with
    | L_ffbl_adapted { period; _ } -> { p.config with Config.interrupt_period = Some period }
    | L_pthread | L_safepoint | L_ffbl _ -> p.config
  in
  let machine = Machine.create config in
  let ops = make_ops p.kind machine in
  let owner_acqs = ref 0 and nonowner_acqs = ref 0 in
  (* Interarrival gaps are uniform in [gap/2, 3gap/2]: "random
     interarrival delay simulating application work". *)
  let gap rng mean = if mean <= 1 then 1 else Rng.int_in rng (mean / 2) (mean * 3 / 2) in
  ignore
    (Machine.spawn machine (fun () ->
         let rng = Rng.create (Int64.of_int ((p.seed * 7919) + 1)) in
         while not (Sim.stopping ()) do
           ops.olock ();
           Sim.work p.cs_ticks;
           ops.ounlock ();
           incr owner_acqs;
           (match p.pattern.owner_stall_every with
           | Some k when !owner_acqs mod k = 0 -> Sim.stall_for p.pattern.owner_stall
           | Some _ | None -> ());
           Sim.work (gap rng p.pattern.owner_gap)
         done));
  ignore
    (Machine.spawn machine (fun () ->
         let rng = Rng.create (Int64.of_int ((p.seed * 7919) + 2)) in
         while not (Sim.stopping ()) do
           ops.nlock ();
           Sim.work p.cs_ticks;
           ops.nunlock ();
           incr nonowner_acqs;
           Sim.work (gap rng p.pattern.nonowner_gap)
         done));
  ignore (Machine.run ~max_ticks:(p.run_ticks - Machine.now machine) machine);
  Machine.request_stop machine;
  ignore (Machine.run ~max_ticks:(100 * Config.ms 1) machine);
  Machine.kill_remaining machine;
  {
    kind_name = kind_name p.kind;
    owner_acquisitions = !owner_acqs;
    nonowner_acquisitions = !nonowner_acqs;
    run_ticks = p.run_ticks;
    echo_cuts = ops.echo_cuts ();
    full_waits = ops.full_waits ();
  }

let per_ms count run_ticks =
  float_of_int count /. (float_of_int run_ticks /. float_of_int (Config.ms 1))

let owner_rate r = per_ms r.owner_acquisitions r.run_ticks

let nonowner_rate r = per_ms r.nonowner_acquisitions r.run_ticks
