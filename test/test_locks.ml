(* Lock algorithm tests: mutual exclusion (host-side overlap oracle plus
   a racy shared counter), fence accounting on the owner fast path,
   echoing, bounded non-owner latency under owner stalls, and the
   negative result that FFBL is unsound on unbounded TSO. *)

open Tsim
open Tbtso_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let delta = 5_000

let tbtso_cfg seed =
  Config.(
    with_jitter 0.25
      (with_seed (Int64.of_int seed)
         (with_drain Drain_adversarial (with_consistency (Tbtso delta) default))))

(* A critical-section harness: host-side overlap oracle + a shared
   counter incremented non-atomically (load; work; store). Any mutual
   exclusion failure shows up as an overlap and/or a lost update. *)
type cs = {
  counter : int;
  mutable inside : bool;
  mutable overlaps : int;
  mutable entries : int;
}

let make_cs machine = { counter = Machine.alloc_global machine 8; inside = false; overlaps = 0; entries = 0 }

let cs_body ?(hold = 20) cs =
  if cs.inside then cs.overlaps <- cs.overlaps + 1;
  cs.inside <- true;
  cs.entries <- cs.entries + 1;
  let v = Sim.load cs.counter in
  Sim.work hold;
  if cs.inside then () else cs.overlaps <- cs.overlaps + 1;
  Sim.store cs.counter (v + 1);
  cs.inside <- false

let final_counter machine cs =
  Machine.drain_all machine;
  Memory.read (Machine.memory machine) cs.counter

(* ------------------------------------------------------------------ *)
(* Plain spin locks                                                    *)
(* ------------------------------------------------------------------ *)

let test_ticket_mutual_exclusion () =
  let machine = Machine.create (tbtso_cfg 1) in
  let l = Spinlock.Ticket.create machine in
  let cs = make_cs machine in
  let nthreads = 6 and per = 40 in
  for _ = 1 to nthreads do
    ignore
      (Machine.spawn machine (fun () ->
           for _ = 1 to per do
             Spinlock.Ticket.lock l;
             cs_body cs;
             Spinlock.Ticket.unlock l;
             Sim.work 10
           done))
  done;
  ignore (Machine.run machine);
  check_int "no overlaps" 0 cs.overlaps;
  check_int "no lost updates" (nthreads * per) (final_counter machine cs);
  check_int "acquisitions counted" (nthreads * per) (Spinlock.Ticket.acquisitions l)

let test_tas_mutual_exclusion () =
  let machine = Machine.create (tbtso_cfg 2) in
  let l = Spinlock.Tas.create machine in
  let cs = make_cs machine in
  let nthreads = 5 and per = 40 in
  for _ = 1 to nthreads do
    ignore
      (Machine.spawn machine (fun () ->
           for _ = 1 to per do
             Spinlock.Tas.lock l;
             cs_body cs;
             Spinlock.Tas.unlock l;
             Sim.work 15
           done))
  done;
  ignore (Machine.run machine);
  check_int "no overlaps" 0 cs.overlaps;
  check_int "no lost updates" (nthreads * per) (final_counter machine cs)

let test_tas_trylock () =
  let machine = Machine.create Config.default in
  let l = Spinlock.Tas.create machine in
  let got1 = ref false and got2 = ref true in
  ignore
    (Machine.spawn machine (fun () ->
         got1 := Spinlock.Tas.trylock l;
         got2 := Spinlock.Tas.trylock l;
         Spinlock.Tas.unlock l));
  ignore (Machine.run machine);
  check_bool "first trylock succeeds" true !got1;
  check_bool "second trylock fails" false !got2

(* ------------------------------------------------------------------ *)
(* Biased lock harness: one owner + one non-owner thread              *)
(* ------------------------------------------------------------------ *)

type biased_ops = {
  olock : unit -> unit;
  ounlock : unit -> unit;
  nlock : unit -> unit;
  nunlock : unit -> unit;
}

let run_biased cfg ~owner_rounds ~nonowner_rounds ?(owner_gap = 50) ?(nonowner_gap = 200)
    make_ops =
  let machine = Machine.create cfg in
  let cs = make_cs machine in
  let ops = make_ops machine in
  let nonowner_done = ref false in
  ignore
    (Machine.spawn machine (fun () ->
         (* The owner keeps passing safe points until the non-owner is
            done (a vanished owner wedges safe-point locks by design),
            and performs at least [owner_rounds] acquisitions. *)
         let rounds = ref 0 in
         while !rounds < owner_rounds || not !nonowner_done do
           ops.olock ();
           cs_body cs;
           ops.ounlock ();
           incr rounds;
           Sim.work owner_gap
         done));
  ignore
    (Machine.spawn machine (fun () ->
         for _ = 1 to nonowner_rounds do
           ops.nlock ();
           cs_body cs;
           ops.nunlock ();
           Sim.work nonowner_gap
         done;
         nonowner_done := true));
  let reason = Machine.run ~max_ticks:100_000_000 machine in
  check_bool "finished" true (reason = Machine.All_finished);
  check_int "no overlaps" 0 cs.overlaps;
  check_int "no lost updates" cs.entries (final_counter machine cs);
  machine

let basic_ops machine =
  let l = Biased_basic.create machine in
  {
    olock = (fun () -> Biased_basic.owner_lock l);
    ounlock = (fun () -> Biased_basic.owner_unlock l);
    nlock = (fun () -> Biased_basic.nonowner_lock l);
    nunlock = (fun () -> Biased_basic.nonowner_unlock l);
  }

let ffbl_ops ?(echo = true) ?(bound = Bound.Delta delta) () machine =
  let l = Ffbl.create machine ~bound ~echo in
  ( l,
    {
      olock = (fun () -> Ffbl.owner_lock l);
      ounlock = (fun () -> Ffbl.owner_unlock l);
      nlock = (fun () -> Ffbl.nonowner_lock l);
      nunlock = (fun () -> Ffbl.nonowner_unlock l);
    } )

let safepoint_ops machine =
  let l = Safepoint_lock.create machine in
  ( l,
    {
      olock = (fun () -> Safepoint_lock.owner_lock l);
      ounlock = (fun () -> Safepoint_lock.owner_unlock l);
      nlock = (fun () -> Safepoint_lock.nonowner_lock l);
      nunlock = (fun () -> Safepoint_lock.nonowner_unlock l);
    } )

let test_biased_basic_mutual_exclusion () =
  for seed = 1 to 10 do
    ignore
      (run_biased (tbtso_cfg seed) ~owner_rounds:60 ~nonowner_rounds:25 basic_ops)
  done

let test_ffbl_mutual_exclusion () =
  for seed = 1 to 10 do
    ignore
      (run_biased (tbtso_cfg seed) ~owner_rounds:60 ~nonowner_rounds:25 (fun m ->
           snd (ffbl_ops () m)))
  done

let test_ffbl_mutual_exclusion_no_echo () =
  for seed = 1 to 5 do
    ignore
      (run_biased (tbtso_cfg seed) ~owner_rounds:30 ~nonowner_rounds:10 (fun m ->
           snd (ffbl_ops ~echo:false () m)))
  done

let test_safepoint_mutual_exclusion () =
  for seed = 1 to 10 do
    ignore
      (run_biased (tbtso_cfg seed) ~owner_rounds:60 ~nonowner_rounds:25 (fun m ->
           snd (safepoint_ops m)))
  done

let test_ffbl_owner_fence_free () =
  (* Owner thread (tid 0) must execute zero fences and zero atomics on
     an uncontended lock. *)
  let machine = Machine.create (tbtso_cfg 3) in
  let l = Ffbl.create machine ~bound:(Bound.Delta delta) ~echo:true in
  ignore
    (Machine.spawn machine (fun () ->
         for _ = 1 to 100 do
           Ffbl.owner_lock l;
           Sim.work 10;
           Ffbl.owner_unlock l
         done));
  ignore (Machine.run machine);
  let s = Machine.stats machine 0 in
  check_int "owner fences" 0 s.fences;
  check_int "owner atomics" 0 s.rmws;
  check_int "all fast" 100 (Ffbl.owner_fast_acquisitions l)

let test_biased_basic_owner_pays_fence () =
  let machine = Machine.create (tbtso_cfg 3) in
  let l = Biased_basic.create machine in
  ignore
    (Machine.spawn machine (fun () ->
         for _ = 1 to 50 do
           Biased_basic.owner_lock l;
           Sim.work 10;
           Biased_basic.owner_unlock l
         done));
  ignore (Machine.run machine);
  let s = Machine.stats machine 0 in
  check_int "one fence per acquisition" 50 s.fences

let test_ffbl_echo_cuts_wait () =
  (* Owner arrives constantly; the non-owner's Δ wait should be cut by
     echoes nearly every time. *)
  let machine = Machine.create (tbtso_cfg 4) in
  let l = Ffbl.create machine ~bound:(Bound.Delta delta) ~echo:true in
  ignore
    (Machine.spawn machine (fun () ->
         while not (Sim.stopping ()) do
           Ffbl.owner_lock l;
           Sim.work 10;
           Ffbl.owner_unlock l;
           Sim.work 20
         done));
  let nonowner_done = ref false in
  ignore
    (Machine.spawn machine (fun () ->
         for _ = 1 to 20 do
           Ffbl.nonowner_lock l;
           Sim.work 10;
           Ffbl.nonowner_unlock l;
           Sim.work 100
         done;
         nonowner_done := true));
  ignore (Machine.run ~stop_when:(fun _ -> !nonowner_done) machine);
  Machine.request_stop machine;
  ignore (Machine.run ~max_ticks:10_000_000 machine);
  Machine.kill_remaining machine;
  check_bool "echoes cut most waits" true (Ffbl.nonowner_echo_cuts l >= 15)

let test_ffbl_full_wait_without_echo () =
  (* No echo and an idle owner: the non-owner pays the full Δ wait. *)
  let machine = Machine.create (tbtso_cfg 5) in
  let l = Ffbl.create machine ~bound:(Bound.Delta delta) ~echo:false in
  let latency = ref 0 in
  ignore
    (Machine.spawn machine (fun () ->
         let t0 = Sim.clock () in
         Ffbl.nonowner_lock l;
         latency := Sim.clock () - t0;
         Ffbl.nonowner_unlock l));
  ignore (Machine.run machine);
  check_bool "waited about delta" true (!latency >= delta && !latency < 3 * delta);
  check_int "full wait counted" 1 (Ffbl.nonowner_full_waits l)

let test_ffbl_bounded_latency_despite_owner_stall () =
  (* THE paper claim (Figure 8, last pattern): the owner stalls outside
     the critical section; FFBL admits the non-owner within ~Δ while the
     safe-point lock blocks it for the whole stall. *)
  let stall = 40 * delta in
  let nonowner_latency make_ops =
    let machine = Machine.create (tbtso_cfg 6) in
    let enter = make_ops machine in
    ignore
      (Machine.spawn machine (fun () ->
           (* Owner: one acquisition, then a long stall outside the CS. *)
           let olock, ounlock = enter `Owner in
           olock ();
           Sim.work 10;
           ounlock ();
           Sim.stall_for stall));
    let latency = ref (-1) in
    ignore
      (Machine.spawn machine (fun () ->
           Sim.work 500;
           let nlock, nunlock = enter `Nonowner in
           let t0 = Sim.clock () in
           nlock ();
           latency := Sim.clock () - t0;
           nunlock ()));
    ignore (Machine.run ~max_ticks:(100 * delta) machine);
    Machine.kill_remaining machine;
    !latency
  in
  let ffbl_latency =
    nonowner_latency (fun m ->
        let l = Ffbl.create m ~bound:(Bound.Delta delta) ~echo:true in
        function
        | `Owner -> ((fun () -> Ffbl.owner_lock l), fun () -> Ffbl.owner_unlock l)
        | `Nonowner -> ((fun () -> Ffbl.nonowner_lock l), fun () -> Ffbl.nonowner_unlock l))
  in
  let sp_latency =
    nonowner_latency (fun m ->
        let l = Safepoint_lock.create m in
        function
        | `Owner ->
            ((fun () -> Safepoint_lock.owner_lock l), fun () -> Safepoint_lock.owner_unlock l)
        | `Nonowner ->
            ( (fun () -> Safepoint_lock.nonowner_lock l),
              fun () -> Safepoint_lock.nonowner_unlock l ))
  in
  check_bool "FFBL latency ~ delta" true (ffbl_latency >= 0 && ffbl_latency <= 3 * delta);
  check_bool "safe-point lock blocked for the stall" true
    (sp_latency < 0 || sp_latency >= stall / 2);
  check_bool "FFBL much faster than safe-point under stall" true
    (sp_latency < 0 || ffbl_latency * 5 < sp_latency)

let ffbl_tso_scenario cfg ~bound_delta =
  (* Owner fast-acquires while its flag store sits in the store buffer;
     the non-owner raises, fences, waits out Δ, reads the owner flag from
     memory as lowered, and enters. Sound iff the machine actually
     enforces a drain bound no larger than [bound_delta]. *)
  let machine = Machine.create cfg in
  let l = Ffbl.create machine ~bound:(Bound.Delta bound_delta) ~echo:false in
  let cs = make_cs machine in
  ignore
    (Machine.spawn machine (fun () ->
         Ffbl.owner_lock l;
         cs_body ~hold:(6 * bound_delta) cs;
         Ffbl.owner_unlock l));
  ignore
    (Machine.spawn machine (fun () ->
         Sim.work 200;
         Ffbl.nonowner_lock l;
         cs_body cs;
         Ffbl.nonowner_unlock l));
  ignore (Machine.run ~max_ticks:(100 * bound_delta) machine);
  Machine.kill_remaining machine;
  cs.overlaps

let test_ffbl_unsound_on_plain_tso () =
  let cfg = Config.(with_drain Drain_adversarial (with_consistency Tso default)) in
  check_bool "mutual exclusion violated under unbounded TSO" true
    (ffbl_tso_scenario cfg ~bound_delta:500 > 0)

let test_ffbl_same_scenario_safe_under_tbtso () =
  let cfg =
    Config.(with_drain Drain_adversarial (with_consistency (Tbtso 500) default))
  in
  check_int "no overlap under TBTSO" 0 (ffbl_tso_scenario cfg ~bound_delta:500)

(* ------------------------------------------------------------------ *)
(* FFBL's waits as one Sim.probe vs the loops they replaced            *)
(* ------------------------------------------------------------------ *)

(* Ffbl as it was with its bound wait and its slow paths as explicit
   loops: load flag0, read the clock, compute the horizon (under
   Core_array, one load per core), work 10; and trylock, then work 10
   (no echo) or load flag1 and store its version to flag0 (echo). *)
module Loop_ffbl = struct
  let encode ~v ~f = (v lsl 1) lor f
  let version x = x lsr 1
  let raised x = x land 1

  type t = {
    flag0 : int;
    flag1 : int;
    l : Spinlock.Tas.t;
    bound : Bound.t;
    echo : bool;
    mutable echo_cuts : int;
    mutable full_waits : int;
  }

  let create machine ~bound ~echo =
    {
      flag0 = Machine.alloc_global machine 8;
      flag1 = Machine.alloc_global machine 8;
      l = Spinlock.Tas.create machine;
      bound;
      echo;
      echo_cuts = 0;
      full_waits = 0;
    }

  let owner_lock t =
    Sim.store t.flag0 (encode ~v:0 ~f:1);
    if raised (Sim.load t.flag1) <> 0 then begin
      Sim.store t.flag0 (encode ~v:0 ~f:0);
      let rec acquire () =
        if not (Spinlock.Tas.trylock t.l) then begin
          if t.echo then Sim.store t.flag0 (encode ~v:(version (Sim.load t.flag1)) ~f:0)
          else Sim.work 10;
          acquire ()
        end
      in
      acquire ()
    end

  let owner_unlock t =
    if raised (Sim.load t.flag0) <> 0 then Sim.store t.flag0 (encode ~v:0 ~f:0)
    else begin
      Sim.store t.flag0 (encode ~v:0 ~f:0);
      Spinlock.Tas.unlock t.l
    end

  let nonowner_lock t =
    Spinlock.Tas.lock t.l;
    let v = version (Sim.load t.flag1) + 1 in
    Sim.store t.flag1 (encode ~v ~f:1);
    Sim.fence ();
    let now = Sim.clock () in
    let rec await_bound () =
      if version (Sim.load t.flag0) = v then t.echo_cuts <- t.echo_cuts + 1
      else if Bound.visible_horizon t.bound ~now:(Sim.clock ()) > now then
        t.full_waits <- t.full_waits + 1
      else begin
        Sim.work 10;
        await_bound ()
      end
    in
    await_bound ();
    ignore (Sim.await t.flag0 ~until:(fun f0 -> raised f0 = 0) ~backoff:10)

  let nonowner_unlock t =
    let v = version (Sim.load t.flag1) + 1 in
    Sim.store t.flag1 (encode ~v ~f:0);
    Spinlock.Tas.unlock t.l
end

(* A thread's stats, as the loop-equivalence tests compare them. *)
let stats_line m tid =
  let s = Machine.stats m tid in
  Printf.sprintf "loads %d stores %d rmws %d fences %d clock %d misses %d drains %d/%d/%d" s.loads
    s.stores s.rmws s.fences s.clock_reads s.cache_misses s.drains s.forced_drains s.exit_drains

(* The two bounds, built on a machine whose config has interrupts. *)
type bound_kind = B_delta | B_core_array

let bound_name = function B_delta -> "delta" | B_core_array -> "core array"

let make_bound m = function
  | B_delta -> Bound.Delta delta
  | B_core_array -> Tbtso_hwmodel.Os_adapt.bound (Tbtso_hwmodel.Os_adapt.install m ~ncores:2)

(* A lock's operations and its (echo cuts, full waits) counters. *)
let ffbl_impl machine ~bound ~echo =
  let l, ops = ffbl_ops ~echo ~bound () machine in
  (ops, fun () -> (Ffbl.nonowner_echo_cuts l, Ffbl.nonowner_full_waits l))

let loop_ffbl_impl machine ~bound ~echo =
  let l = Loop_ffbl.create machine ~bound ~echo in
  ( {
      olock = (fun () -> Loop_ffbl.owner_lock l);
      ounlock = (fun () -> Loop_ffbl.owner_unlock l);
      nlock = (fun () -> Loop_ffbl.nonowner_lock l);
      nunlock = (fun () -> Loop_ffbl.nonowner_unlock l);
    },
    fun () -> (l.echo_cuts, l.full_waits) )

(* What the owner does while the non-owner takes the lock 12 times with
   varying gaps: sits in one long work after a single acquisition, keeps
   acquiring (so it meets the non-owner's raised flag and takes the slow
   path), or stalls inside its critical section with its flag raised.
   It stays alive until the non-owner is done: a finished core takes no
   interrupts, and the Core_array bound waits for one on every core. *)
type owner = Owner_idle | Owner_spinning | Owner_stalled

let owner_name = function
  | Owner_idle -> "idle owner"
  | Owner_spinning -> "spinning owner"
  | Owner_stalled -> "stalled owner"

let ffbl_wait_run make cfg ~bound ~echo owner =
  let m = Machine.create cfg in
  let l, waits = make m ~bound:(make_bound m bound) ~echo in
  let nonowner_done = ref false and acquired = ref [] in
  ignore
    (Machine.spawn m (fun () ->
         match owner with
         | Owner_idle ->
             l.olock ();
             Sim.work 10;
             l.ounlock ();
             while not !nonowner_done do
               Sim.work (40 * delta)
             done
         | Owner_spinning ->
             while not !nonowner_done do
               l.olock ();
               Sim.work 10;
               l.ounlock ();
               Sim.work 20
             done
         | Owner_stalled ->
             for _ = 1 to 3 do
               l.olock ();
               Sim.stall_for (3 * delta);
               l.ounlock ();
               Sim.work 2_000
             done;
             while not !nonowner_done do
               Sim.work 2_000
             done));
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 12 do
           l.nlock ();
           acquired := Machine.now m :: !acquired;
           Sim.work 10;
           l.nunlock ();
           Sim.work (100 + (37 * i mod 50))
         done;
         nonowner_done := true));
  check_bool "finished" true (Machine.run ~max_ticks:(1000 * delta) m = Machine.All_finished);
  let cuts, full = waits () in
  let stats = stats_line m in
  [
    ("echo cuts", string_of_int cuts);
    ("full waits", string_of_int full);
    ("owner stats", stats 0);
    ("nonowner stats", stats 1);
    ("acquired at", String.concat " " (List.rev_map string_of_int !acquired));
    ("clock", string_of_int (Machine.now m));
  ]

(* Ffbl's probes take the loops' every load, clock read, CAS and tick,
   under both bounds, on a quiet machine (where probes skip) and a
   noisy one (jitter, adversarial drains), with interrupts on. *)
let test_ffbl_delta_wait_equals_loop () =
  let interrupts cfg = { cfg with Config.interrupt_period = Some 7_919 } in
  let quiet = interrupts Config.(with_consistency (Tbtso delta) default) in
  let cases = ref 0 in
  List.iter
    (fun (cfg_name, cfg) ->
      List.iter
        (fun bound ->
          List.iter
            (fun echo ->
              List.iter
                (fun owner ->
                  let name =
                    Printf.sprintf "%s %s echo %b %s" cfg_name (bound_name bound) echo
                      (owner_name owner)
                  in
                  let expected = ffbl_wait_run loop_ffbl_impl cfg ~bound ~echo owner in
                  let got = ffbl_wait_run ffbl_impl cfg ~bound ~echo owner in
                  List.iter2
                    (fun (label, e) (_, g) -> Alcotest.(check string) (name ^ ": " ^ label) e g)
                    expected got;
                  incr cases)
                [ Owner_idle; Owner_spinning; Owner_stalled ])
            [ true; false ])
        [ B_delta; B_core_array ])
    [ ("quiet", quiet); ("noisy", interrupts (tbtso_cfg 3)) ];
  check_int "grid size" (2 * 2 * 2 * 3) !cases

(* ------------------------------------------------------------------ *)
(* The safe-point lock's serving spin as one Sim.probe vs its loop     *)
(* ------------------------------------------------------------------ *)

(* Safepoint_lock as it was with the owner's queueing on L as a loop:
   trylock; load req and serve a token not served yet; work 10. It
   counts the tokens it serves while queueing. *)
module Loop_safepoint = struct
  type t = {
    flag0 : int;
    req : int;
    grant : int;
    seq : int;
    l : Spinlock.Tas.t;
    mutable in_fast_cs : bool;
    mutable served_queued : int;
  }

  let create machine =
    {
      flag0 = Machine.alloc_global machine 8;
      req = Machine.alloc_global machine 8;
      grant = Machine.alloc_global machine 8;
      seq = Machine.alloc_global machine 8;
      l = Spinlock.Tas.create machine;
      in_fast_cs = false;
      served_queued = 0;
    }

  let serve_revocation t r =
    Sim.fence ();
    Sim.store t.grant r

  let acquire_l_serving t =
    let rec go last =
      if Spinlock.Tas.trylock t.l then ()
      else begin
        let r = Sim.load t.req in
        if r <> 0 && r <> last then begin
          t.served_queued <- t.served_queued + 1;
          serve_revocation t r;
          go r
        end
        else begin
          Sim.work 10;
          go last
        end
      end
    in
    go 0

  let owner_lock t =
    let r = Sim.load t.req in
    if r <> 0 then begin
      serve_revocation t r;
      acquire_l_serving t;
      t.in_fast_cs <- false
    end
    else begin
      Sim.store t.flag0 1;
      let r = Sim.load t.req in
      if r <> 0 then begin
        Sim.store t.flag0 0;
        serve_revocation t r;
        acquire_l_serving t;
        t.in_fast_cs <- false
      end
      else t.in_fast_cs <- true
    end

  let owner_unlock t =
    if t.in_fast_cs then begin
      Sim.store t.flag0 0;
      t.in_fast_cs <- false;
      let r = Sim.load t.req in
      if r <> 0 then serve_revocation t r
    end
    else Spinlock.Tas.unlock t.l

  let nonowner_lock t =
    Spinlock.Tas.lock t.l;
    let token = 1 + Sim.faa t.seq 1 in
    Sim.store t.req token;
    Sim.fence ();
    ignore (Sim.await t.grant ~until:(fun g -> g = token) ~backoff:10)

  let nonowner_unlock t =
    Sim.store t.req 0;
    Spinlock.Tas.unlock t.l
end

let loop_safepoint_impl machine =
  let l = Loop_safepoint.create machine in
  ( {
      olock = (fun () -> Loop_safepoint.owner_lock l);
      ounlock = (fun () -> Loop_safepoint.owner_unlock l);
      nlock = (fun () -> Loop_safepoint.nonowner_lock l);
      nunlock = (fun () -> Loop_safepoint.nonowner_unlock l);
    },
    fun () -> l.served_queued )

let safepoint_impl machine = (snd (safepoint_ops machine), fun () -> 0)

(* The owner takes the lock every [owner_gap] ticks, stalling for
   [stall] ticks after every fourth acquisition, until the non-owner
   has taken it 16 times with gaps of [nonowner_gap] plus a varying
   part. *)
let serving_run make cfg ~owner_gap ~nonowner_gap ~stall =
  let m = Machine.create cfg in
  let l, served = make m in
  let nonowner_done = ref false and acquired = ref [] in
  ignore
    (Machine.spawn m (fun () ->
         let n = ref 0 in
         while not !nonowner_done do
           l.olock ();
           Sim.work 30;
           l.ounlock ();
           incr n;
           if !n mod 4 = 0 then Sim.stall_for stall;
           Sim.work owner_gap
         done));
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 16 do
           l.nlock ();
           acquired := Machine.now m :: !acquired;
           Sim.work 30;
           l.nunlock ();
           Sim.work (nonowner_gap + (37 * i mod 23))
         done;
         nonowner_done := true));
  check_bool "finished" true (Machine.run ~max_ticks:(1000 * delta) m = Machine.All_finished);
  let stats = stats_line m in
  ( [
      ("owner stats", stats 0);
      ("nonowner stats", stats 1);
      ("acquired at", String.concat " " (List.rev_map string_of_int !acquired));
      ("clock", string_of_int (Machine.now m));
    ],
    served () )

(* Safepoint_lock's serving probe takes the loop's every load, CAS,
   store, fence and tick, on a quiet machine (where it can park while
   the non-owner holds L), a noisy one and one with interrupts, over
   gaps that make the owner queue on L behind one, two or more
   revocations. *)
let test_safepoint_serving_equals_loop () =
  let quiet = Config.(with_consistency (Tbtso delta) default) in
  let irq = { quiet with Config.interrupt_period = Some 7_919 } in
  let served = ref 0 and cases = ref 0 in
  List.iter
    (fun (cfg_name, cfg) ->
      List.iter
        (fun (owner_gap, nonowner_gap, stall) ->
          let name =
            Printf.sprintf "%s owner gap %d non-owner gap %d stall %d" cfg_name owner_gap
              nonowner_gap stall
          in
          let expected, n = serving_run loop_safepoint_impl cfg ~owner_gap ~nonowner_gap ~stall in
          let got, _ = serving_run safepoint_impl cfg ~owner_gap ~nonowner_gap ~stall in
          served := !served + n;
          List.iter2
            (fun (label, e) (_, g) -> Alcotest.(check string) (name ^ ": " ^ label) e g)
            expected got;
          incr cases)
        [ (20, 0, 0); (20, 40, 500); (300, 5, 0); (5, 300, 2_000); (60, 60, 0) ])
    [ ("quiet", quiet); ("interrupts", irq); ("noisy", tbtso_cfg 3) ];
  check_int "grid size" (3 * 5) !cases;
  check_bool (Printf.sprintf "%d tokens served while queued" !served) true (!served > 100)

(* ------------------------------------------------------------------ *)
(* Bound.wait_visible as one Sim.probe vs its loop                     *)
(* ------------------------------------------------------------------ *)

(* [Bound.wait_visible] as it was: read the clock, compute the horizon,
   work 50 until it passes [since]. *)
let loop_wait_visible bound ~since =
  match bound with
  | Bound.Delta d -> Sim.stall_until (since + d + 1)
  | Bound.Core_array _ ->
      let rec go () =
        let now = Sim.clock () in
        if Bound.visible_horizon bound ~now <= since then begin
          Sim.work 50;
          go ()
        end
      in
      go ()

(* Flag's asymmetric side 1 (store, fence, wait, load) 10 times against
   a side 0 that stores unfenced, both staying alive until side 1 is
   done (a finished core takes no interrupts). *)
let visible_run wait cfg ~bound =
  let m = Machine.create cfg in
  let bound =
    match bound with
    | `Delta -> Bound.Delta 700
    | `Cores n -> Tbtso_hwmodel.Os_adapt.bound (Tbtso_hwmodel.Os_adapt.install m ~ncores:n)
    | `No_cores -> Bound.Core_array { base = Machine.alloc_global m 8; ncores = 0; stride = 8 }
  in
  let flag0 = Machine.alloc_global m 8 and flag1 = Machine.alloc_global m 8 in
  let side1_done = ref false and seen = ref [] in
  ignore
    (Machine.spawn m (fun () ->
         let i = ref 0 in
         while not !side1_done do
           incr i;
           Sim.store flag0 !i;
           Sim.work (200 + (31 * !i mod 97))
         done));
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 10 do
           Sim.store flag1 i;
           Sim.fence ();
           wait bound ~since:(Sim.clock ());
           seen := (Sim.load flag0, Machine.now m) :: !seen;
           Sim.work (150 * i)
         done;
         side1_done := true));
  check_bool "finished" true (Machine.run ~max_ticks:100_000_000 m = Machine.All_finished);
  let stats = stats_line m in
  [
    ("side 0 stats", stats 0);
    ("side 1 stats", stats 1);
    ("seen", String.concat " " (List.rev_map (fun (v, at) -> Printf.sprintf "%d@%d" v at) !seen));
    ("clock", string_of_int (Machine.now m));
  ]

let test_wait_visible_equals_loop () =
  let cfg consistency ~jitter =
    {
      Config.default with
      consistency;
      costs = { Config.default_costs with interrupt = 5 };
      interrupt_period = Some 1_009;
      jitter;
      seed = 11L;
    }
  in
  List.iter
    (fun (cfg_name, cfg) ->
      List.iter
        (fun (bound_name, bound) ->
          let expected = visible_run loop_wait_visible cfg ~bound in
          let got = visible_run Bound.wait_visible cfg ~bound in
          List.iter2
            (fun (label, e) (_, g) ->
              Alcotest.(check string) (Printf.sprintf "%s %s: %s" cfg_name bound_name label) e g)
            expected got)
        [ ("delta", `Delta); ("1 core", `Cores 1); ("2 cores", `Cores 2); ("no cores", `No_cores) ])
    [
      ("tso", cfg Config.Tso ~jitter:0.0);
      ("tbtso", cfg (Config.Tbtso 700) ~jitter:0.0);
      ("tso jitter", cfg Config.Tso ~jitter:0.2);
    ]

let () =
  Alcotest.run "locks"
    [
      ( "spin",
        [
          Alcotest.test_case "ticket mutual exclusion" `Quick test_ticket_mutual_exclusion;
          Alcotest.test_case "tas mutual exclusion" `Quick test_tas_mutual_exclusion;
          Alcotest.test_case "tas trylock" `Quick test_tas_trylock;
        ] );
      ( "mutual-exclusion",
        [
          Alcotest.test_case "biased basic" `Quick test_biased_basic_mutual_exclusion;
          Alcotest.test_case "ffbl" `Quick test_ffbl_mutual_exclusion;
          Alcotest.test_case "ffbl no-echo" `Quick test_ffbl_mutual_exclusion_no_echo;
          Alcotest.test_case "safe-point" `Quick test_safepoint_mutual_exclusion;
        ] );
      ( "fence-accounting",
        [
          Alcotest.test_case "FFBL owner fence-free" `Quick test_ffbl_owner_fence_free;
          Alcotest.test_case "basic owner pays fence" `Quick test_biased_basic_owner_pays_fence;
        ] );
      ( "echo",
        [
          Alcotest.test_case "echo cuts waits" `Quick test_ffbl_echo_cuts_wait;
          Alcotest.test_case "full wait without echo" `Quick test_ffbl_full_wait_without_echo;
          Alcotest.test_case "delta wait equals loop" `Quick test_ffbl_delta_wait_equals_loop;
          Alcotest.test_case "serving spin equals loop" `Quick test_safepoint_serving_equals_loop;
          Alcotest.test_case "visible wait equals loop" `Quick test_wait_visible_equals_loop;
        ] );
      ( "availability",
        [
          Alcotest.test_case "bounded latency under owner stall" `Quick
            test_ffbl_bounded_latency_despite_owner_stall;
        ] );
      ( "negative",
        [
          Alcotest.test_case "FFBL unsound on plain TSO" `Quick test_ffbl_unsound_on_plain_tso;
          Alcotest.test_case "same scenario safe under TBTSO" `Quick
            test_ffbl_same_scenario_safe_under_tbtso;
        ] );
    ]
