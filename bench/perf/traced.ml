(* Traced drivers for the per-layer run.

   The simulator drivers (Hashtable_bench.run, Lock_bench.run) are
   rebuilt here from the library's public functions, with three probes
   that lib/ does not offer:

   - every thread body runs under an inner effect handler that forwards
     each Sim effect unchanged to the Machine's handler and reads the
     clock and Gc.minor_words at each perform and resume. Host time and
     allocation between a resume and the next perform belong to the
     body (lib/core + lib/structures + Heap); the rest of Machine.run
     belongs to the machine (dispatch, scheduler, store buffers, memory,
     cache). Threads that lib/ spawns itself, the RCU reclaimer and the
     Os_adapt interrupt hook, are not wrapped, so their time counts as
     machine time;
   - Machine.run's [stop_when] predicate is called once per stepped
     tick, so counting its calls against the clock gives how many
     simulated ticks the fast-forward skipped;
   - the set-up, run, grace and teardown phases are timed apart.

   The checker request is split into the calls Litmus_fanout.check makes
   for [~oracle:Both]: Litmus_parse.parse, then Litmus.explore and
   Axiomatic.explore per mode, with the library's own ?profiler phases.

   Both paths must reproduce the untraced results exactly; the traced
   run replays every item untraced and compares. *)

open Tsim
open Tbtso_core
open Tbtso_structures
open Tbtso_workload
module Span = Tbtso_obs.Span

let minor_words () = int_of_float (Gc.minor_words ())

(* ---------------------------------------------------------------- *)
(* Simulator                                                         *)
(* ---------------------------------------------------------------- *)

type sim = {
  mutable seg_ns : int;  (** Start of the current body or machine segment. *)
  mutable seg_words : int;
  mutable in_run : bool;  (** Inside Machine.run: machine segments count. *)
  mutable body_ns : int;
  mutable body_words : int;
  mutable machine_ns : int;
  mutable machine_words : int;
  mutable effects : int;
  mutable stepped : int;
  mutable sim_ticks : int;
  mutable setup_ns : int;
  mutable grace_ns : int;
  mutable teardown_ns : int;
  mutable ops : int;
  mutable loads : int;
  mutable stores : int;
  mutable rmws : int;
  mutable fences : int;
  mutable cache_misses : int;
  mutable drains : int;
  mutable forced_drains : int;
  mutable heap_allocs : int;
  mutable heap_frees : int;
  mutable heap_peak_words : int;
}

let sim () =
  {
    seg_ns = 0;
    seg_words = 0;
    in_run = false;
    body_ns = 0;
    body_words = 0;
    machine_ns = 0;
    machine_words = 0;
    effects = 0;
    stepped = 0;
    sim_ticks = 0;
    setup_ns = 0;
    grace_ns = 0;
    teardown_ns = 0;
    ops = 0;
    loads = 0;
    stores = 0;
    rmws = 0;
    fences = 0;
    cache_misses = 0;
    drains = 0;
    forced_drains = 0;
    heap_allocs = 0;
    heap_frees = 0;
    heap_peak_words = 0;
  }

let enter_body a =
  let now = Span.now_ns () and w = minor_words () in
  if a.in_run then begin
    a.machine_ns <- a.machine_ns + (now - a.seg_ns);
    a.machine_words <- a.machine_words + (w - a.seg_words)
  end;
  a.seg_ns <- now;
  a.seg_words <- w

let leave_body a =
  let now = Span.now_ns () and w = minor_words () in
  a.body_ns <- a.body_ns + (now - a.seg_ns);
  a.body_words <- a.body_words + (w - a.seg_words);
  a.seg_ns <- now;
  a.seg_words <- w

(* The body under a handler that forwards every effect to the Machine's
   handler (the next one out) and hands back its answer, or its
   exception: Machine.kill_remaining discontinues with Sim.Killed, which
   must unwind the body as it would unwrapped. *)
let wrap a body () =
  let open Effect.Deep in
  enter_body a;
  match_with body ()
    {
      retc = (fun () -> leave_body a);
      exnc =
        (fun e ->
          leave_body a;
          raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          Some
            (fun (k : (b, unit) continuation) ->
              leave_body a;
              a.effects <- a.effects + 1;
              match Effect.perform eff with
              | v ->
                  enter_body a;
                  continue k v
              | exception e ->
                  enter_body a;
                  discontinue k e));
    }

let timed f =
  let t0 = Span.now_ns () in
  let r = f () in
  (r, Span.now_ns () - t0)

(* Machine.run with its machine segments accounted; [stop] is the
   driver's own stop condition. *)
let run_machine a ?max_ticks ~stop machine =
  a.seg_ns <- Span.now_ns ();
  a.seg_words <- minor_words ();
  a.in_run <- true;
  let stop_when m =
    stop m
    ||
    (a.stepped <- a.stepped + 1;
     false)
  in
  Fun.protect
    ~finally:(fun () ->
      let now = Span.now_ns () and w = minor_words () in
      a.machine_ns <- a.machine_ns + (now - a.seg_ns);
      a.machine_words <- a.machine_words + (w - a.seg_words);
      a.in_run <- false)
    (fun () -> ignore (Machine.run ?max_ticks ~stop_when machine))

let finish_cell a profiler machine ~ops =
  let s = Machine.total_stats machine in
  a.sim_ticks <- a.sim_ticks + Machine.now machine;
  a.ops <- a.ops + ops;
  a.loads <- a.loads + s.loads;
  a.stores <- a.stores + s.stores;
  a.rmws <- a.rmws + s.rmws;
  a.fences <- a.fences + s.fences;
  a.cache_misses <- a.cache_misses + s.cache_misses;
  a.drains <- a.drains + s.drains;
  a.forced_drains <- a.forced_drains + s.forced_drains;
  Span.count profiler "ops" ops;
  Span.count profiler "sim_ticks" (Machine.now machine)

(* The cell's phases: a timeline span each, and their host time. *)
let setup a profiler f =
  let r, ns = timed (fun () -> Span.with_span profiler "setup" f) in
  a.setup_ns <- a.setup_ns + ns;
  r

let run_and_grace a profiler machine ~run_ticks ~grace =
  Span.with_span profiler "run" (fun () ->
      run_machine a ~stop:(fun m -> Machine.now m >= run_ticks) machine);
  Machine.request_stop machine;
  let (), ns =
    timed (fun () ->
        Span.with_span profiler "grace" (fun () ->
            run_machine a ~max_ticks:grace ~stop:(fun _ -> false) machine))
  in
  a.grace_ns <- a.grace_ns + ns

let teardown a profiler f =
  let r, ns = timed (fun () -> Span.with_span profiler "teardown" f) in
  a.teardown_ns <- a.teardown_ns + ns;
  r

(* Hashtable_bench.run, step for step. *)

let bench_node_words = 8

let prefill machine heap ~buckets ~head_of_bucket ~bucket_of_key ~universe =
  let mem = Machine.memory machine in
  let per_bucket = Array.make buckets [] in
  for key = universe - 1 downto 0 do
    if key mod 2 = 0 then begin
      let b = bucket_of_key key in
      per_bucket.(b) <- key :: per_bucket.(b)
    end
  done;
  for b = 0 to buckets - 1 do
    let rec build = function
      | [] -> Tagged_ptr.null
      | key :: rest ->
          let tail = build rest in
          let node = Heap.alloc heap bench_node_words in
          Memory.write mem ~tid:(-1) ~at:0 node key;
          Memory.write mem ~tid:(-1) ~at:0 (node + 1) tail;
          Tagged_ptr.pack ~ptr:node ~mark:0
    in
    let chain = build (List.sort compare per_bucket.(b)) in
    Memory.write mem ~tid:(-1) ~at:0 (head_of_bucket b) chain
  done

let split_threads (p : Hashtable_bench.params) =
  match p.mix with
  | Hashtable_bench.Read_only -> (p.nthreads, 0)
  | Hashtable_bench.Read_write ->
      let updaters = max 1 (p.nthreads / 4) in
      (p.nthreads - updaters, updaters)

let hashtable a profiler (p : Hashtable_bench.params) : Hashtable_bench.result =
  let u = Hashtable_bench.universe p in
  let reader_threads, updater_threads = split_threads p in
  let ops = Array.make p.nthreads 0 in
  let machine, heap, deferred =
    setup a profiler @@ fun () ->
    let stall_headroom = match p.stall with Some s -> s.duration / 2 | None -> 0 in
    let heap_words = (8 * bench_node_words * u) + (1 lsl 19) + stall_headroom in
    let mem_words = heap_words + (p.buckets * 8) + (1 lsl 17) in
    let machine = Machine.create { p.config with Config.mem_words } in
    let heap = Heap.create machine ~words:heap_words in
    let (Smr_methods.I { policy = (module P); handles; post_spawn; deferred }) =
      Smr_methods.instantiate p.spec machine heap ~nthreads:p.nthreads
    in
    let module H = Hash_table.Make (P) in
    let table = H.create ~node_words:bench_node_words machine heap ~buckets:p.buckets in
    prefill machine heap ~buckets:p.buckets
      ~head_of_bucket:(fun b -> H.List.head (H.bucket_list table b))
      ~bucket_of_key:(H.bucket_of_key table) ~universe:u;
    for i = 0 to reader_threads - 1 do
      ignore
        (Machine.spawn machine
           (wrap a (fun () ->
                let h = handles.(i) in
                let rng = Rng.create (Int64.of_int ((p.seed * 1_000_003) + i)) in
                let stalled = ref false in
                while not (Sim.stopping ()) do
                  let k = Rng.int rng u in
                  ignore (H.lookup table h k);
                  ops.(i) <- ops.(i) + 1;
                  (match p.stall with
                  | Some { at; duration } when i = 0 && not !stalled ->
                      if Sim.clock () >= at then begin
                        stalled := true;
                        Sim.stall_for duration
                      end
                  | Some _ | None -> ());
                  P.quiescent h
                done)))
    done;
    for j = 0 to updater_threads - 1 do
      let tid = reader_threads + j in
      ignore
        (Machine.spawn machine
           (wrap a (fun () ->
                let h = handles.(tid) in
                let mine = ref [] in
                for k = u - 1 downto 0 do
                  if k mod updater_threads = j then mine := k :: !mine
                done;
                let mine = Array.of_list !mine in
                let present = Array.map (fun k -> k mod 2 = 0) mine in
                let idx = ref 0 in
                while not (Sim.stopping ()) do
                  let i = !idx in
                  idx := (!idx + 1) mod Array.length mine;
                  let k = mine.(i) in
                  if present.(i) then begin
                    if H.delete table h k then present.(i) <- false
                  end
                  else if H.insert table h k then present.(i) <- true;
                  ops.(tid) <- ops.(tid) + 1;
                  P.quiescent h
                done)))
    done;
    post_spawn ();
    (machine, heap, deferred)
  in
  run_and_grace a profiler machine ~run_ticks:p.run_ticks
    ~grace:
      (p.run_ticks + (match p.stall with Some s -> s.at + s.duration | None -> 0) + 200_000_000);
  teardown a profiler @@ fun () ->
  Machine.kill_remaining machine;
  let sum_range lo hi f =
    let acc = ref 0 in
    for i = lo to hi do
      acc := !acc + f (Machine.stats machine i)
    done;
    !acc
  in
  let reader_ops = Array.fold_left ( + ) 0 (Array.sub ops 0 reader_threads) in
  let updater_ops = Array.fold_left ( + ) 0 (Array.sub ops reader_threads updater_threads) in
  let r =
    {
      Hashtable_bench.method_name = Smr_methods.name p.spec;
      reader_threads;
      updater_threads;
      reader_ops;
      updater_ops;
      run_ticks = p.run_ticks;
      peak_heap_words = Heap.peak_words heap;
      final_deferred = deferred ();
      fences = sum_range 0 (p.nthreads - 1) (fun (s : Machine.thread_stats) -> s.fences);
      rmws = sum_range 0 (p.nthreads - 1) (fun (s : Machine.thread_stats) -> s.rmws);
      cache_misses =
        sum_range 0 (p.nthreads - 1) (fun (s : Machine.thread_stats) -> s.cache_misses);
    }
  in
  a.heap_allocs <- a.heap_allocs + Heap.allocations heap;
  a.heap_frees <- a.heap_frees + Heap.frees heap;
  a.heap_peak_words <- max a.heap_peak_words (Heap.peak_words heap);
  finish_cell a profiler machine ~ops:(reader_ops + updater_ops);
  r

(* Lock_bench.run, step for step. *)

type lock_ops = {
  olock : unit -> unit;
  ounlock : unit -> unit;
  nlock : unit -> unit;
  nunlock : unit -> unit;
  echo_cuts : unit -> int;
  full_waits : unit -> int;
}

let ffbl_ops l =
  {
    olock = (fun () -> Ffbl.owner_lock l);
    ounlock = (fun () -> Ffbl.owner_unlock l);
    nlock = (fun () -> Ffbl.nonowner_lock l);
    nunlock = (fun () -> Ffbl.nonowner_unlock l);
    echo_cuts = (fun () -> Ffbl.nonowner_echo_cuts l);
    full_waits = (fun () -> Ffbl.nonowner_full_waits l);
  }

let lock_ops kind machine =
  match kind with
  | Lock_bench.L_pthread ->
      let l = Spinlock.Ticket.create machine in
      {
        olock = (fun () -> Spinlock.Ticket.lock l);
        ounlock = (fun () -> Spinlock.Ticket.unlock l);
        nlock = (fun () -> Spinlock.Ticket.lock l);
        nunlock = (fun () -> Spinlock.Ticket.unlock l);
        echo_cuts = (fun () -> 0);
        full_waits = (fun () -> 0);
      }
  | Lock_bench.L_safepoint ->
      let l = Safepoint_lock.create machine in
      {
        olock = (fun () -> Safepoint_lock.owner_lock l);
        ounlock = (fun () -> Safepoint_lock.owner_unlock l);
        nlock = (fun () -> Safepoint_lock.nonowner_lock l);
        nunlock = (fun () -> Safepoint_lock.nonowner_unlock l);
        echo_cuts = (fun () -> 0);
        full_waits = (fun () -> 0);
      }
  | Lock_bench.L_ffbl { delta; echo } ->
      ffbl_ops (Ffbl.create machine ~bound:(Bound.Delta delta) ~echo)
  | Lock_bench.L_ffbl_adapted { period = _; echo } ->
      let adapt = Tbtso_hwmodel.Os_adapt.install machine ~ncores:2 in
      ffbl_ops (Ffbl.create machine ~bound:(Tbtso_hwmodel.Os_adapt.bound adapt) ~echo)

let lock a profiler (p : Lock_bench.params) : Lock_bench.result =
  let owner_acqs = ref 0 and nonowner_acqs = ref 0 in
  let gap rng mean = if mean <= 1 then 1 else Rng.int_in rng (mean / 2) (mean * 3 / 2) in
  let machine, ops =
    setup a profiler @@ fun () ->
    let config =
      match p.kind with
      | Lock_bench.L_ffbl_adapted { period; _ } ->
          { p.config with Config.interrupt_period = Some period }
      | Lock_bench.L_pthread | Lock_bench.L_safepoint | Lock_bench.L_ffbl _ -> p.config
    in
    let machine = Machine.create config in
    let ops = lock_ops p.kind machine in
    ignore
      (Machine.spawn machine
         (wrap a (fun () ->
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
              done)));
    ignore
      (Machine.spawn machine
         (wrap a (fun () ->
              let rng = Rng.create (Int64.of_int ((p.seed * 7919) + 2)) in
              while not (Sim.stopping ()) do
                ops.nlock ();
                Sim.work p.cs_ticks;
                ops.nunlock ();
                incr nonowner_acqs;
                Sim.work (gap rng p.pattern.nonowner_gap)
              done)));
    (machine, ops)
  in
  run_and_grace a profiler machine ~run_ticks:p.run_ticks
    ~grace:(p.run_ticks + (100 * Config.ms 1));
  teardown a profiler @@ fun () ->
  Machine.kill_remaining machine;
  let r =
    {
      Lock_bench.kind_name = Lock_bench.kind_name p.kind;
      owner_acquisitions = !owner_acqs;
      nonowner_acquisitions = !nonowner_acqs;
      run_ticks = p.run_ticks;
      echo_cuts = ops.echo_cuts ();
      full_waits = ops.full_waits ();
    }
  in
  finish_cell a profiler machine ~ops:(!owner_acqs + !nonowner_acqs);
  r

let cell a profiler (c : Cells.t) =
  Span.with_span profiler c.id @@ fun () ->
  match c.params with
  | Cells.Ht p -> Cells.Ht_result (hashtable a profiler p)
  | Cells.Lock p -> Cells.Lock_result (lock a profiler p)

(* ---------------------------------------------------------------- *)
(* Checker                                                           *)
(* ---------------------------------------------------------------- *)

type check = {
  mutable parse_ns : int;
  mutable explore_ns : int;
  mutable explore_words : int;
  mutable sat_ns : int;
  mutable states : int;
  mutable dedup_hits : int;
  mutable sleep_skips : int;
  mutable zones_merged : int;
  mutable propagations : int;
  mutable conflicts : int;
}

let check () =
  {
    parse_ns = 0;
    explore_ns = 0;
    explore_words = 0;
    sat_ns = 0;
    states = 0;
    dedup_hits = 0;
    sleep_skips = 0;
    zones_merged = 0;
    propagations = 0;
    conflicts = 0;
  }

(* The [Both] branch of Litmus_fanout.check, on results already in hand. *)
let verdict task (op : Litmus.result) (sx : Axiomatic.result) : Litmus_fanout.verdict =
  let test = task.Litmus_fanout.test in
  let diff a b = List.filter (fun o -> not (List.mem o b)) a in
  let witnesses =
    match (op.complete, sx.complete) with
    | true, true -> diff op.outcomes sx.outcomes @ diff sx.outcomes op.outcomes
    | true, false -> diff sx.outcomes op.outcomes
    | false, true -> diff op.outcomes sx.outcomes
    | false, false -> []
  in
  {
    task;
    result = Some (Litmus_parse.check_explored test op);
    sat =
      Some
        {
          sat_holds = Litmus_parse.holds_on test sx.outcomes;
          sat_outcome_count = List.length sx.outcomes;
          sat_complete = sx.complete;
          sat_stats = sx.stats;
        };
    disagree = (match List.sort compare witnesses with [] -> None | ws -> Some ws);
    robustness = None;
  }

let request a profiler ~id ~modes text =
  Span.with_span profiler id @@ fun () ->
  let test, ns =
    timed (fun () -> Span.with_span profiler "parse" (fun () -> Litmus_parse.parse text))
  in
  a.parse_ns <- a.parse_ns + ns;
  List.map
    (fun mode ->
      let m = Litmus_parse.mode_id mode in
      let w0 = minor_words () in
      let op, ns =
        timed (fun () ->
            Span.with_span profiler ("explore:" ^ m) (fun () ->
                Litmus.explore ~mode ~profiler test.program))
      in
      a.explore_words <- a.explore_words + (minor_words () - w0);
      a.explore_ns <- a.explore_ns + ns;
      let sx, ns =
        timed (fun () ->
            Span.with_span profiler ("sat:" ^ m) (fun () ->
                Axiomatic.explore ~mode ~profiler test.program))
      in
      a.sat_ns <- a.sat_ns + ns;
      let s = op.stats in
      a.states <- a.states + s.visited;
      a.dedup_hits <- a.dedup_hits + s.dedup_hits;
      a.sleep_skips <- a.sleep_skips + s.sleep_skips;
      a.zones_merged <- a.zones_merged + s.zones_merged;
      a.propagations <- a.propagations + sx.stats.propagations;
      a.conflicts <- a.conflicts + sx.stats.conflicts;
      verdict { Litmus_fanout.path = id; test; mode } op sx)
    modes
