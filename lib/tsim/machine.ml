type stop_reason = All_finished | Max_ticks | Stop_condition

exception Thread_failure of { tid : int; exn : exn }

exception Deadlock of string

(* A Sim.await in progress: its loop's next step. [A_clock] is taken
   only with a deadline. *)
type await_step = A_load | A_clock | A_work | A_complete

type await = {
  aw_addr : int;
  until : int -> bool;
  backoff : int;
  deadline : int option;
  mutable last : int;  (* the latest failed load's value *)
  mutable step : await_step;
}

type op =
  | O_load of int
  | O_store of int * int
  | O_cas of int * int * int
  | O_faa of int * int
  | O_xchg of int * int
  | O_fence
  | O_clock
  | O_work of int
  | O_stall_until of int
  | O_complete
      (* second phase of work/stall: resumes the thread at ready_at, so
         host code following Sim.work runs when the work has elapsed,
         not when it starts *)
  | O_await of await

type thread_stats = {
  loads : int;
  stores : int;
  rmws : int;
  fences : int;
  clock_reads : int;
  cache_misses : int;
  drains : int;
  forced_drains : int;
  exit_drains : int;
  max_residency : int;
}

type mstats = {
  mutable loads : int;
  mutable stores : int;
  mutable rmws : int;
  mutable fences : int;
  mutable clock_reads : int;
  mutable cache_misses : int;
  mutable drains : int;
  mutable forced_drains : int;
  mutable exit_drains : int;
  mutable max_residency : int;
}

(* Why a commit happened: the scheduler's own pace, a model obligation
   (a Δ/τ deadline or an interrupt's kernel entry), or end-of-run
   cleanup. [drains] counts all of them; [forced_drains] aggregates
   [D_delta] and [D_interrupt], so
   voluntary = drains - forced_drains - exit_drains. *)
type drain_kind = D_voluntary | D_delta | D_interrupt | D_exit

let drain_kind_name = function
  | D_voluntary -> "voluntary"
  | D_delta -> "delta"
  | D_interrupt -> "interrupt"
  | D_exit -> "exit"

let drain_kinds = [ D_voluntary; D_delta; D_interrupt; D_exit ]

let kind_index = function D_voluntary -> 0 | D_delta -> 1 | D_interrupt -> 2 | D_exit -> 3

(* A suspended thread: its continuation and the converter from the
   machine's int answer to the value its effect returns. The converters
   are closed top-level functions, so stashing allocates one block. *)
type stash =
  | Unstarted
  | Stash : ('a, unit) Effect.Deep.continuation * (int -> 'a) -> stash

let as_int (v : int) = v

let as_unit (_ : int) = ()

let as_bool v = v <> 0

type thread = {
  tid : int;
  mutable pending : op option;
  mutable stash : stash;
  buf : Store_buffer.t;
  cache : Cache.t;
  mutable ready_at : int;  (* thread cannot execute before this tick *)
  mutable finished : bool;
  mutable done_pending : bool;  (* body returned; completes at ready_at *)
  mutable failure : exn option;
  mutable interrupt_phase : int;
  st : mstats;
  res : Tbtso_obs.Hist.t array;
      (* store-buffer residency at commit, indexed by [kind_index] *)
  drain_rng : Rng.t;
}

type t = {
  cfg : Config.t;
  mem : Memory.t;
  mutable clock : int;
  mutable threads : thread array;
  mutable nthreads : int;
  mutable unfinished : int;
  rng : Rng.t;
  mutable stop_requested : bool;
  mutable interrupt_hook : (tid:int -> now:int -> unit) option;
  mutable label_hook : (tid:int -> now:int -> string -> unit) option;
  mutable event_hook : (tid:int -> now:int -> event -> unit) option;
  mutable first_failure : (int * exn) option;
  mutable quiesce_until : int;  (* Tbtso_hw: system frozen until this tick *)
  mutable quiescence_events : int;
  mutable skip_deadline : int;
      (* Awaits may skip iterations that load before this tick: the
         current run's deadline, or [min_int] under a [stop_when]. *)
}

and event =
  | Ev_load of { addr : int; value : int }
  | Ev_store of { addr : int; value : int }
  | Ev_rmw of { addr : int; old_value : int; new_value : int }
  | Ev_fence
  | Ev_clock of int
  | Ev_commit of { addr : int; value : int; age : int; kind : drain_kind }

let create cfg =
  {
    cfg;
    mem = Memory.create ~words:cfg.Config.mem_words;
    clock = 0;
    threads = [||];
    nthreads = 0;
    unfinished = 0;
    rng = Rng.create cfg.Config.seed;
    stop_requested = false;
    interrupt_hook = None;
    label_hook = None;
    event_hook = None;
    first_failure = None;
    quiesce_until = 0;
    quiescence_events = 0;
    skip_deadline = min_int;
  }

let config t = t.cfg

let memory t = t.mem

let now t = t.clock

let thread_count t = t.nthreads

let alloc_global t n = Memory.alloc_global t.mem n

let set_interrupt_hook t f = t.interrupt_hook <- Some f

let set_label_hook t f = t.label_hook <- Some f

let set_event_hook t f = t.event_hook <- Some f

(* Callers test [tracing] before building an event, so that an unhooked
   machine allocates none. *)
let tracing t = match t.event_hook with Some _ -> true | None -> false

let emit t th ev =
  match t.event_hook with Some f -> f ~tid:th.tid ~now:t.clock ev | None -> ()

let request_stop t = t.stop_requested <- true

let quiescence_events t = t.quiescence_events

let fresh_stats () =
  {
    loads = 0;
    stores = 0;
    rmws = 0;
    fences = 0;
    clock_reads = 0;
    cache_misses = 0;
    drains = 0;
    forced_drains = 0;
    exit_drains = 0;
    max_residency = 0;
  }

let freeze (s : mstats) : thread_stats =
  {
    loads = s.loads;
    stores = s.stores;
    rmws = s.rmws;
    fences = s.fences;
    clock_reads = s.clock_reads;
    cache_misses = s.cache_misses;
    drains = s.drains;
    forced_drains = s.forced_drains;
    exit_drains = s.exit_drains;
    max_residency = s.max_residency;
  }

let stats t tid = freeze t.threads.(tid).st

let total_stats t =
  let acc = fresh_stats () in
  for i = 0 to t.nthreads - 1 do
    let s = t.threads.(i).st in
    acc.loads <- acc.loads + s.loads;
    acc.stores <- acc.stores + s.stores;
    acc.rmws <- acc.rmws + s.rmws;
    acc.fences <- acc.fences + s.fences;
    acc.clock_reads <- acc.clock_reads + s.clock_reads;
    acc.cache_misses <- acc.cache_misses + s.cache_misses;
    acc.drains <- acc.drains + s.drains;
    acc.forced_drains <- acc.forced_drains + s.forced_drains;
    acc.exit_drains <- acc.exit_drains + s.exit_drains;
    acc.max_residency <- max acc.max_residency s.max_residency
  done;
  freeze acc

(* Residency bucket sizing: one histogram spans [0, ~bound) in 64 linear
   buckets, where [bound] is the model's own residency ceiling (Δ or τ)
   when it has one, or a multiple of the drain distribution's scale when
   it does not. Everything beyond lands in the overflow bucket; the
   exact maximum is tracked separately so Δ-invariant checks never see
   bucketing error. *)
let residency_buckets = 64

let residency_width cfg =
  let bound =
    match cfg.Config.consistency with
    | Config.Tbtso delta -> delta + 1
    | Config.Tbtso_hw { tau; quiesce } -> tau + quiesce + 1
    | Config.Sc | Config.Tso | Config.Tso_spatial _ -> (
        match cfg.Config.drain with
        | Config.Drain_fixed n -> (4 * n) + 1
        | Config.Drain_uniform (_, hi) -> (2 * hi) + 1
        | Config.Drain_geometric { cap; _ } -> (2 * cap) + 1
        | Config.Drain_adversarial -> residency_buckets)
  in
  max 1 ((bound + residency_buckets - 1) / residency_buckets)

let residency_by_kind t tid kind =
  Tbtso_obs.Hist.copy t.threads.(tid).res.(kind_index kind)

let residency t tid =
  let res = t.threads.(tid).res in
  let acc = ref (Tbtso_obs.Hist.copy res.(0)) in
  for k = 1 to Array.length res - 1 do
    acc := Tbtso_obs.Hist.merge !acc res.(k)
  done;
  !acc

(* --- Thread startup: run the body under a deep handler that stashes each
   instruction as [pending] together with its continuation. --- *)

let start_thread t (th : thread) (body : unit -> unit) =
  let open Effect.Deep in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          (* Completion takes effect once any trailing work/stall time
             has elapsed, so "Sim.work n" as a thread's last action still
             occupies the thread for n ticks. *)
          th.pending <- None;
          th.done_pending <- true);
      exnc =
        (fun e ->
          th.finished <- true;
          th.pending <- None;
          th.done_pending <- false;
          t.unfinished <- t.unfinished - 1;
          (match e with
          | Sim.Killed -> ()
          | _ ->
              th.failure <- Some e;
              if t.first_failure = None then t.first_failure <- Some (th.tid, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sim.E_load a ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some (O_load a);
                  th.stash <- Stash (k, as_int))
          | Sim.E_store (a, v) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some (O_store (a, v));
                  th.stash <- Stash (k, as_unit))
          | Sim.E_cas (a, e, d) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some (O_cas (a, e, d));
                  th.stash <- Stash (k, as_bool))
          | Sim.E_faa (a, n) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some (O_faa (a, n));
                  th.stash <- Stash (k, as_int))
          | Sim.E_xchg (a, v) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some (O_xchg (a, v));
                  th.stash <- Stash (k, as_int))
          | Sim.E_fence ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some O_fence;
                  th.stash <- Stash (k, as_unit))
          | Sim.E_clock ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some O_clock;
                  th.stash <- Stash (k, as_int))
          | Sim.E_work n ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some (O_work n);
                  th.stash <- Stash (k, as_unit))
          | Sim.E_stall_until target ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <- Some (O_stall_until target);
                  th.stash <- Stash (k, as_unit))
          | Sim.E_await (aw_addr, until, backoff, deadline) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.pending <-
                    Some (O_await { aw_addr; until; backoff; deadline; last = 0; step = A_load });
                  th.stash <- Stash (k, as_int))
          (* Meta-operations: answered immediately, no machine action. *)
          | Sim.E_tid -> Some (fun (k : (a, unit) continuation) -> continue k th.tid)
          | Sim.E_stopping ->
              Some (fun (k : (a, unit) continuation) -> continue k t.stop_requested)
          | Sim.E_label s ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (match t.label_hook with
                  | Some f -> f ~tid:th.tid ~now:t.clock s
                  | None -> ());
                  continue k ())
          | _ -> None);
    }
  in
  match_with body () handler

let spawn t body =
  let tid = t.nthreads in
  let th =
    {
      tid;
      pending = None;
      stash = Unstarted;
      buf = Store_buffer.create ();
      cache = Cache.create ~bits:t.cfg.Config.cache_bits;
      ready_at = 0;
      finished = false;
      done_pending = false;
      failure = None;
      interrupt_phase = tid * 997;
      st = fresh_stats ();
      res =
        (let width = residency_width t.cfg in
         Array.init (List.length drain_kinds) (fun _ ->
             Tbtso_obs.Hist.create ~buckets:residency_buckets ~width ()));
      drain_rng = Rng.split t.rng;
    }
  in
  let threads = Array.make (tid + 1) th in
  Array.blit t.threads 0 threads 0 tid;
  t.threads <- threads;
  t.nthreads <- tid + 1;
  t.unfinished <- t.unfinished + 1;
  start_thread t th body;
  tid

(* --- Machine actions --- *)

let check_poison t th addr ~write =
  if t.cfg.Config.detect_uaf && Memory.is_poisoned t.mem addr then
    raise (Memory.Use_after_free { addr; tid = th.tid; at = t.clock; write })

let commit t th (e : Store_buffer.entry) ~kind =
  check_poison t th e.addr ~write:true;
  Memory.write t.mem ~tid:th.tid ~at:t.clock e.addr e.value;
  (* The writer retains the line in its own cache. *)
  let line = Memory.line_of e.addr in
  ignore (Cache.access th.cache ~line ~version:(Memory.line_version t.mem e.addr));
  th.st.drains <- th.st.drains + 1;
  (match kind with
  | D_voluntary -> ()
  | D_delta | D_interrupt -> th.st.forced_drains <- th.st.forced_drains + 1
  | D_exit -> th.st.exit_drains <- th.st.exit_drains + 1);
  (* Residency: how long the entry sat buffered — the paper's central
     quantity (a store enqueued at t0 must be in memory by t0 + Δ). *)
  let age = t.clock - e.enqueued_at in
  Tbtso_obs.Hist.observe th.res.(kind_index kind) age;
  if age > th.st.max_residency then th.st.max_residency <- age;
  if tracing t then emit t th (Ev_commit { addr = e.addr; value = e.value; age; kind })

let drain_one t th ~kind =
  commit t th (Store_buffer.dequeue_oldest th.buf) ~kind

(* Attempt to drain the oldest entry, modelling read-for-ownership: a
   store whose target line was read by another core must first regain
   exclusive ownership (one cache-miss delay) before it can commit. The
   store buffer hides this latency from the issuing thread — unless it is
   waiting on a fence or an atomic, which is exactly the asymmetry that
   makes unfenced hazard-pointer publication cheap. Returns true if this
   call made progress (committed or issued the RFO). *)
let try_drain t th ~respect_ready =
  let e = Store_buffer.oldest th.buf in
  if e == Store_buffer.sentinel then false
    (* The scheduler's willingness to drain comes first: an RFO is only
       issued for an entry that would otherwise commit now. *)
  else if respect_ready && e.ready_at > t.clock && e.rfo_until = 0 then false
  else if e.rfo_until > t.clock then false
  else if e.rfo_until = 0 && Memory.foreign_reader t.mem e.addr ~tid:th.tid
  then begin
    e.rfo_until <- t.clock + t.cfg.Config.costs.cache_miss;
    Memory.clear_reader t.mem e.addr;
    true
  end
  else begin
    drain_one t th ~kind:D_voluntary;
    true
  end

let drain_delay t th =
  match t.cfg.Config.drain with
  | Config.Drain_fixed n -> n
  | Config.Drain_uniform (lo, hi) -> Rng.int_in th.drain_rng lo hi
  | Config.Drain_geometric { p; cap } -> Rng.geometric th.drain_rng ~p ~cap
  | Config.Drain_adversarial -> max_int / 2

let raise_if_failed th =
  match th.failure with
  | Some exn -> raise (Thread_failure { tid = th.tid; exn })
  | None -> ()

let resume_thread th v =
  (match th.stash with
  | Stash (k, conv) -> Effect.Deep.continue k (conv v)
  | Unstarted -> ());
  raise_if_failed th

(* Raise [e] in the thread at its pending instruction, as if that
   instruction had raised it. *)
let fail_thread th e =
  (match th.stash with
  | Stash (k, _) -> Effect.Deep.discontinue k e
  | Unstarted -> ());
  raise_if_failed th

(* Read as the thread would: forwarding from the store buffer first. *)
let tso_read t th addr ~charge =
  check_poison t th addr ~write:false;
  let fwd = Store_buffer.newest_for th.buf addr in
  if fwd != Store_buffer.sentinel then begin
    if charge then th.ready_at <- t.clock + t.cfg.Config.costs.load;
    fwd.Store_buffer.value
  end
  else begin
      let v = Memory.read t.mem addr in
      Memory.note_reader t.mem addr ~tid:th.tid;
      let line = Memory.line_of addr in
      let hit = Cache.access th.cache ~line ~version:(Memory.line_version t.mem addr) in
      if not hit then th.st.cache_misses <- th.st.cache_misses + 1;
      if charge then
        th.ready_at <-
          t.clock + t.cfg.Config.costs.load
          + (if hit then 0 else t.cfg.Config.costs.cache_miss);
      v
  end

(* Atomic RMW against memory; the store buffer is already empty. *)
let rmw_write t th addr v =
  check_poison t th addr ~write:true;
  Memory.write t.mem ~tid:th.tid ~at:t.clock addr v;
  ignore
    (Cache.access th.cache ~line:(Memory.line_of addr)
       ~version:(Memory.line_version t.mem addr))

let next_interrupt t th period =
  let r = (t.clock - th.interrupt_phase) mod period in
  let r = if r < 0 then r + period else r in
  t.clock + (period - r)

(* The await step after a failed iteration's clock read, or after its
   load when there is no deadline: [work backoff], or the next load. *)
let after_test w = if w.backoff > 0 then A_work else A_load

(* Called after [th]'s await load at [t.clock] failed; the decision is
   made here, never at the clock read, by which time another thread's
   store may have reached the awaited word. When no other thread, store
   buffer, interrupt or clock predicate can act before [limit], every
   later iteration whose last step lands before [limit] reads the same
   word of the same unchanged line: the same value, a cache hit, no new
   reader record. That last step is the load, or with a deadline the
   clock read [load] ticks after it; [limit] is then also capped at
   [deadline + 1], so every skipped clock read fails. Take those [k]
   iterations at once and leave [th] as the k-th of them would: its load
   (and clock read) done, its work step next. The conditions are those
   under which a quiet tick changes nothing: no schedule noise (which
   draws from the RNG), no event hook (which sees every load and clock
   read), no Tbtso_hw quiescence, and non-zero load and clock-read costs
   (so that each step lands on the tick [ready_at] names). *)
let skip_idle t th w =
  let costs = t.cfg.Config.costs in
  if
    t.skip_deadline > t.clock
    && costs.load > 0
    && (costs.clock_read > 0 || w.deadline = None)
    && t.cfg.Config.jitter = 0.0
    && (not (tracing t))
    && match t.cfg.Config.consistency with
       | Config.Tbtso_hw _ -> false
       | Config.Sc | Config.Tso | Config.Tbtso _ | Config.Tso_spatial _ -> true
  then begin
    let limit = ref t.skip_deadline in
    for i = 0 to t.nthreads - 1 do
      let o = t.threads.(i) in
      if not (Store_buffer.is_empty o.buf) then limit := min_int
      else if not o.finished then begin
        if o != th then limit := min !limit (max o.ready_at t.clock);
        match t.cfg.Config.interrupt_period with
        | Some p -> limit := min !limit (next_interrupt t o p)
        | None -> ()
      end
    done;
    (* An iteration's last step before its backoff lands [read] ticks
       after its load. *)
    let read, clock_cost =
      match w.deadline with
      | None -> (0, 0)
      | Some d ->
          if d < !limit then limit := d + 1;
          (costs.load, costs.clock_read)
    in
    (* Loads land at [first], [first + period], ... *)
    let tail = if w.backoff > 0 then w.backoff + 1 else 0 in
    let first = th.ready_at + clock_cost + tail and period = costs.load + clock_cost + tail in
    (* A lone awaiter with no deadline spins forever either way. *)
    if !limit < max_int && first + read < !limit then begin
      let k = ((!limit - 1 - first - read) / period) + 1 in
      th.ready_at <- first + ((k - 1) * period) + costs.load + clock_cost;
      th.st.loads <- th.st.loads + k;
      Cache.add_hits th.cache k;
      if w.deadline <> None then begin
        (* The current iteration's clock read and the k skipped ones. *)
        th.st.clock_reads <- th.st.clock_reads + k + 1;
        w.step <- after_test w
      end
    end
  end

(* Try to execute [th]'s pending instruction; returns true if the thread
   made progress this tick (including progress by draining towards a
   fence/RMW). *)
let exec t th =
  let costs = t.cfg.Config.costs in
  match th.pending with
  | None -> false
  | Some op -> (
      match op with
      | O_load a ->
          let v = tso_read t th a ~charge:true in
          th.st.loads <- th.st.loads + 1;
          if tracing t then emit t th (Ev_load { addr = a; value = v });
          th.pending <- None;
          resume_thread th v;
          true
      | O_store (a, v) when
          (match t.cfg.Config.consistency with
          | Config.Tso_spatial s -> Store_buffer.length th.buf >= s
          | Config.Sc | Config.Tso | Config.Tbtso _ | Config.Tbtso_hw _ -> false) ->
          (* TSO[S]: the buffer is full; the oldest entry must drain
             before this store can issue. *)
          ignore (a, v);
          try_drain t th ~respect_ready:false
      | O_store (a, v) ->
          th.st.stores <- th.st.stores + 1;
          check_poison t th a ~write:true;
          (match t.cfg.Config.consistency with
          | Config.Sc ->
              Memory.write t.mem ~tid:th.tid ~at:t.clock a v;
              ignore
                (Cache.access th.cache ~line:(Memory.line_of a)
                   ~version:(Memory.line_version t.mem a))
          | Config.Tso | Config.Tbtso _ | Config.Tso_spatial _ | Config.Tbtso_hw _ ->
              let d = drain_delay t th in
              Store_buffer.enqueue th.buf
                {
                  addr = a;
                  value = v;
                  enqueued_at = t.clock;
                  ready_at = t.clock + d;
                  rfo_until = 0;
                });
          th.ready_at <- t.clock + costs.store;
          if tracing t then emit t th (Ev_store { addr = a; value = v });
          th.pending <- None;
          resume_thread th 0;
          true
      | O_fence ->
          if Store_buffer.is_empty th.buf then begin
            th.st.fences <- th.st.fences + 1;
            th.ready_at <- t.clock + costs.fence;
            emit t th Ev_fence;
            th.pending <- None;
            resume_thread th 0;
            true
          end
          else
            (* The memory subsystem must first empty the buffer; drains
               may in turn wait on line-ownership upgrades. *)
            try_drain t th ~respect_ready:false
      | O_cas _ | O_faa _ | O_xchg _ ->
          if not (Store_buffer.is_empty th.buf) then
            try_drain t th ~respect_ready:false
          else begin
            th.st.rmws <- th.st.rmws + 1;
            let result =
              match op with
              | O_cas (a, expected, desired) ->
                  let cur = tso_read t th a ~charge:false in
                  if cur = expected then begin
                    rmw_write t th a desired;
                    if tracing t then
                      emit t th (Ev_rmw { addr = a; old_value = cur; new_value = desired });
                    1
                  end
                  else begin
                    if tracing t then
                      emit t th (Ev_rmw { addr = a; old_value = cur; new_value = cur });
                    0
                  end
              | O_faa (a, n) ->
                  let cur = tso_read t th a ~charge:false in
                  rmw_write t th a (cur + n);
                  if tracing t then
                    emit t th (Ev_rmw { addr = a; old_value = cur; new_value = cur + n });
                  cur
              | O_xchg (a, v) ->
                  let cur = tso_read t th a ~charge:false in
                  rmw_write t th a v;
                  if tracing t then
                    emit t th (Ev_rmw { addr = a; old_value = cur; new_value = v });
                  cur
              | O_load _ | O_store _ | O_fence | O_clock | O_work _ | O_stall_until _
              | O_complete | O_await _ ->
                  assert false
            in
            th.ready_at <- t.clock + costs.cas;
            th.pending <- None;
            resume_thread th result;
            true
          end
      | O_clock ->
          th.st.clock_reads <- th.st.clock_reads + 1;
          th.ready_at <- t.clock + costs.clock_read;
          if tracing t then emit t th (Ev_clock t.clock);
          th.pending <- None;
          resume_thread th t.clock;
          true
      | O_work n ->
          th.ready_at <- t.clock + n;
          th.pending <- Some O_complete;
          true
      | O_stall_until target ->
          let target = if target < 0 then t.clock - target else target in
          th.ready_at <- max th.ready_at target;
          th.pending <- Some O_complete;
          true
      | O_complete ->
          th.pending <- None;
          resume_thread th 0;
          true
      | O_await w -> (
          match w.step with
          | A_load ->
              let v = tso_read t th w.aw_addr ~charge:true in
              th.st.loads <- th.st.loads + 1;
              if tracing t then emit t th (Ev_load { addr = w.aw_addr; value = v });
              (match w.until v with
              | true ->
                  th.pending <- None;
                  resume_thread th v
              | false ->
                  w.last <- v;
                  w.step <- (match w.deadline with Some _ -> A_clock | None -> after_test w);
                  skip_idle t th w
              | exception e ->
                  th.pending <- None;
                  fail_thread th e);
              true
          | A_clock ->
              th.st.clock_reads <- th.st.clock_reads + 1;
              th.ready_at <- t.clock + costs.clock_read;
              if tracing t then emit t th (Ev_clock t.clock);
              (match w.deadline with
              | Some d when t.clock > d ->
                  th.pending <- None;
                  resume_thread th w.last
              | Some _ | None -> w.step <- after_test w);
              true
          | A_work ->
              th.ready_at <- t.clock + w.backoff;
              w.step <- A_complete;
              true
          | A_complete ->
              w.step <- A_load;
              true))

let interrupt t th =
  (* A kernel entry drains the store buffer (Section 6.2). *)
  while not (Store_buffer.is_empty th.buf) do
    drain_one t th ~kind:D_interrupt
  done;
  (match t.interrupt_hook with
  | Some f -> f ~tid:th.tid ~now:t.clock
  | None -> ());
  th.ready_at <- max th.ready_at (t.clock + t.cfg.Config.costs.interrupt)

let interrupt_due t th period = (t.clock - th.interrupt_phase) mod period = 0

(* Earliest future time at which anything can happen; used to fast-forward
   the clock through quiet periods (long stalls, Δ waits). *)
let next_event_time t =
  let best = ref max_int in
  let note x = if x > t.clock && x < !best then best := x in
  note t.quiesce_until;
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    if not th.finished then note th.ready_at;
    (let e = Store_buffer.oldest th.buf in
     if e != Store_buffer.sentinel then begin
       note e.ready_at;
       note e.rfo_until;
       match t.cfg.Config.consistency with
       | Config.Tbtso delta -> note (e.enqueued_at + delta)
       | Config.Tbtso_hw { tau; _ } -> note (e.enqueued_at + tau)
       | Config.Sc | Config.Tso | Config.Tso_spatial _ -> ()
     end);
    if (not th.finished) || not (Store_buffer.is_empty th.buf) then begin
      match t.cfg.Config.interrupt_period with
      | Some p -> note (next_interrupt t th p)
      | None -> ()
    end
  done;
  !best

let describe_stuck t =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "deadlock at tick %d:" t.clock);
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    if not th.finished then
      Buffer.add_string b
        (Printf.sprintf " [tid %d ready_at %d buffered %d pending %s]" th.tid th.ready_at
           (Store_buffer.length th.buf)
           (match th.pending with
           | None -> "none"
           | Some (O_load _) -> "load"
           | Some (O_store _) -> "store"
           | Some (O_cas _) -> "cas"
           | Some (O_faa _) -> "faa"
           | Some (O_xchg _) -> "xchg"
           | Some O_fence -> "fence"
           | Some O_clock -> "clock"
           | Some (O_work _) -> "work"
           | Some (O_stall_until _) -> "stall"
           | Some O_complete -> "complete"
           | Some (O_await _) -> "await"))
  done;
  Buffer.contents b

let tick ?(deadline = max_int) t =
  t.clock <- t.clock + 1;
  let acted = ref false in
  (* Phase 1: timer interrupts. *)
  (match t.cfg.Config.interrupt_period with
  | Some p ->
      for i = 0 to t.nthreads - 1 do
        let th = t.threads.(i) in
        (* Finished threads' cores still take interrupts while stores
           remain buffered. *)
        if ((not th.finished) || not (Store_buffer.is_empty th.buf))
           && interrupt_due t th p
        then begin
          interrupt t th;
          acted := true
        end
      done
  | None -> ());
  (* Phase 2: Δ-deadline forced drains (the TBTSO invariant). *)
  (match t.cfg.Config.consistency with
  | Config.Tbtso delta ->
      for i = 0 to t.nthreads - 1 do
        let th = t.threads.(i) in
        let rec force () =
          let e = Store_buffer.oldest th.buf in
          if e != Store_buffer.sentinel && e.enqueued_at + delta <= t.clock
          then begin
            drain_one t th ~kind:D_delta;
            acted := true;
            force ()
          end
        in
        force ()
      done
  | Config.Tbtso_hw { tau; quiesce } ->
      (* The Section 6.1 bail-out: if any store has been buffered past
         its timeout, force system-wide quiescence. While quiescent no
         thread executes; at the end of the window every buffered store
         has propagated. *)
      if t.clock = t.quiesce_until then begin
        (* Quiescence complete: the pause let every store reach memory. *)
        for i = 0 to t.nthreads - 1 do
          let th = t.threads.(i) in
          while not (Store_buffer.is_empty th.buf) do
            (* Quiescence is the Tbtso_hw τ-deadline obligation. *)
            drain_one t th ~kind:D_delta
          done
        done;
        acted := true
      end
      else if t.quiesce_until < t.clock then begin
        let expired = ref false in
        for i = 0 to t.nthreads - 1 do
          let e = Store_buffer.oldest (t.threads.(i)).buf in
          if e != Store_buffer.sentinel && e.enqueued_at + tau <= t.clock then
            expired := true
        done;
        if !expired then begin
          t.quiesce_until <- t.clock + quiesce;
          t.quiescence_events <- t.quiescence_events + 1;
          acted := true
        end
      end
  | Config.Sc | Config.Tso | Config.Tso_spatial _ -> ());
  let quiescing =
    match t.cfg.Config.consistency with
    | Config.Tbtso_hw _ -> t.clock < t.quiesce_until
    | Config.Sc | Config.Tso | Config.Tbtso _ | Config.Tso_spatial _ -> false
  in
  (* Phase 3: one voluntary drain per thread (may issue an RFO first). *)
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    if try_drain t th ~respect_ready:true then acted := true
  done;
  (* Phase 4: one instruction per runnable thread, rotating priority. *)
  let n = t.nthreads in
  let start = if n = 0 then 0 else t.clock mod n in
  let jitter = t.cfg.Config.jitter in
  for i = 0 to n - 1 do
    let th = t.threads.((start + i) mod n) in
    if quiescing then ()
    else if th.done_pending && not th.finished then begin
      if th.ready_at <= t.clock then begin
        th.done_pending <- false;
        th.finished <- true;
        t.unfinished <- t.unfinished - 1;
        acted := true
      end
    end
    else if (not th.finished) && th.ready_at <= t.clock then
      if jitter > 0.0 && Rng.float t.rng < jitter then
        (* Skipped by schedule noise, but still runnable: counts as
           activity so the clock is not fast-forwarded over it. *)
        acted := true
      else if exec t th then acted := true
  done;
  if not !acted then begin
    let next = next_event_time t in
    if next = max_int then raise (Deadlock (describe_stuck t))
    else
      (* Fast-forward to just before the next event, but never past the
         caller's deadline: [run ~max_ticks] must report [Max_ticks] with
         the clock at the deadline, not at some event beyond it. *)
      t.clock <- min (next - 1) deadline
  end

let check_failure t =
  match t.first_failure with
  | Some (tid, exn) ->
      t.first_failure <- None;
      raise (Thread_failure { tid; exn })
  | None -> ()

(* On process exit, every core's remaining stores reach memory; commit
   them so that final memory is well defined (and commit-time
   use-after-free checks still run). *)
let exit_drain t =
  let rec any_left () =
    let left = ref false in
    for i = 0 to t.nthreads - 1 do
      let th = t.threads.(i) in
      if not (Store_buffer.is_empty th.buf) then begin
        left := true;
        drain_one t th ~kind:D_exit
      end
    done;
    if !left then begin
      t.clock <- t.clock + 1;
      any_left ()
    end
  in
  any_left ()

let run ?(max_ticks = max_int) ?stop_when t =
  check_failure t;
  let deadline =
    if max_ticks >= max_int - t.clock then max_int else t.clock + max_ticks
  in
  t.skip_deadline <- (match stop_when with Some _ -> min_int | None -> deadline);
  let stopped () = match stop_when with Some f -> f t | None -> false in
  let rec loop () =
    if t.unfinished = 0 then begin
      exit_drain t;
      All_finished
    end
    else if t.clock >= deadline then Max_ticks
    else if stopped () then Stop_condition
    else begin
      tick ~deadline t;
      loop ()
    end
  in
  loop ()

let kill_remaining t =
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    if not th.finished then begin
      if th.done_pending then begin
        (* Body already returned; just complete it. *)
        th.done_pending <- false;
        th.finished <- true;
        t.unfinished <- t.unfinished - 1
      end
      else begin
        th.pending <- None;
        (* Discontinue the stashed continuation: Sim.Killed unwinds the
           thread body and is absorbed by the handler's exnc. *)
        (match th.stash with
        | Stash (k, _) -> Effect.Deep.discontinue k Sim.Killed
        | Unstarted -> ());
        th.failure <- None
      end
    end
  done

let drain_all t =
  t.clock <- t.clock + 1;
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    while not (Store_buffer.is_empty th.buf) do
      drain_one t th ~kind:D_exit
    done
  done
