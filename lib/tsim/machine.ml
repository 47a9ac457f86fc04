type stop_reason = All_finished | Max_ticks | Stop_condition

exception Thread_failure of { tid : int; exn : exn }

exception Deadlock of string

(* A Sim.probe in progress. An iteration is [steps] at positions
   [0 .. n-1] of [pc], then, when [backoff > 0], the work step at [n]
   and the step at [n + 1] that completes it. *)
type probe = {
  steps : Sim.step array;
  vals : int array;
  backoff : int;
  first_access : int;  (* index of the first Load or Cas *)
  last_access : int;  (* index of the last Load or Cas *)
  stores : bool;  (* some step is a Store: the probe never parks *)
  period : int;  (* ticks per iteration, or 0 if some step takes none *)
  exit_by : int;  (* the first tick a clock read could pass a deadline at *)
  mutable pc : int;
  mutable slot : int;  (* the next Load's slot in [vals] *)
  mutable waiting : bool;
      (* every access of the latest iteration has run and its tests
         failed; cleared by the next iteration's first access *)
  mutable epoch : int;  (* the memory's [writes] at that iteration's first access *)
  mutable clean : bool;  (* each of that iteration's accesses hit the cache *)
}

(* The instruction a thread is held at, with its operands in the
   thread's [a0], [a1] and [a2]. The constructors are constant, so an
   opcode is an immediate int and writing one is a plain store. *)
type opcode =
  | O_none  (* running host code, finishing, or finished *)
  | O_load  (* a0 address *)
  | O_store  (* a0 address, a1 value *)
  | O_cas  (* a0 address, a1 expected, a2 desired *)
  | O_faa  (* a0 address, a1 addend *)
  | O_xchg  (* a0 address, a1 value *)
  | O_fence
  | O_clock
  | O_work  (* a0 ticks *)
  | O_stall_until  (* a0 tick, or minus ticks from now *)
  | O_complete
      (* second phase of work/stall: resumes the thread at ready_at, so
         host code following Sim.work runs when the work has elapsed,
         not when it starts *)
  | O_probe  (* the thread's [probe] *)

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

(* The continuation slot of a thread that has not suspended yet: a
   continuation captured once, here, and never resumed. A thread's slot
   is resumed only while its opcode is not [O_none], which it is only
   after its first instruction has filled the slot. *)
type _ Effect.t += Unused : int Effect.t

let unused : (int, unit) Effect.Deep.continuation =
  let captured = ref None in
  Effect.Deep.match_with
    (fun () -> ignore (Effect.perform Unused))
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Unused -> Some (fun (k : (int, unit) Effect.Deep.continuation) -> captured := Some k)
          | _ -> None);
    };
  Option.get !captured

(* The [probe] of a thread that has run none. *)
let no_probe =
  {
    steps = [||];
    vals = [||];
    backoff = 0;
    first_access = -1;
    last_access = -1;
    stores = false;
    period = 0;
    exit_by = max_int;
    pc = 0;
    slot = 0;
    waiting = false;
    epoch = 0;
    clean = false;
  }

type thread = {
  tid : int;
  mutable op : opcode;
  mutable a0 : int;
  mutable a1 : int;
  mutable a2 : int;
  mutable probe : probe;  (* the probe of the latest [O_probe] *)
  mutable k : (int, unit) Effect.Deep.continuation;
      (* where the thread resumes, with its instruction's int answer *)
  buf : Store_buffer.t;
  tags : int array;
  versions : int array;
      (* The thread's cache: per set, the line it last held and that
         line's version then (see [cache_hit]). *)
  mutable ready_at : int;  (* thread cannot execute before this tick *)
  mutable finished : bool;
  mutable done_pending : bool;  (* body returned; completes at ready_at *)
  mutable failure : exn option;
  mutable interrupt_phase : int;
  mutable irq_at : int;  (* the latest [next_interrupt] answer, or 0 *)
  st : mstats;
  res : Tbtso_obs.Hist.t array;
      (* store-buffer residency at commit, indexed by [kind_index] *)
  drain_rng : Rng.t;
}

type t = {
  cfg : Config.t;
  mem : Memory.t;
  cache_mask : int;  (* cache sets - 1 *)
  drain_bound : int;  (* [Rng.geometric_bound] of a geometric drain's p *)
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
      (* Probes may skip iterations whose steps land before this tick:
         the current run's deadline, or [min_int] under a [stop_when]. *)
  mutable probe_failed : bool;  (* a probe iteration failed this tick *)
  mutable irq_next : int;
      (* No core takes a timer interrupt before this tick: the least
         next interrupt over the cores that can still take one, as of
         the last tick that checked them; [spawn] resets it to 0 and it
         is [max_int] without interrupts. *)
  mutable deadline_next : int;
      (* No buffered store reaches its Δ (or τ) deadline before this
         tick: lowered at the one enqueue site, recomputed by the tick
         that checks the deadlines; [max_int] when none can be due. *)
  mutable busy : int array;
      (* The tids whose store buffers hold entries, ascending, in
         [busy.(0 .. nbusy - 1)]: kept at the one enqueue site (exec's
         store) and the one dequeue site ([dequeue]). *)
  mutable nbusy : int;
  mutable rot : int;  (* [rot_at mod nthreads]: phase 4's first thread at tick [rot_at] *)
  mutable rot_at : int;  (* -1 when [rot] must be computed afresh *)
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
    cache_mask = (1 lsl cfg.Config.cache_bits) - 1;
    drain_bound =
      (match cfg.Config.drain with
      | Config.Drain_geometric { p; _ } -> Rng.geometric_bound p
      | Config.Drain_fixed _ | Config.Drain_uniform _ | Config.Drain_adversarial -> 0);
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
    probe_failed = false;
    irq_next = (match cfg.Config.interrupt_period with Some _ -> 0 | None -> max_int);
    deadline_next = max_int;
    busy = [||];
    nbusy = 0;
    rot = 0;
    rot_at = -1;
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
    acc.max_residency <- Int.max acc.max_residency s.max_residency
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
  Int.max 1 ((bound + residency_buckets - 1) / residency_buckets)

let residency_by_kind t tid kind =
  Tbtso_obs.Hist.copy t.threads.(tid).res.(kind_index kind)

let residency t tid =
  let res = t.threads.(tid).res in
  let acc = ref (Tbtso_obs.Hist.copy res.(0)) in
  for k = 1 to Array.length res - 1 do
    acc := Tbtso_obs.Hist.merge !acc res.(k)
  done;
  !acc

(* The ticks a probe's step at [pos] takes: the next step runs that
   many ticks later. *)
let step_ticks (costs : Config.costs) ~steps ~backoff pos =
  let n = Array.length steps in
  if pos = n then backoff
  else if pos > n then 1
  else
    match steps.(pos) with
    | Sim.Load _ -> costs.load
    | Sim.Clock _ -> costs.clock_read
    | Sim.Cas _ -> costs.cas
    | Sim.Store _ -> costs.store

let iteration_length ~steps ~backoff =
  if backoff > 0 then Array.length steps + 2 else Array.length steps

let start_probe t steps vals backoff =
  let first = ref (-1) and last = ref (-1) and exit_by = ref max_int and stores = ref false in
  Array.iteri
    (fun i s ->
      match s with
      | Sim.Load _ | Sim.Cas _ ->
          if !first < 0 then first := i;
          last := i
      | Sim.Clock (Some d) -> if d < !exit_by then exit_by := d + 1
      | Sim.Clock None -> ()
      | Sim.Store _ -> stores := true)
    steps;
  let period = ref 0 and zero = ref false in
  for pos = 0 to iteration_length ~steps ~backoff - 1 do
    let d = step_ticks t.cfg.Config.costs ~steps ~backoff pos in
    if d <= 0 then zero := true;
    period := !period + d
  done;
  {
    steps;
    vals;
    backoff;
    first_access = !first;
    last_access = !last;
    stores = !stores;
    period = (if !zero then 0 else !period);
    exit_by = !exit_by;
    pc = 0;
    slot = 0;
    waiting = false;
    epoch = 0;
    clean = false;
  }

(* --- Thread startup: run the body under a deep handler that records
   each instruction in the thread and keeps its continuation. --- *)

let start_thread t (th : thread) (body : unit -> unit) =
  let open Effect.Deep in
  (* [effc] writes the opcode and operands into [th] and hands back one
     of these, allocated once per thread, to keep the continuation. *)
  let suspend = Some (fun (k : (int, unit) continuation) -> th.k <- k) in
  let answer_tid = Some (fun (k : (int, unit) continuation) -> continue k th.tid) in
  let answer_stopping = Some (fun (k : (bool, unit) continuation) -> continue k t.stop_requested) in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          (* Completion takes effect once any trailing work/stall time
             has elapsed, so "Sim.work n" as a thread's last action still
             occupies the thread for n ticks. *)
          th.op <- O_none;
          th.done_pending <- true);
      exnc =
        (fun e ->
          th.finished <- true;
          th.op <- O_none;
          th.done_pending <- false;
          t.unfinished <- t.unfinished - 1;
          (match e with
          | Sim.Killed -> ()
          | _ ->
              th.failure <- Some e;
              if t.first_failure = None then t.first_failure <- Some (th.tid, e)));
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Sim.E_load a ->
              th.op <- O_load;
              th.a0 <- a;
              suspend
          | Sim.E_store (a, v) ->
              th.op <- O_store;
              th.a0 <- a;
              th.a1 <- v;
              suspend
          | Sim.E_cas (a, e, d) ->
              th.op <- O_cas;
              th.a0 <- a;
              th.a1 <- e;
              th.a2 <- d;
              suspend
          | Sim.E_faa (a, n) ->
              th.op <- O_faa;
              th.a0 <- a;
              th.a1 <- n;
              suspend
          | Sim.E_xchg (a, v) ->
              th.op <- O_xchg;
              th.a0 <- a;
              th.a1 <- v;
              suspend
          | Sim.E_fence ->
              th.op <- O_fence;
              suspend
          | Sim.E_clock ->
              th.op <- O_clock;
              suspend
          | Sim.E_work n ->
              th.op <- O_work;
              th.a0 <- n;
              suspend
          | Sim.E_stall_until target ->
              th.op <- O_stall_until;
              th.a0 <- target;
              suspend
          | Sim.E_probe (steps, vals, backoff) ->
              th.op <- O_probe;
              th.probe <- start_probe t steps vals backoff;
              suspend
          (* Meta-operations: answered immediately, no machine action. *)
          | Sim.E_tid -> answer_tid
          | Sim.E_stopping -> answer_stopping
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
      op = O_none;
      a0 = 0;
      a1 = 0;
      a2 = 0;
      probe = no_probe;
      k = unused;
      buf = Store_buffer.create ();
      tags = Array.make (t.cache_mask + 1) (-1);
      versions = Array.make (t.cache_mask + 1) (-1);
      ready_at = 0;
      finished = false;
      done_pending = false;
      failure = None;
      interrupt_phase = tid * 997;
      irq_at = 0;
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
  let busy = Array.make (tid + 1) 0 in
  Array.blit t.busy 0 busy 0 t.nbusy;
  t.busy <- busy;
  t.nthreads <- tid + 1;
  t.rot_at <- -1;
  t.unfinished <- t.unfinished + 1;
  if t.irq_next < max_int then t.irq_next <- 0;
  start_thread t th body;
  tid

(* --- Machine actions --- *)

(* Each access looks its word's page up once and indexes it with
   these. An address outside memory goes to [Memory.page], which
   raises. *)
let[@inline] page t addr =
  let mem = t.mem in
  if addr >= 0 && addr < mem.Memory.words then
    Array.unsafe_get mem.Memory.pages (addr lsr Memory.page_shift)
  else Memory.page mem addr

let word_in_page addr = addr land Memory.page_mask

let line_in_page addr = word_in_page addr lsr Memory.line_shift

let line_of addr = addr lsr Memory.line_shift

let[@inline never] use_after_free t th addr ~write =
  raise (Memory.Use_after_free { addr; tid = th.tid; at = t.clock; write })

let[@inline] check_poison t th (p : Memory.page) addr ~write =
  if t.cfg.Config.detect_uaf && Bytes.unsafe_get p.poisoned (word_in_page addr) <> '\000' then
    use_after_free t th addr ~write

(* [th] loaded from [addr]'s line: it becomes the line's reader unless
   it owns the line or already is. *)
let[@inline] note_reader t th (p : Memory.page) addr =
  let l = line_in_page addr in
  if Array.unsafe_get p.owner l <> th.tid && Array.unsafe_get p.reader l <> th.tid then
    Memory.set_reader t.mem p addr th.tid

(* The thread's direct-mapped cache, a cost model only: it never
   affects the values read. Whether the set of [line] holds it at
   [version] (no other thread has written the line since this one held
   it); either way the set holds it at [version] afterwards. *)
let[@inline] cache_hit t th line version =
  let i = line land t.cache_mask in
  (Array.unsafe_get th.tags i = line && Array.unsafe_get th.versions i = version)
  || begin
       Array.unsafe_set th.tags i line;
       Array.unsafe_set th.versions i version;
       false
     end

(* Write [v] to [addr] in page [p], keeping the line in the writer's
   own cache. *)
let write_through t th p addr v =
  let version = Memory.write_in t.mem p ~tid:th.tid addr v in
  ignore (cache_hit t th (line_of addr) version)

let commit t th p ~addr ~value ~enqueued_at ~kind =
  check_poison t th p addr ~write:true;
  write_through t th p addr value;
  th.st.drains <- th.st.drains + 1;
  (match kind with
  | D_voluntary -> ()
  | D_delta | D_interrupt -> th.st.forced_drains <- th.st.forced_drains + 1
  | D_exit -> th.st.exit_drains <- th.st.exit_drains + 1);
  (* Residency: how long the entry sat buffered — the paper's central
     quantity (a store enqueued at t0 must be in memory by t0 + Δ). *)
  let age = t.clock - enqueued_at in
  Tbtso_obs.Hist.observe th.res.(kind_index kind) age;
  if age > th.st.max_residency then th.st.max_residency <- age;
  if tracing t then emit t th (Ev_commit { addr; value; age; kind })

(* [busy] membership: [th] is added when its buffer leaves empty and
   removed when it returns to empty. *)
let mark_busy t th =
  let i = ref t.nbusy in
  while !i > 0 && t.busy.(!i - 1) > th.tid do
    t.busy.(!i) <- t.busy.(!i - 1);
    decr i
  done;
  t.busy.(!i) <- th.tid;
  t.nbusy <- t.nbusy + 1

let unmark_busy t th =
  let busy = t.busy in
  let i = ref 0 in
  while busy.(!i) <> th.tid do
    incr i
  done;
  for j = !i to t.nbusy - 2 do
    busy.(j) <- busy.(j + 1)
  done;
  t.nbusy <- t.nbusy - 1

(* Dequeue [th]'s oldest buffered store, the one dequeue site, and
   commit it to its page [p]. *)
let commit_oldest t th p ~kind =
  let b = th.buf in
  let s = b.head in
  let addr = Array.unsafe_get b.addr s
  and value = Array.unsafe_get b.value s
  and enqueued_at = Array.unsafe_get b.enqueued_at s in
  Store_buffer.drop_oldest b;
  if b.len = 0 then unmark_busy t th;
  commit t th p ~addr ~value ~enqueued_at ~kind

let drain_one t th ~kind =
  let b = th.buf in
  commit_oldest t th (page t (Array.unsafe_get b.addr b.head)) ~kind

(* Attempt to drain the oldest entry, modelling read-for-ownership: a
   store whose target line was read by another core must first regain
   exclusive ownership (one cache-miss delay) before it can commit. The
   store buffer hides this latency from the issuing thread — unless it is
   waiting on a fence or an atomic, which is exactly the asymmetry that
   makes unfenced hazard-pointer publication cheap. Returns true if this
   call made progress (committed or issued the RFO). *)
let try_drain t th ~respect_ready =
  let b = th.buf in
  if b.len = 0 then false
  else begin
    let s = b.head in
    let rfo_until = Array.unsafe_get b.rfo_until s in
    (* The scheduler's willingness to drain comes first: an RFO is only
       issued for an entry that would otherwise commit now. *)
    if respect_ready && Array.unsafe_get b.ready_at s > t.clock && rfo_until = 0 then false
    else if rfo_until > t.clock then false
    else begin
      let addr = Array.unsafe_get b.addr s in
      let p = page t addr in
      let reader = Array.unsafe_get p.reader (line_in_page addr) in
      if rfo_until = 0 && reader >= 0 && reader <> th.tid then begin
        Store_buffer.set_oldest_rfo b (t.clock + t.cfg.Config.costs.cache_miss);
        Memory.set_reader t.mem p addr (-1)
      end
      else commit_oldest t th p ~kind:D_voluntary;
      true
    end
  end

let drain_delay t th =
  match t.cfg.Config.drain with
  | Config.Drain_fixed n -> n
  | Config.Drain_uniform (lo, hi) -> Rng.int_in th.drain_rng lo hi
  | Config.Drain_geometric { cap; _ } -> Rng.geometric th.drain_rng ~bound:t.drain_bound ~cap
  | Config.Drain_adversarial -> max_int / 2

let raise_if_failed th =
  match th.failure with
  | Some exn -> raise (Thread_failure { tid = th.tid; exn })
  | None -> ()

(* Resume [th] past its instruction, which answers [v]. *)
let resume_thread th v =
  th.op <- O_none;
  Effect.Deep.continue th.k v;
  raise_if_failed th

(* Raise [e] in the thread at its pending instruction, as if that
   instruction had raised it. *)
let fail_thread th e =
  th.op <- O_none;
  Effect.Deep.discontinue th.k e;
  raise_if_failed th

(* Read as the thread would, from [addr]'s page [p]: the poison test,
   then forwarding from the store buffer, else memory, the reader
   record and the cache. *)
let tso_read_in t th p addr ~charge =
  check_poison t th p addr ~write:false;
  let fwd = if th.buf.len = 0 then -1 else Store_buffer.newest_for th.buf addr in
  if fwd >= 0 then begin
    if charge then th.ready_at <- t.clock + t.cfg.Config.costs.load;
    Array.unsafe_get th.buf.value fwd
  end
  else begin
    let v = Array.unsafe_get p.data (word_in_page addr) in
    note_reader t th p addr;
    let version = Array.unsafe_get p.version (line_in_page addr) in
    let hit = cache_hit t th (line_of addr) version in
    if not hit then th.st.cache_misses <- th.st.cache_misses + 1;
    if charge then
      th.ready_at <-
        t.clock + t.cfg.Config.costs.load + (if hit then 0 else t.cfg.Config.costs.cache_miss);
    v
  end

let tso_read t th addr ~charge = tso_read_in t th (page t addr) addr ~charge

(* The write of an atomic RMW that read [cur] from [addr], in page [p];
   the read just tested the word's poison flag. *)
let rmw_write t th p addr ~cur v =
  write_through t th p addr v;
  if tracing t then emit t th (Ev_rmw { addr; old_value = cur; new_value = v })

(* TSO[S]: the buffer is full; the oldest entry must drain before a
   store can issue. *)
let buffer_full t th =
  match t.cfg.Config.consistency with
  | Config.Tso_spatial s -> th.buf.len >= s
  | Config.Sc | Config.Tso | Config.Tbtso _ | Config.Tbtso_hw _ -> false

(* A store instruction: committed at once under SC, else buffered until
   the scheduler's drain delay has passed. The one enqueue site. *)
let issue_store t th a v =
  th.st.stores <- th.st.stores + 1;
  let p = page t a in
  check_poison t th p a ~write:true;
  (match t.cfg.Config.consistency with
  | Config.Sc -> write_through t th p a v
  | Config.Tso | Config.Tbtso _ | Config.Tso_spatial _ | Config.Tbtso_hw _ as c ->
      let d = drain_delay t th in
      if th.buf.len = 0 then mark_busy t th;
      Store_buffer.enqueue th.buf ~addr:a ~value:v ~at:t.clock ~ready_at:(t.clock + d);
      let due =
        match c with
        | Config.Tbtso delta -> t.clock + delta
        | Config.Tbtso_hw { tau; _ } -> t.clock + tau
        | Config.Sc | Config.Tso | Config.Tso_spatial _ -> max_int
      in
      if due < t.deadline_next then t.deadline_next <- due);
  th.ready_at <- t.clock + t.cfg.Config.costs.store;
  if tracing t then emit t th (Ev_store { addr = a; value = v })

(* The first tick after now at which [th]'s core is due a timer
   interrupt. The clock never goes back, so the latest answer stays the
   answer until the clock reaches it, and the next one is a period later
   until the clock passes that too: only a jump past it divides. *)
let next_interrupt t th period =
  let x = th.irq_at in
  if t.clock < x then x
  else begin
    let x =
      if x > 0 && t.clock < x + period then x + period
      else begin
        let r = (t.clock - th.interrupt_phase) mod period in
        let r = if r < 0 then r + period else r in
        t.clock + (period - r)
      end
    in
    th.irq_at <- x;
    x
  end

(* Whether the machine may take [p]'s iterations at once, given that
   no store is buffered. Its latest iteration must have run every
   access and failed every test, with nothing written to memory since
   its first access and every access a cache hit: then each later
   iteration loads the same values and fails the same tests, hits the
   cache again, and writes nothing (a failed CAS writes nothing). Every
   step must also take a tick or more, so that each lands on the tick
   the one before it named. *)
let parked t p =
  p.waiting && p.clean && (not p.stores) && p.period > 0 && p.epoch = t.mem.Memory.writes

let access_addr p i =
  match p.steps.(i) with
  | Sim.Load (a, _) | Sim.Cas { addr = a; _ } | Sim.Store (a, _) -> a
  | Sim.Clock _ -> -1

(* A freed word must raise at the probe's next access. *)
let probes_freed t p =
  let freed = ref false in
  if t.cfg.Config.detect_uaf then
    for i = 0 to Array.length p.steps - 1 do
      let a = access_addr p i in
      if a >= 0 && Memory.is_poisoned t.mem a then freed := true
    done;
  !freed

(* Each probing thread is the last reader its loads record; two probes
   that share a line would take turns at it. *)
let share_a_line p q =
  let shared = ref false in
  for i = 0 to Array.length p.steps - 1 do
    let a = access_addr p i in
    if a >= 0 then
      for j = 0 to Array.length q.steps - 1 do
        let b = access_addr q j in
        if b >= 0 && line_of a = line_of b then shared := true
      done
  done;
  !shared

let parked_probe t th = match th.op with O_probe -> parked t th.probe | _ -> false

(* Take [th]'s parked probe through every whole iteration, counted from
   its next step, whose steps all land before tick [w]; leave it as the
   last of them would. *)
let advance_parked t th p ~w =
  let steps = p.steps and backoff = p.backoff in
  let len = iteration_length ~steps ~backoff in
  let next = Int.max th.ready_at (t.clock + 1) in
  (* The last step of an iteration counted from [next] is the one
     before [pc]; it lands [before] ticks before the next iteration. *)
  let before = step_ticks t.cfg.Config.costs ~steps ~backoff ((p.pc + len - 1) mod len) in
  let room = w - next + before - 1 in
  if room >= p.period then begin
    let k = room / p.period in
    th.ready_at <- next + (k * p.period);
    Array.iter
      (function
        | Sim.Load (a, _) ->
            th.st.loads <- th.st.loads + k;
            note_reader t th (page t a) a
        | Sim.Clock _ -> th.st.clock_reads <- th.st.clock_reads + k
        | Sim.Cas { addr; _ } ->
            th.st.rmws <- th.st.rmws + k;
            note_reader t th (page t addr) addr
        | Sim.Store _ -> assert false (* a probe with a store never parks *))
      steps
  end

(* Called at the end of a tick in which some probe iteration failed.
   When no store is buffered and every unfinished thread is either
   parked in its probe or does nothing before some tick W, nothing but
   the parked probes acts before W, and they only read: take each
   parked probe's whole iterations that land before W at once. W is
   the first of: a parked probe's deadline exit, an interrupt on any
   thread, another thread's next step, and the run's own deadline. The
   conditions are those under which a quiet tick changes nothing: no
   schedule noise (which draws from the RNG), no event hook (which
   sees every step), and no Tbtso_hw quiescence. *)
let skip_parked t =
  if
    t.skip_deadline > t.clock + 1
    && t.cfg.Config.jitter = 0.0
    && (not (tracing t))
    && match t.cfg.Config.consistency with
       | Config.Tbtso_hw _ -> false
       | Config.Sc | Config.Tso | Config.Tbtso _ | Config.Tso_spatial _ -> true
  then begin
    let w = ref t.skip_deadline and parked_count = ref 0 and i = ref 0 in
    while !i < t.nthreads && !w > t.clock + 1 do
      let o = t.threads.(!i) in
      incr i;
      if o.buf.len > 0 then w := min_int
      else if not o.finished then begin
        (match t.cfg.Config.interrupt_period with
        | Some period -> w := Int.min !w (next_interrupt t o period)
        | None -> ());
        if parked_probe t o then begin
          incr parked_count;
          w := Int.min !w o.probe.exit_by
        end
        else w := Int.min !w (Int.max o.ready_at (t.clock + 1))
      end
    done;
    (* Parked probes with no deadline and nothing else to wait for spin
       forever either way. *)
    if !w > t.clock + 1 && !w < max_int then begin
      let ok = ref true in
      for i = 0 to t.nthreads - 1 do
        let o = t.threads.(i) in
        if parked_probe t o then begin
          if probes_freed t o.probe then ok := false;
          if !parked_count > 1 then
            for j = i + 1 to t.nthreads - 1 do
              let q = t.threads.(j) in
              if parked_probe t q && share_a_line o.probe q.probe then ok := false
            done
        end
      done;
      if !ok then
        for i = 0 to t.nthreads - 1 do
          let o = t.threads.(i) in
          if parked_probe t o then advance_parked t o o.probe ~w:!w
        done
    end
  end

(* The probe's next step after its step at [pc] failed to exit. *)
let advance_probe t p =
  if p.pc = p.last_access then begin
    p.waiting <- true;
    t.probe_failed <- true
  end;
  let n = Array.length p.steps in
  if p.pc + 1 < n then p.pc <- p.pc + 1
  else if p.backoff > 0 then p.pc <- n
  else begin
    p.pc <- 0;
    p.slot <- 0
  end

(* The access at [p.pc] is about to run; the first of an iteration
   starts its record. *)
let begin_access t p =
  if p.pc = p.first_access then begin
    p.epoch <- t.mem.Memory.writes;
    p.clean <- true;
    p.waiting <- false
  end

let exit_probe th p = resume_thread th p.pc

let exec_probe t th p =
  let costs = t.cfg.Config.costs and n = Array.length p.steps in
  if p.pc = n then begin
    th.ready_at <- t.clock + p.backoff;
    p.pc <- n + 1;
    true
  end
  else if p.pc > n then begin
    p.pc <- 0;
    p.slot <- 0;
    true
  end
  else
    match p.steps.(p.pc) with
    | Sim.Load (a, exit_when) ->
        begin_access t p;
        let misses = th.st.cache_misses in
        let v = tso_read t th a ~charge:true in
        th.st.loads <- th.st.loads + 1;
        if th.st.cache_misses <> misses then p.clean <- false;
        if tracing t then emit t th (Ev_load { addr = a; value = v });
        p.vals.(p.slot) <- v;
        p.slot <- p.slot + 1;
        (match exit_when with
        | None -> advance_probe t p
        | Some test -> (
            match test p.vals with
            | true -> exit_probe th p
            | false -> advance_probe t p
            | exception e -> fail_thread th e));
        true
    | Sim.Clock deadline ->
        th.st.clock_reads <- th.st.clock_reads + 1;
        th.ready_at <- t.clock + costs.clock_read;
        if tracing t then emit t th (Ev_clock t.clock);
        (match deadline with
        | Some d when t.clock > d -> exit_probe th p
        | Some _ | None -> advance_probe t p);
        true
    | Sim.Cas { addr; expected; desired } ->
        if th.buf.len > 0 then try_drain t th ~respect_ready:false
        else begin
          begin_access t p;
          th.st.rmws <- th.st.rmws + 1;
          let misses = th.st.cache_misses in
          let pg = page t addr in
          let cur = tso_read_in t th pg addr ~charge:false in
          if th.st.cache_misses <> misses then p.clean <- false;
          th.ready_at <- t.clock + costs.cas;
          if cur = expected then begin
            rmw_write t th pg addr ~cur desired;
            exit_probe th p
          end
          else begin
            if tracing t then emit t th (Ev_rmw { addr; old_value = cur; new_value = cur });
            advance_probe t p
          end;
          true
        end
    | Sim.Store (a, value) ->
        if buffer_full t th then try_drain t th ~respect_ready:false
        else begin
          (match value p.vals with
          | v ->
              issue_store t th a v;
              advance_probe t p
          | exception e -> fail_thread th e);
          true
        end

(* Try to execute [th]'s pending instruction; returns true if the thread
   made progress this tick (including progress by draining towards a
   fence/RMW). *)
let exec t th =
  let costs = t.cfg.Config.costs in
  match th.op with
  | O_none -> false
  | O_load ->
      let a = th.a0 in
      let v = tso_read t th a ~charge:true in
      th.st.loads <- th.st.loads + 1;
      if tracing t then emit t th (Ev_load { addr = a; value = v });
      resume_thread th v;
      true
  | O_store ->
      if buffer_full t th then try_drain t th ~respect_ready:false
      else begin
        issue_store t th th.a0 th.a1;
        resume_thread th 0;
        true
      end
  | O_fence ->
      if th.buf.len = 0 then begin
        th.st.fences <- th.st.fences + 1;
        th.ready_at <- t.clock + costs.fence;
        emit t th Ev_fence;
        resume_thread th 0;
        true
      end
      else
        (* The memory subsystem must first empty the buffer; drains
           may in turn wait on line-ownership upgrades. *)
        try_drain t th ~respect_ready:false
  | O_cas | O_faa | O_xchg ->
      if th.buf.len > 0 then
        try_drain t th ~respect_ready:false
      else begin
        th.st.rmws <- th.st.rmws + 1;
        let a = th.a0 in
        let p = page t a in
        let cur = tso_read_in t th p a ~charge:false in
        let answer =
          match th.op with
          | O_cas ->
              if cur = th.a1 then begin
                rmw_write t th p a ~cur th.a2;
                1
              end
              else begin
                if tracing t then emit t th (Ev_rmw { addr = a; old_value = cur; new_value = cur });
                0
              end
          | O_faa ->
              rmw_write t th p a ~cur (cur + th.a1);
              cur
          | O_xchg ->
              rmw_write t th p a ~cur th.a1;
              cur
          | O_none | O_load | O_store | O_fence | O_clock | O_work | O_stall_until | O_complete
          | O_probe ->
              assert false
        in
        th.ready_at <- t.clock + costs.cas;
        resume_thread th answer;
        true
      end
  | O_clock ->
      th.st.clock_reads <- th.st.clock_reads + 1;
      th.ready_at <- t.clock + costs.clock_read;
      if tracing t then emit t th (Ev_clock t.clock);
      resume_thread th t.clock;
      true
  | O_work ->
      th.ready_at <- t.clock + th.a0;
      th.op <- O_complete;
      true
  | O_stall_until ->
      let target = th.a0 in
      let target = if target < 0 then t.clock - target else target in
      th.ready_at <- Int.max th.ready_at target;
      th.op <- O_complete;
      true
  | O_complete ->
      resume_thread th 0;
      true
  | O_probe -> exec_probe t th th.probe

let interrupt t th =
  (* A kernel entry drains the store buffer (Section 6.2). *)
  while th.buf.len > 0 do
    drain_one t th ~kind:D_interrupt
  done;
  (match t.interrupt_hook with
  | Some f -> f ~tid:th.tid ~now:t.clock
  | None -> ());
  th.ready_at <- Int.max th.ready_at (t.clock + t.cfg.Config.costs.interrupt)

let interrupt_due t th period = (t.clock - th.interrupt_phase) mod period = 0

(* Finished threads' cores still take interrupts while stores remain
   buffered. A core that cannot take one never can again: a finished
   thread's buffer only shrinks. *)
let takes_interrupts th = (not th.finished) || th.buf.len > 0

(* [x] if it is after [now] and before [best], else [best]. *)
let[@inline] earlier ~now best (x : int) = if x > now && x < best then x else best

(* Earliest future time at which anything can happen; used to fast-forward
   the clock through quiet periods (long stalls, Δ waits). *)
let next_event_time t =
  let now = t.clock in
  let best = ref (earlier ~now max_int t.quiesce_until) in
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    if not th.finished then best := earlier ~now !best th.ready_at;
    (let b = th.buf in
     if b.len > 0 then begin
       let s = b.head in
       best :=
         earlier ~now
           (earlier ~now !best (Array.unsafe_get b.ready_at s))
           (Array.unsafe_get b.rfo_until s);
       let enqueued_at = Array.unsafe_get b.enqueued_at s in
       match t.cfg.Config.consistency with
       | Config.Tbtso delta -> best := earlier ~now !best (enqueued_at + delta)
       | Config.Tbtso_hw { tau; _ } -> best := earlier ~now !best (enqueued_at + tau)
       | Config.Sc | Config.Tso | Config.Tso_spatial _ -> ()
     end);
    if takes_interrupts th then begin
      match t.cfg.Config.interrupt_period with
      | Some p -> best := earlier ~now !best (next_interrupt t th p)
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
           th.buf.len
           (match th.op with
           | O_none -> "none"
           | O_load -> "load"
           | O_store -> "store"
           | O_cas -> "cas"
           | O_faa -> "faa"
           | O_xchg -> "xchg"
           | O_fence -> "fence"
           | O_clock -> "clock"
           | O_work -> "work"
           | O_stall_until -> "stall"
           | O_complete -> "complete"
           | O_probe -> "probe"))
  done;
  Buffer.contents b

(* Phase 1: the timer interrupts due at this tick, then the next tick
   at which any core that can still take one is due: a bound that holds
   until [spawn] adds a core. *)
let take_interrupts t period =
  let acted = ref false and next = ref max_int in
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    if takes_interrupts th && interrupt_due t th period then begin
      interrupt t th;
      acted := true
    end;
    if takes_interrupts th then next := Int.min !next (next_interrupt t th period)
  done;
  t.irq_next <- !next;
  !acted

(* Phase 2 under TBTSO[Δ]: force-commit every entry past its deadline,
   then the next tick at which a buffered entry is due. *)
let force_delta t delta =
  let acted = ref false and next = ref max_int in
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    let b = th.buf in
    while b.len > 0 && Array.unsafe_get b.enqueued_at b.head + delta <= t.clock do
      drain_one t th ~kind:D_delta;
      acted := true
    done;
    if b.len > 0 then next := Int.min !next (Array.unsafe_get b.enqueued_at b.head + delta)
  done;
  t.deadline_next <- !next;
  !acted

(* Phase 2 under Tbtso_hw, outside quiescence: whether some buffered
   entry is past its timeout; if none is, the next tick one can be. *)
let any_expired t tau =
  let expired = ref false and next = ref max_int in
  for i = 0 to t.nthreads - 1 do
    let b = t.threads.(i).buf in
    if b.len > 0 then begin
      let due = Array.unsafe_get b.enqueued_at b.head + tau in
      if due <= t.clock then expired := true else next := Int.min !next due
    end
  done;
  if not !expired then t.deadline_next <- !next;
  !expired

(* Phase 4 starts at thread [clock mod nthreads]. A tick that follows
   the last one to ask steps the index on; any other tick (after a
   fast-forward, a drain that moved the clock, a quiescent tick or a
   spawn) divides once, or masks when [nthreads] is a power of two. *)
let[@inline] rotation t =
  let n = t.nthreads in
  if t.rot_at = t.clock - 1 then begin
    let r = t.rot + 1 in
    t.rot <- (if r = n then 0 else r)
  end
  else t.rot <- (if n land (n - 1) = 0 then t.clock land (n - 1) else t.clock mod n);
  t.rot_at <- t.clock;
  t.rot

(* A thread whose body returned finishes once its trailing work has
   elapsed. *)
let complete t th =
  th.ready_at <= t.clock
  && begin
       th.done_pending <- false;
       th.finished <- true;
       t.unfinished <- t.unfinished - 1;
       true
     end

(* A tick does the work due at it: each phase first checks a bound on
   when it next has any (see [irq_next], [deadline_next], [busy]). *)
let tick t ~deadline =
  t.clock <- t.clock + 1;
  let acted = ref false in
  (* Phase 1: timer interrupts. *)
  if t.clock >= t.irq_next then begin
    match t.cfg.Config.interrupt_period with
    | Some p -> if take_interrupts t p then acted := true
    | None -> ()
  end;
  (* Phase 2: Δ-deadline forced drains (the TBTSO invariant). *)
  (match t.cfg.Config.consistency with
  | Config.Tbtso delta -> if t.clock >= t.deadline_next && force_delta t delta then acted := true
  | Config.Tbtso_hw { tau; quiesce } ->
      (* The Section 6.1 bail-out: if any store has been buffered past
         its timeout, force system-wide quiescence. While quiescent no
         thread executes; at the end of the window every buffered store
         has propagated. *)
      if t.clock = t.quiesce_until then begin
        (* Quiescence complete: the pause let every store reach memory. *)
        for i = 0 to t.nthreads - 1 do
          let th = t.threads.(i) in
          while th.buf.len > 0 do
            (* Quiescence is the Tbtso_hw τ-deadline obligation. *)
            drain_one t th ~kind:D_delta
          done
        done;
        acted := true
      end
      else if t.quiesce_until < t.clock && t.clock >= t.deadline_next && any_expired t tau
      then begin
        t.quiesce_until <- t.clock + quiesce;
        t.quiescence_events <- t.quiescence_events + 1;
        acted := true
      end
  | Config.Sc | Config.Tso | Config.Tso_spatial _ -> ());
  let quiescing =
    match t.cfg.Config.consistency with
    | Config.Tbtso_hw _ -> t.clock < t.quiesce_until
    | Config.Sc | Config.Tso | Config.Tbtso _ | Config.Tso_spatial _ -> false
  in
  (* Phase 3: one voluntary drain (or RFO) per thread with buffered
     stores, in tid order. A drain that empties a buffer removes its
     thread from [busy], moving the next one into its place. *)
  let i = ref 0 in
  while !i < t.nbusy do
    let tid = t.busy.(!i) in
    if try_drain t t.threads.(tid) ~respect_ready:true then acted := true;
    if !i < t.nbusy && t.busy.(!i) = tid then incr i
  done;
  (* Phase 4: one instruction per runnable thread, rotating priority.
     The two loops differ only in the schedule-noise draw. *)
  let n = t.nthreads in
  if n > 0 && not quiescing then begin
    let threads = t.threads and jitter = t.cfg.Config.jitter in
    let j = ref (rotation t) in
    if jitter > 0.0 then
      for _ = 1 to n do
        let th = threads.(!j) in
        incr j;
        if !j = n then j := 0;
        if th.done_pending && not th.finished then (if complete t th then acted := true)
        else if (not th.finished) && th.ready_at <= t.clock then
          if Rng.float t.rng < jitter then
            (* Skipped by schedule noise, but still runnable: counts as
               activity so the clock is not fast-forwarded over it. *)
            acted := true
          else if exec t th then acted := true
      done
    else
      for _ = 1 to n do
        let th = threads.(!j) in
        incr j;
        if !j = n then j := 0;
        if th.done_pending && not th.finished then (if complete t th then acted := true)
        else if (not th.finished) && th.ready_at <= t.clock && exec t th then acted := true
      done
  end;
  if t.probe_failed then begin
    t.probe_failed <- false;
    skip_parked t
  end;
  if not !acted then begin
    let next = next_event_time t in
    if next = max_int then raise (Deadlock (describe_stuck t))
    else
      (* Fast-forward to just before the next event, but never past the
         caller's deadline: [run ~max_ticks] must report [Max_ticks] with
         the clock at the deadline, not at some event beyond it. *)
      t.clock <- Int.min (next - 1) deadline
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
      if th.buf.len > 0 then begin
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
  let finish () =
    exit_drain t;
    All_finished
  in
  match stop_when with
  | None ->
      t.skip_deadline <- deadline;
      let rec loop () =
        if t.unfinished = 0 then finish ()
        else if t.clock >= deadline then Max_ticks
        else begin
          tick ~deadline t;
          loop ()
        end
      in
      loop ()
  | Some stopped ->
      t.skip_deadline <- min_int;
      let rec loop () =
        if t.unfinished = 0 then finish ()
        else if t.clock >= deadline then Max_ticks
        else if stopped t then Stop_condition
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
        (* Discontinue the kept continuation: Sim.Killed unwinds the
           thread body and is absorbed by the handler's exnc. *)
        th.op <- O_none;
        Effect.Deep.discontinue th.k Sim.Killed;
        th.failure <- None
      end
    end
  done

let drain_all t =
  t.clock <- t.clock + 1;
  for i = 0 to t.nthreads - 1 do
    let th = t.threads.(i) in
    while th.buf.len > 0 do
      drain_one t th ~kind:D_exit
    done
  done
