(** The TBTSO[Δ] abstract machine (Section 2 of the paper).

    A machine owns a simulated memory, a global clock and a set of
    threads. Threads are OCaml functions using the {!Sim} instruction set;
    the machine schedules one abstract-machine action per thread per tick:

    - execute the thread's next instruction (load / store / RMW / fence /
      clock read / local work), or
    - have the memory subsystem dequeue the oldest entry of the thread's
      store buffer and commit it to memory.

    {b Tick granularity vs the checker.} This machine is deliberately
    {i coarser} than the paper's (and {!Litmus}'s) one-action-per-tick
    abstract machine: within a single tick it may take a timer
    interrupt, force Δ-expired commits, perform one voluntary drain per
    thread {i and} execute one instruction per runnable thread. The gap
    is in the conservative direction for every property this repo
    claims: extra same-tick drains only make stores visible {i earlier},
    so the Δ invariant (a store enqueued at [t0] is in memory by
    [t0 + Δ], checked here as [max_residency <= Δ]) is preserved, while
    any relaxed-order outcome this machine can sample is also reachable
    by the checker's one-action-per-tick interleavings (stretch each
    busy tick into consecutive ticks; TSO ordering constraints only ever
    relax when actions move later). The converse does not hold — the
    checker explores drain schedules this machine's scheduler would
    never sample — which is exactly why the checker, not the simulator,
    is the proof tool. Checker traces therefore cannot be replayed
    tick-for-tick on this machine without first serializing each tick's
    phases (see ROADMAP).

    Consistency modes:
    - [Sc]: stores commit immediately (store buffer bypassed);
    - [Tso]: stores drain after a scheduler-sampled delay, with no bound —
      under [Drain_adversarial] a store can starve forever;
    - [Tbtso delta]: like [Tso], but any entry older than [delta] ticks is
      force-committed at the start of the tick, establishing the paper's
      invariant that a store enqueued at [t0] is in memory by [t0 + Δ].

    {b What a tick visits.} A tick's phases run in order — timer
    interrupts, Δ (or [Tbtso_hw] τ) deadline drains, one voluntary
    drain per thread, one instruction per thread from a rotating start
    — and each first checks a bound on when it next has work, so that
    a tick costs what is due at it:
    - interrupts run only from the least next interrupt tick over the
      cores that can still take one (an unfinished thread's, or a
      finished one's while its buffer holds stores). The bound is
      recomputed whenever interrupts run, and [spawn] resets it. It
      stays a lower bound because a core that cannot take interrupts
      never can again: a finished thread's buffer only shrinks;
    - deadline drains (or [Tbtso_hw]'s expiry scan) run only from the
      least [enqueue time + Δ] over buffered entries. The one enqueue
      site lowers the bound; the tick that checks the deadlines
      recomputes it. Drains only remove entries, so it stays a lower
      bound;
    - voluntary drains visit only the threads whose buffers hold
      stores, in ascending tid order: a set kept at the one enqueue
      site (a store instruction) and the one dequeue site (a commit);
    - instructions start at thread [clock mod n] for [n] threads. The
      index is stepped on from one tick to the next, and divided
      afresh (or masked, when [n] is a power of two) only on a tick
      that does not follow the last one computed: after a
      fast-forward, a quiescent tick or a [spawn]. Each core's next
      interrupt tick is kept the same way: it divides only when the
      clock has jumped a period or more past the tick it kept.
    Every phase then does exactly what visiting every thread at every
    tick would: the same commits, interrupts, instructions and random
    draws, in the same order.

    {b Instruction hand-off.} A thread's {!Sim} call performs an effect
    whose operands are unboxed constructor arguments and whose answer
    is an [int]. The handler writes the opcode (an immediate constant
    constructor) and up to three int operands into the thread's own
    fields, keeps the continuation in one field, and returns; the tick
    that executes the instruction resumes the continuation with the
    int answer ([Sim.cas] turns 1/0 into a bool on the thread's side).
    A {!Sim.probe} is the one instruction with a record, built once per
    probe. Performing an instruction thus allocates only the effect and
    its continuation: 5 minor words per load ([E_load a], 3, and the
    continuation, 2) and 6 per store ([E_store (a, v)], 4, and the
    continuation); a buffered store is a slot of {!Store_buffer}'s int
    arrays, not a record. Each access looks the word's page up once, in
    the machine's own code: it tests the address against the memory's
    size and indexes {!Memory.t}'s page table, going to {!Memory.page}
    only for an address outside memory, which raises. It then reads the
    poison flag, the word, the reader record and the line version from
    the page and probes the thread's direct-mapped cache (two int
    arrays: per set, the line held and its version then) inline; a
    commit tests poison, writes and reads the new version through one
    lookup too. *)

type t

type stop_reason =
  | All_finished
  | Max_ticks
  | Stop_condition  (** The [stop_when] predicate fired. *)

exception Thread_failure of { tid : int; exn : exn }
(** A thread body raised (other than {!Sim.Killed}). *)

exception Deadlock of string
(** No thread can ever act again, yet not all threads finished. *)

type thread_stats = {
  loads : int;
  stores : int;
  rmws : int;
  fences : int;
  clock_reads : int;
  cache_misses : int;
  drains : int;  (** Entries committed from this thread's buffer (total). *)
  forced_drains : int;
      (** Of which committed by a model obligation: the Δ deadline, a
          timer interrupt's kernel entry, or a [Tbtso_hw] quiescence. *)
  exit_drains : int;
      (** Of which committed by end-of-run cleanup ({!drain_all}, or the
          implicit drain when every thread has finished) rather than
          during execution. Voluntary, scheduler-paced drains are
          [drains - forced_drains - exit_drains]. *)
  max_residency : int;
      (** Exact maximum store-buffer residency: the largest
          [commit time - enqueue time] over every entry this thread ever
          committed, regardless of drain kind. Under [Config.Tbtso delta]
          the machine guarantees [max_residency <= delta] — the paper's
          Δ invariant as a one-line assertion. Under plain [Tso] with
          [Drain_adversarial] it is unbounded (grows with run length).
          0 if the thread never committed a store. *)
}

type drain_kind =
  | D_voluntary  (** The memory subsystem's own pace. *)
  | D_delta  (** A model obligation: the Δ deadline, or a [Tbtso_hw] τ
                 quiescence. *)
  | D_interrupt  (** A timer interrupt's kernel entry (Section 6.2). *)
  | D_exit  (** End-of-run cleanup. *)

val drain_kind_name : drain_kind -> string

val drain_kinds : drain_kind list

val create : Config.t -> t

val config : t -> Config.t

val memory : t -> Memory.t

val now : t -> int
(** Current global clock (readable from driver code at zero cost). *)

val spawn : t -> (unit -> unit) -> int
(** Register a thread; returns its tid. The body runs up to its first
    instruction immediately. Must be called before {!run}. *)

val thread_count : t -> int

val run : ?max_ticks:int -> ?stop_when:(t -> bool) -> t -> stop_reason
(** Drive the machine until every thread finishes, [max_ticks] elapse, or
    [stop_when] holds. On [Max_ticks] the clock is exactly the deadline:
    quiet-period fast-forwarding never jumps past it.

    [stop_when] is checked after every stepped tick and where a
    fast-forward lands, not at every tick of the clock: a clock
    predicate such as [now m >= n] can fire past tick [n]. Bound a
    benchmark's measured phase with
    [run ~max_ticks:(run_ticks - now m) m] instead: the stop is exact,
    and probes can skip (below), which a [stop_when] forbids.

    {b Skipping parked probes.} A {!Sim.probe} (and so a {!Sim.await})
    is {i parked} when its latest iteration ran every access and failed
    every test, nothing has been written to memory since that
    iteration's first access, every access of it hit the cache, and
    every step of an iteration takes a tick or more; a probe with a
    [Store] step never parks. Each later iteration then loads the same
    values, fails the same tests, hits the cache again and writes
    nothing: a failed CAS writes nothing.
    At the end of a tick in which some probe iteration failed, when no
    store is buffered anywhere and every unfinished thread is either
    parked or does nothing before some tick W, the machine takes each
    parked probe's whole iterations whose steps land before W at once,
    without calling its tests. W is the first of: a parked probe's
    deadline exit ([deadline + 1], so every skipped clock read fails),
    an interrupt on any thread, another thread's next step, and the
    run's own deadline. It does so only when the run has no
    [stop_when], no event hook is set, [jitter] is 0, the mode is not
    [Tbtso_hw], no probed word has been freed, and no two parked probes
    touch a common line (each probe's loads would take turns at being
    the line's last reader). Results, clock and statistics are those
    of stepping each iteration; only the tests' call counts differ.
    @raise Thread_failure if a thread body raises.
    @raise Memory.Use_after_free on a detected access to freed memory.
    @raise Deadlock if no progress is possible. *)

val request_stop : t -> unit
(** Make {!Sim.stopping} return true in all threads, letting benchmark
    loops wind down voluntarily. *)

val kill_remaining : t -> unit
(** Unwind every unfinished thread with {!Sim.Killed} (releasing their
    fibers). Call after a bounded run that abandoned infinite loops. *)

val stats : t -> int -> thread_stats
(** Per-thread statistics (by tid). *)

val total_stats : t -> thread_stats
(** Sums across threads; [max_residency] is the maximum. *)

val residency : t -> int -> Tbtso_obs.Hist.t
(** [residency t tid]: snapshot of the thread's store-buffer residency
    distribution (age of each entry when it committed), all drain kinds
    merged. Buckets span the model's own ceiling (Δ, or τ + quiescence)
    when it has one; [Hist.max_value] is always exact. *)

val residency_by_kind : t -> int -> drain_kind -> Tbtso_obs.Hist.t
(** Snapshot restricted to commits of one {!drain_kind}, e.g. to see how
    much of the distribution the Δ deadline (rather than the scheduler)
    is responsible for. *)

val alloc_global : t -> int -> int
(** Convenience for [Memory.alloc_global (memory t)]. *)

val set_interrupt_hook : t -> (tid:int -> now:int -> unit) -> unit
(** Invoked on every timer interrupt (requires
    [config.interrupt_period = Some _]); used by the Section 6.2 OS
    adaptation to stamp the per-core time array. *)

val set_label_hook : t -> (tid:int -> now:int -> string -> unit) -> unit
(** Receives {!Sim.label} markers, e.g. for trace assertions in tests. *)

type event =
  | Ev_load of { addr : int; value : int }
  | Ev_store of { addr : int; value : int }
  | Ev_rmw of { addr : int; old_value : int; new_value : int }
  | Ev_fence
  | Ev_clock of int
  | Ev_commit of { addr : int; value : int; age : int; kind : drain_kind }
      (** A buffered store reached memory, [age] ticks after its store
          instruction executed. Fires for every commit, including
          forced and end-of-run drains. *)

val set_event_hook : t -> (tid:int -> now:int -> event -> unit) -> unit
(** Invoked for every executed instruction and every store-buffer commit
    (see {!Trace} for the ready-made recorder). One branch of overhead
    per instruction when unset. *)

val quiescence_events : t -> int
(** Number of Section 6.1 bail-outs so far (only under
    [Config.Tbtso_hw]): each one paused the whole system to let a
    starving store propagate. *)

val drain_all : t -> unit
(** Force-commit every buffered store of every thread, advancing the
    clock by one tick. Driver-side helper for test setup/teardown. *)
