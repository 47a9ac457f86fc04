(** Exhaustive litmus-test checker.

    Enumerates {e every} interleaving of straight-line multi-threaded
    programs under SC, TSO and TBTSO[Δ], including every legal store-buffer
    drain schedule, and returns the set of reachable final outcomes.
    This is the tool used to {e prove} (for bounded programs) statements
    such as "the TBTSO flag principle never loses both flags", rather than
    merely sampling schedules as the {!Machine} does.

    Time is interleaving time: each action (instruction execution,
    store-buffer drain, or idle tick while some thread waits) advances the
    global clock by exactly one unit, matching the paper's abstract
    machine where at most one action executes per time unit. Under
    TBTSO[Δ] any execution in which a buffered store cannot be drained by
    its [enqueue + Δ] deadline is pruned, which is exactly the paper's
    admissibility condition.

    {b Tick granularity vs the simulator.} The {!Machine} simulator is
    coarser: one of its ticks can take an interrupt, force Δ-expired
    commits and let every thread both drain and execute. The directions
    are deliberately conservative on both sides — this checker's
    one-action-per-tick interleavings are a superset of the orderings
    the machine's scheduler can sample (stretch any busy machine tick
    into consecutive checker ticks), so an invariant proved here covers
    every machine run; while the machine's extra same-tick drains only
    commit stores {i earlier} than the paper's machine would, so its
    measured residencies under-approximate no Δ deadline. The price is
    that checker time and machine time are not unit-compatible: a
    checker trace replayed on the machine must first serialize each
    machine tick's phases. See {!Machine} and ROADMAP.

    The checker is an iterative explicit-state explorer in three
    parts: {!Arena} packs and hash-conses states, {!Independence}
    computes footprints and sleep sets, and this module keeps the
    semantics — the per-(thread, pc) tables, aging, zone
    canonicalization, state expansion and the worklist loop. Four
    scaling devices, all of which preserve the outcome set exactly:

    - {b time-leap aging} (here): instead of idling one tick at a time
      through a quiet stretch (every unfinished thread mid-wait), the
      explorer jumps straight to the next wakeup.
    - {b zone canonicalization} (here): every state's live timers —
      wake timers from waits, deadline timers from store slacks — are
      mapped to their canonical {!Zone} representative: deadlines
      beyond the remaining horizon saturate to "no deadline", and the
      finite timers are base/gap-clamped at a Δ-{e independent} cap
      ([2 + remaining actions + unstarted wait mass]) that preserves
      every observable difference (see {!Zone} for the argument). This
      is what makes the explored state count for deadline-vs-wait races
      (the flag protocol with wait ≈ Δ) flat in Δ instead of linear,
      and paper-scale bounds (Δ = 500 and far beyond) checkable.
    - {b hash-consed states} ({!Arena}): canonical states are
      interned into a dense id space at push time (FNV-1a over an
      integer encoding); the worklist and the hot dedup path then work
      on ids.
    - {b sleep sets over drains {e and} instructions} ({!Independence}):
      after exploring one order of an independent action pair the
      reversed order is never explored. Independence covers drain/drain
      (distinct threads, distinct addresses), drain/instruction (the
      instruction's read/write footprint — refined by store-buffer
      forwarding — misses the drained address) and
      instruction/instruction (disjoint footprints), each with an exact
      reversed-order-feasibility guard on the drained entry's slack;
      instructions that start a fresh timer (TBTSO stores, waits)
      commute with nothing and are excluded.

    {!enumerate_reference} retains the original recursive tick-by-tick
    enumerator as a differential-testing oracle. *)

type mode =
  | M_sc
  | M_tso
  | M_tbtso of int
  | M_tsos of int
      (** TSO[S] (Morrison & Afek 2014): buffer capacity [s], no
          temporal bound — the paper's Section 8 comparison model. *)

type instr =
  | Store of int * int  (** [Store (addr, v)] *)
  | Load of int * int  (** [Load (addr, reg)] — result into a register. *)
  | Loadeq of int * int * int
      (** [Loadeq (addr, v, skip)] — load; if the value equals [v], skip
          the next [skip] instructions (minimal conditional support). *)
  | Fence  (** Executable only once the thread's buffer is empty. *)
  | Wait of int  (** Block for at least [n] time units. *)
  | Cas of int * int * int * int
      (** [Cas (addr, expected, desired, reg)] — atomic compare-and-swap;
          drains the buffer first (x86 locked-op semantics); [reg] gets
          1 on success, 0 on failure. *)

type outcome = {
  regs : int array array;  (** Final registers, [regs.(tid).(r)]. *)
  mem : int array;  (** Final memory, all buffers drained. *)
}

type stats = {
  visited : int;  (** Distinct states expanded. *)
  dedup_hits : int;  (** Arrivals at an already-covered state. *)
  canon_hits : int;
      (** Pushes whose canonical state was already interned in the
          hash-consed store (id reuse, no re-encoding on pop). *)
  zones_merged : int;
      (** Canonicalizations that actually rewrote a timer — i.e.
          distinct concrete counter vectors merged into one zone
          representative. *)
  max_frontier : int;  (** Peak worklist depth. *)
  time_leaps : int;  (** Multi-tick idle jumps taken. *)
  sleep_skips : int;  (** Actions pruned by the sleep sets. *)
  elapsed : float;  (** CPU seconds spent exploring. *)
}

type result = {
  outcomes : outcome list;  (** Deduplicated and sorted. *)
  complete : bool;
      (** [false] when [max_states] was reached: [outcomes] is then the
          (sound but possibly incomplete) set found so far. *)
  stats : stats;
}

val default_max_states : int
(** 2 million states. *)

val validate : who:string -> addrs:int -> regs:int -> instr list list -> unit
(** @raise Invalid_argument (message prefixed by [who]) on a negative
    [Wait] duration or [Loadeq] skip, an address outside [[0, addrs)]
    or a register outside [[0, regs)]. Every oracle calls it first. *)

val explore :
  mode:mode ->
  ?addrs:int ->
  ?regs:int ->
  ?max_states:int ->
  ?profiler:Tbtso_obs.Span.t ->
  instr list list ->
  result
(** All reachable outcomes, with exploration statistics. [addrs] and
    [regs] default to 4. Never raises on state-budget exhaustion: a
    partial exploration is reported through [complete = false].
    @raise Invalid_argument on a program {!validate} rejects.

    [profiler] (default disabled) accumulates the per-phase wall-time
    breakdown into the [explore.expand] / [explore.canon] /
    [explore.intern] / [explore.sleep] phases — [expand] is inclusive
    of the other three; items count expansions, canonicalizations,
    hash-cons probes and sleep-set computations. Profiling never
    affects the exploration itself: outcome sets and statistics are
    identical whether the profiler is enabled, disabled or absent.

    The one-shot form of {!explore_in}: it builds a {!scratch} for this
    call alone. *)

type scratch
(** An explorer's per-program buffers: the {!Arena} (key store, intern
    table and per-id arrays), the scratch states, and the zone and
    worklist buffers. All of them depend on the program and its [addrs]
    and [regs] alone, not on the mode, so a caller that explores one
    program under several modes (as {!Litmus_fanout.check} does for
    each file) builds them once. Not thread-safe: one exploration at a
    time, on one domain. Nothing outlives the scratch; drop it with the
    program. *)

val scratch : ?addrs:int -> ?regs:int -> instr list list -> scratch
(** Buffers for exploring the program; [addrs] and [regs] default to
    4, as in {!explore}.
    @raise Invalid_argument on a program {!validate} rejects. *)

val explore_in :
  scratch ->
  mode:mode ->
  ?max_states:int ->
  ?profiler:Tbtso_obs.Span.t ->
  unit ->
  result
(** [explore_in sc ~mode ()] is [explore ~mode] over [sc]'s program,
    reusing its buffers: the same outcomes, [complete] flag and
    counters (all but [elapsed]) whatever explorations ran on [sc]
    before, in any mode order and whether or not they were cut by
    [max_states]. Each call first empties the arena in O(states the
    previous exploration interned), not O(capacity), so a small
    exploration after a large one pays nothing for the large one's
    table. *)

val enumerate :
  mode:mode ->
  ?addrs:int ->
  ?regs:int ->
  ?max_states:int ->
  instr list list ->
  outcome list
(** [(explore ...).outcomes], for callers that only want the set.
    @raise Failure if more than [max_states] (default
    {!default_max_states}) distinct states are visited. *)

val enumerate_reference :
  mode:mode ->
  ?addrs:int ->
  ?regs:int ->
  ?max_states:int ->
  instr list list ->
  outcome list
(** The original recursive, tick-by-tick, string-keyed enumerator, kept
    as the differential-testing oracle for {!explore}: both must return
    the identical outcome set on every program. Needs stack and state
    space linear in wait durations and Δ, so only suitable for small
    bounds. @raise Failure as {!enumerate}.
    @raise Invalid_argument as {!explore}. *)

val exists : outcome list -> (outcome -> bool) -> bool

val for_all : outcome list -> (outcome -> bool) -> bool

val pp_outcome : Format.formatter -> outcome -> unit

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering of exploration statistics. *)

val states_per_sec : stats -> float
(** [visited / elapsed]; 0 when the exploration was too fast to time. *)

val stats_json : stats -> Tbtso_obs.Json.t
(** Flat object with every {!stats} field plus [states_per_sec]. *)

val record_stats : Tbtso_obs.Metrics.t -> stats -> unit
(** Accumulate one exploration into a registry: counters
    [litmus.states_visited], [litmus.dedup_hits], [litmus.canon_hits],
    [litmus.zones_merged], [litmus.time_leaps], [litmus.sleep_skips]
    and [litmus.explorations] sum across calls;
    gauges [litmus.max_frontier] and [litmus.peak_states_per_sec] keep
    high watermarks; gauge [litmus.elapsed_s] sums exploration CPU
    time. Lets a driver checking many (file, mode) pairs report
    aggregate throughput through {!Tbtso_obs.Metrics.to_json}. *)
