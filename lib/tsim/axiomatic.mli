(** Axiomatic (SAT-based) second oracle for the litmus checker.

    {!Litmus.explore} and {!Litmus.enumerate_reference} are both
    {e operational}: they walk interleavings of an explicit
    store-buffer machine, and they share authorship and the state-space
    view, so a common blind spot would go unnoticed. This module answers
    the same question — the exact reachable outcome set of a litmus
    program under a memory mode — from a structurally disjoint angle: it
    compiles the program into a {e declarative} constraint system over
    integer action times and read-from choices, and has a CDCL SAT
    solver ({!Tbtso_sat.Solver}) enumerate the models.

    {2 The encoding}

    The operational model advances a global clock by one tick per action
    (instruction, drain, or idle). The encoding assigns every action a
    time slot in [1..H]:

    - each instruction position gets an {e issue} time [X]; each store
      position additionally gets a {e commit} (drain) time [C] (CAS
      writes memory directly, so its write aliases its issue);
    - [Loadeq] control flow lives {e inside} the formula: one branch
      literal per [Loadeq] (true ⟺ the read matched), executed
      literals [ex(i,k)] defined from them by the control DAG, and
      every program-order, store-buffer and read-from constraint
      guarded by the [ex] of the positions it mentions. Events of
      unexecuted positions are unconstrained phantoms that park in
      leftover slots;
    - all action times are pairwise distinct (one action per tick),
      via order-encoded integers (booleans [T ≤ t] with ladder clauses)
      and reified comparison literals;
    - program order: along every executed control edge,
      [X' ≥ X + 1], and [X' ≥ X + d + 1] after [Wait d];
    - store buffers are FIFO: same-thread commits in program order;
    - mode axioms are {e activation literals} passed as assumptions:
      the base formula is TSO ([C > X]); a grid literal [a(Δ)] adds
      [C ≤ X + Δ] (the paper's temporal drain bound, TBTSO[Δ]), with
      [a(Δ) → a(Δ')] for [Δ < Δ'] chaining the grid; SC is the
      [Δ = 1] point (with one action per tick the commit takes the
      very next slot, which is observationally SC); [cap(S)] adds the
      TSO[S] capacity condition; fence-site selectors [f(i,k)] force
      store [k] to commit before the thread's next instruction;
    - [Fence]/[Cas] require every program-order-earlier same-thread
      store to have committed ([C < X]);
    - each read takes its value from its thread's newest executed
      still-buffered same-address store (forwarding) if one exists,
      else from the co-latest committed write before it, else the
      initial 0 — an exactly-one read-from choice whose side
      conditions are [ex]-guarded;
    - the final value of a register is chosen by dynamic last-writer
      literals (the last {e executed} load/CAS writing it), and final
      memory by co-latest-write literals.

    The idle-tick rule ("idle only while some thread waits") needs no
    clauses: any satisfying time assignment with uncovered gaps
    compresses — by deleting slots not occupied by an executed event
    and not covered by an executed wait — to a valid operational
    execution with the same outcome, and conversely every operational
    execution of length ≤ H embeds directly, with
    H = Σ (instructions + stores) + Σ wait durations.

    {2 Incremental sessions}

    A {!session} owns one solver for the program's single formula and
    serves any number of queries against it: outcome enumeration per
    mode ({!enumerate_session}), and robustness ({!robust}) — is the
    mode's outcome set equal to the SC set? Enumeration solves under
    [mode activation + a fresh query guard] with blocking clauses over
    the observable literals hung off the guard; when the query ends
    the guard is retired ({!Tbtso_sat.Solver.retire}, which drops
    exactly what a unit plus a full {!Tbtso_sat.Solver.simplify} sweep
    would, usually without the sweep), so mode-independent learned
    clauses survive into the next query while query-local clauses are
    reclaimed. Robustness needs no second enumeration: the SC set is
    blocked once behind a persistent guard, and a single [solve] under
    [mode activation + SC guard] decides containment (SC ⊆ mode holds
    by construction for every mode the grid can express) — a model is a
    witness outcome beyond SC. This is what makes Δ-sweeps and
    minimal-Δ binary searches (see {!Adviser}) cheap: one formula,
    retained learned clauses, O(log H) incremental queries.

    {2 Answer reuse}

    The outcome sets nest: SC ⊆ TBTSO[Δ] ⊆ TBTSO[Δ'] ⊆ TSO for
    Δ ≤ Δ', TSO[S] ⊆ TSO, and adding fences only removes executions.
    The formula mirrors this (the Δ grid's activation literals are
    chained), so a session keeps every answer with its mode and fences
    and seeds a new query with the union of the earlier answers whose
    formula the query's includes: an earlier answer counts when its
    fence set contains the query's and its mode is below the query's —
    a Δ (SC being Δ = 1, and Δ ≥ H being TSO) no larger than the
    query's Δ, anything when the query is TSO, and for a TSO[S] query
    only TSO[S] answers with the same S. The seeds are blocked under
    the query guard before the first solve, so a query makes one solve
    per {e new} outcome plus the closing UNSAT one. A query whose mode
    and fence set equal those of an earlier complete answer (TBTSO[1]
    after SC, say, or any repeat) returns that answer with no solve;
    so does a query whose seeds alone reach [max_outcomes] (it returns
    the first [max_outcomes] of them, incomplete). The [seeded] stats
    field counts the outcomes that came from earlier answers; for a
    complete query [solves = outcomes − seeded + 1], and [solves = 0]
    for a cached one. Complete answers are exactly those of a fresh
    session.

    The module deliberately shares no exploration code with
    {!Litmus}: it reuses only the instruction AST and the
    {!Litmus.outcome} type, so the two oracles can disagree — which is
    exactly what [tbtso-litmus check --oracle both] tests for. *)

(** Solver statistics. In a {!result} of {!enumerate_session} the work
    counters ([solves], [conflicts], [decisions], [propagations],
    [restarts]) and [outcomes] / [elapsed] cover that one query only, so
    the results of several queries on one shared session can be summed
    (into a registry, say) without counting earlier queries again;
    [vars], [clauses] and [learned] are snapshots of the session's
    formula after the query. {!session_stats} gives the session's
    lifetime totals. *)
type stats = {
  paths : int;
      (** Loadeq path combinations covered by the (single) formula. *)
  vars : int;  (** SAT variables in the session's solver. *)
  clauses : int;
      (** Problem clauses currently live. Clauses satisfied by a root
          unit the search learned are not, so on a shared session this
          snapshot depends on the search, not only on the formula. *)
  solves : int;
      (** Solver calls: [outcomes − seeded + 1] for a complete
          enumeration, [outcomes − seeded] for one cut by
          [max_outcomes], 0 for a cached one. *)
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;  (** Learned clauses currently retained. *)
  restarts : int;
  outcomes : int;  (** Distinct outcomes found. *)
  seeded : int;
      (** Outcomes taken from the session's earlier answers rather than
          found by a solve (see {e Answer reuse} above); 0 for a fresh
          session's first query. *)
  elapsed : float;
      (** CPU seconds spent solving; {!explore}'s also include the
          encode. *)
}

type result = {
  outcomes : Litmus.outcome list;  (** Deduplicated and sorted. *)
  complete : bool;
      (** [false] when [max_outcomes] was reached: [outcomes] is then
          a sound but possibly incomplete set. *)
  stats : stats;
}

val default_max_outcomes : int
(** 65536 outcomes. *)

(** {1 Incremental session API} *)

type session
(** One program, one formula, one long-lived solver. *)

val session :
  ?addrs:int -> ?regs:int -> ?profiler:Tbtso_obs.Span.t ->
  Litmus.instr list list -> session
(** Compile the program once. [addrs] and [regs] default to 4 and size
    the outcome arrays exactly like {!Litmus.explore}.

    [profiler] (default disabled) accumulates the formula build into
    the [sat.encode] phase (items = clauses) and is attached to the
    underlying solver ({!Tbtso_sat.Solver.set_profiler}), so queries
    fill the [sat.propagate] / [sat.analyze] / [sat.simplify] phases —
    their item counts are propagations, conflicts and reclaimed
    clauses, giving per-second rates directly from the phase totals.
    @raise Invalid_argument on a program {!Litmus.validate} rejects. *)

val horizon : session -> int
(** The time horizon [H]. [M_tbtso Δ] with [Δ ≥ H] is indistinguishable
    from TSO, so [H] bounds every meaningful Δ query. *)

val path_combinations : session -> int
(** Number of Loadeq path combinations the formula covers (the
    [paths] stats field). *)

val fence_sites : session -> (int * int) list
(** [(thread, position)] of every store that has a program-order-later
    instruction — the candidate sites for {!enumerate_session}'s and
    {!robust}'s [?fences]. *)

val enumerate_session :
  session ->
  ?fences:(int * int) list ->
  ?max_outcomes:int ->
  Litmus.mode ->
  result
(** All reachable outcomes under the mode (and the given fences),
    by incremental SAT enumeration seeded with the session's earlier
    answers (see {e Answer reuse}). Blocking clauses are hung off a
    per-query guard and reclaimed when the query ends; learned clauses
    that do not depend on them are retained for later queries. The
    result's work counters are this query's alone (see {!stats}): over
    a session that only serves [enumerate_session] queries they sum to
    {!session_stats}'s. With [max_outcomes] reached the result is
    incomplete with exactly [max 1 max_outcomes] outcomes, as for a
    fresh session, though possibly a different subset.
    @raise Invalid_argument if a fence pair is not in
    {!fence_sites}. *)

val sc_outcomes : session -> Litmus.outcome list
(** The SC outcome set (taken from an earlier SC answer or enumerated
    on first use, then cached — its blocking clauses persist behind a
    guard for {!robust}). *)

val robust :
  session ->
  ?fences:(int * int) list ->
  Litmus.mode ->
  [ `Robust | `Witness of Litmus.outcome ]
(** Is the mode's outcome set (with the given fences) equal to the SC
    set? Decided by one incremental containment solve against the SC
    baseline's retained blocking clauses — no second enumeration.
    [`Witness o] is an outcome reachable under the mode but not under
    SC. Robustness is antitone in Δ: [`Robust] for [M_tbtso Δ] implies
    [`Robust] for every smaller Δ. *)

val session_stats : session -> stats
(** Cumulative over the session: [outcomes] and [seeded] sum every
    query's, [conflicts]/[decisions]/… are the solver's lifetime
    counters (robustness queries included), [elapsed] includes the
    encode. *)

val sweep_on_retire : session -> unit
(** Make the session's later queries retire their guard the way
    {!Tbtso_sat.Solver.retire} is specified: the unit [¬guard], then a
    full {!Tbtso_sat.Solver.simplify} sweep
    ([Solver.retire ~sweep:true]). Answers and every solver counter
    stay the same; only the time spent differs. It exists as the
    reference for test_sat's retirement twin. *)

(** {1 One-shot API} *)

val explore :
  mode:Litmus.mode ->
  ?addrs:int ->
  ?regs:int ->
  ?max_outcomes:int ->
  ?profiler:Tbtso_obs.Span.t ->
  Litmus.instr list list ->
  result
(** All reachable outcomes of the program under [mode]: a fresh
    {!session} and one {!enumerate_session} query. The outcome lists
    are directly comparable to {!Litmus.explore}'s
    ([List.sort compare] order included).
    @raise Invalid_argument as {!session}. *)

val enumerate :
  mode:Litmus.mode ->
  ?addrs:int ->
  ?regs:int ->
  ?max_outcomes:int ->
  Litmus.instr list list ->
  Litmus.outcome list
(** [(explore ...).outcomes], for callers that only want the set.
    @raise Failure if the outcome budget was exhausted. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering of solver statistics. *)

val stats_json : stats -> Tbtso_obs.Json.t
(** Flat object with every {!stats} field. *)

val record_stats : Tbtso_obs.Metrics.t -> stats -> unit
(** Accumulate one oracle run into a registry: counters [sat.paths],
    [sat.vars], [sat.clauses], [sat.solves], [sat.conflicts],
    [sat.decisions], [sat.propagations], [sat.learned], [sat.restarts],
    [sat.outcomes], [sat.seeded] and [sat.explorations] sum across
    calls; gauge [sat.elapsed_s] sums solver CPU time. *)
