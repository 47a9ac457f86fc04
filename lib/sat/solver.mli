(** Zero-dependency CDCL SAT solver.

    Built as the engine of the repo's {e second} litmus oracle
    ({!Tsim.Axiomatic}): where the operational explorer walks store-buffer
    states, the axiomatic oracle compiles a litmus program to clauses and
    asks this solver for every model class — so this module must share no
    code or state-space view with the explorer. It is a deliberately
    classical conflict-driven clause-learning solver:

    - {b two-watched-literal} unit propagation;
    - {b first-UIP} conflict analysis with activity (VSIDS-style) variable
      bumping and phase saving;
    - {b Luby restarts};
    - {b solve under assumptions} — a [solve ?assumptions] call treats the
      given literals as temporary top decisions, so a caller can re-query
      the same formula cheaply (the clause database, learned clauses and
      activities persist across calls);
    - {b incremental clause addition} between solves, which is exactly what
      iterated model enumeration with blocking clauses needs.

    There is no preprocessing or literal-block distance heuristic — the
    litmus encodings are thousands of clauses at most, and a transparent
    solver is worth more here than a fast one. The concessions to
    long-lived incremental use are {!simplify}, which reclaims clauses
    made permanently satisfied by retired activation literals, and
    {!new_guard} / {!retire}, which reclaim one query's clauses without
    visiting the rest of the database.
    {!learned_clauses} exposes the learned set so tests can check each
    learned clause is entailed by the original formula. *)

type t

type lit = private int
(** A literal: variable [v] positively as [pos v], negated as [neg v]. *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; variables are dense ints from 0. *)

val pos : int -> lit

val neg : int -> lit

val negate : lit -> lit

val lit_var : lit -> int

val lit_sign : lit -> bool
(** [true] for a positive literal. *)

val n_vars : t -> int

val n_clauses : t -> int
(** Problem clauses added (after root-level simplification; satisfied and
    tautological clauses are not counted, except {!retire}'s unit) less
    those {!simplify} and {!retire} dropped. Learned clauses are
    separate — see {!stats} — and dropping one never moves this
    count. *)

val add_clause : t -> lit list -> unit
(** Add a clause (at the root level; any ongoing solve's trail was rewound
    by the previous [solve] return). Duplicate literals are dropped,
    tautologies ignored; adding the empty clause (or a clause false under
    root-level units) makes the solver permanently unsatisfiable. *)

val add_lits : t -> lit array -> int -> unit
(** [add_lits s lits len] adds the clause [lits.(0 .. len - 1)] —
    {!add_clause} over an array prefix, for encoders that build clauses
    into a reused scratch buffer instead of allocating a list per
    clause. Entries at [len] and beyond are ignored. Same semantics as
    {!add_clause}, including the stored literal order. *)

val reserve_watch : t -> lit -> int -> unit
(** [reserve_watch s l n] pre-grows the watch list of [l] to hold [n]
    more watched clauses, so an encoder about to attach a known burst
    of clauses watching [l] (e.g. the [2·H] ladder clauses of one
    reified order comparison) pays one allocation instead of repeated
    doubling. Purely a capacity hint: stored clauses, propagation and
    search are byte-identical with or without it. Ignored for literals
    whose variable does not exist yet. *)

val ok : t -> bool
(** [false] once root-level unsatisfiability has been established; every
    further [solve] returns [false] immediately. *)

val solve : ?assumptions:lit list -> t -> bool
(** Is the formula satisfiable (under the assumptions, if given)?
    [false] under assumptions does not mark the solver [not ok] unless
    unsatisfiability holds at the root. After [true], the model is
    available through {!value} / {!lit_value} until the next [solve] or
    [add_clause]. *)

val value : t -> int -> bool
(** Model value of a variable, after a satisfiable {!solve}. *)

val lit_value : t -> lit -> bool

type stats = {
  solves : int;  (** [solve] calls, incl. immediate [not ok] returns. *)
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;  (** Learned clauses currently retained. *)
  restarts : int;
  removed : int;
      (** Clauses reclaimed by {!simplify} and {!retire} over the
          lifetime. *)
}

val stats : t -> stats
(** Cumulative over the solver's lifetime; incremental callers that want
    per-query numbers difference two snapshots. *)

val set_profiler : t -> Tbtso_obs.Span.t -> unit
(** Attach a span profiler: the hot sections of {!solve} and
    {!simplify} accumulate into the [sat.propagate] / [sat.analyze] /
    [sat.simplify] phases (items = propagations, conflicts and
    reclaimed clauses respectively, so per-second rates fall out of the
    phase totals). Call it on the domain that will run the solver —
    phase handles are domain-local ({!Tbtso_obs.Span.phase}). Solvers
    start with the disabled profiler attached: unprofiled solving costs
    one branch per instrumented section. *)

val simplify : t -> unit
(** Root-level clause-database cleaning: drop every clause (problem or
    learned) satisfied by a root-level literal. Incremental callers use
    this after {e retiring} an activation literal [a] — adding the unit
    clause [¬a] makes all clauses guarded by [a] permanently satisfied,
    and [simplify] reclaims them from the watch lists so long query
    sequences (Δ-sweeps, per-outcome probes) do not degrade propagation.
    Entailment of the remaining formula is unchanged. It visits every
    watch list; {!retire} does the same job for one guard, usually
    without that sweep. *)

val new_guard : t -> lit
(** A fresh variable's positive literal [g], for use as a query guard:
    the caller hangs query-local clauses off it as [¬g ∨ …], solves
    under the assumption [g], and ends the query with {!retire}. The
    solver indexes every clause added or learned with [¬g] while [g] is
    live. A guard is an ordinary variable in every other respect:
    creating one changes no search. *)

val retire : ?sweep:bool -> t -> lit -> unit
(** [retire s g] has exactly the effect of [add_clause s [negate g];
    simplify s] — same clauses dropped, same counters, except that the
    unit [¬g] always counts as one problem clause, even when the query
    learned it as a root unit — but usually without the sweep. When
    the database was clean after the last
    sweep or retirement (no live clause satisfied by a root literal),
    nothing has been assigned at the root since, and propagating [¬g]
    at the root assigns nothing besides [¬g], the clauses to drop are
    exactly those containing [¬g]. [retire] then drops the ones [g]'s
    index lists and compacts only their watched literals' watch lists:
    O(the query's clauses + the learned clauses containing [¬g] + the
    lengths of those watch lists). In every other case it falls back to
    the full sweep: a root unit learned during the query, a clause
    added since that assigned a root literal, a [¬g] that propagates
    further, or a [g] that did not come from {!new_guard}. [~sweep:true]
    (default [false]) always sweeps: the reference the fast path is
    tested against. Runs in the [sat.simplify] phase. *)

type watch_list

val watch_list : t -> lit -> watch_list
(** The literal's watch list, an opaque handle for tests: {!new_var}
    must keep every existing list when it grows the watch array, which
    [==] between handles taken before and after checks. *)

val learned_clauses : t -> lit list list
(** The learned clauses, for invariant checks in tests: each must be a
    logical consequence of the clauses added through {!add_clause}. *)
