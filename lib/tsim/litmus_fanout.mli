(** Parallel fan-out of litmus checks over (file, mode) tasks.

    This is the engine behind [tbtso-litmus check -j N], factored into
    the library so that tests can pin the driver's guarantee directly:
    the sequential and pooled runs produce {e identical} verdict lists
    and JSON documents (byte-for-byte, up to the explicitly time-valued
    stats fields and the [par.*] pool metrics).

    Each task can be answered by one of two independent oracles — the
    operational explorer ({!Litmus_parse.check} over {!Litmus.explore})
    or the axiomatic SAT encoding ({!Axiomatic}) — or by
    {e both}, in which case their outcome sets are cross-checked and
    any mismatch becomes the dominant {b [`Disagree]} severity (exit
    code 3): one oracle is provably wrong about the paper's model.

    Safe to fan out because each file's checks build their entire
    exploration and solver state per call, on the one domain that runs
    the file — the [tsim] library keeps no module-level mutable state
    (audited for the worker-pool change; keep it that way). *)

type oracle =
  | Explorer  (** Operational state-space exploration (default). *)
  | Sat  (** Axiomatic SAT enumeration only. *)
  | Both  (** Run both and cross-check the exact outcome sets. *)

type task = {
  path : string;  (** Source file, as given. *)
  test : Litmus_parse.t;
  mode : Litmus.mode;
}

type sat_check = {
  sat_holds : bool;  (** Condition verdict over the SAT outcome set. *)
  sat_outcome_count : int;
  sat_complete : bool;  (** [false] when the outcome budget was hit. *)
  sat_stats : Axiomatic.stats;
}

type robust_check = {
  robust_holds : bool;
      (** The mode's outcome set equals the SC set (SC-robustness,
          decided by {!Axiomatic.robust}). *)
  robust_witness : Litmus.outcome option;
      (** An outcome reachable under the mode but not under SC;
          [None] iff [robust_holds]. *)
}

type verdict = {
  task : task;
  result : Litmus_parse.check_result option;
      (** Explorer verdict; [None] when [oracle = Sat]. *)
  sat : sat_check option;
      (** SAT-oracle verdict; [None] when [oracle = Explorer]. *)
  disagree : Litmus.outcome list option;
      (** [Both] only: outcomes on which the oracles provably disagree
          (sorted; an outcome found by one oracle but absent from the
          other {e complete} oracle). [None] means no disagreement was
          provable — which is agreement when both sides are complete. *)
  robustness : robust_check option;
      (** Present when [check ~robust:true]: SC-robustness of the
          task's mode, advisory (does not affect {!severity}). *)
}

val load : modes:Litmus.mode list -> string list -> task list
(** Read and parse each file (sequentially — parsing is trivial next to
    exploration) and pair it with every mode, files outermost.
    @raise Litmus_parse.Parse_error or [Sys_error] on a bad file. *)

val check :
  ?pool:Tbtso_par.Pool.t ->
  ?max_states:int ->
  ?oracle:oracle ->
  ?profiler:Tbtso_obs.Span.t ->
  ?robust:bool ->
  task list ->
  verdict list
(** Run every task under the chosen oracle(s) and return verdicts in
    task order. The unit of work is the file (the tasks sharing a
    [path] and program, as {!load} makes them): every SAT-side query of
    a file — each mode's {!Axiomatic.enumerate_session} and each
    {!Axiomatic.robust} — runs on one {!Axiomatic.session}, built on
    first use, so a file is encoded once whatever the number of modes,
    and an explorer-only run never encodes. Every explorer-side mode of
    a file likewise runs on one {!Litmus.scratch} (arena, scratch
    states, zone and worklist buffers), built on first use and reset
    between modes, with results equal to a fresh {!Litmus.explore} per
    mode; nothing is kept beyond the file. The per-verdict
    [sat_stats] are that query's own work (see {!Axiomatic.stats}).
    With a [pool] the files fan out across its domains (results still
    land in submission order); without one, or with a pool of one
    domain, the run is sequential in the caller. A file never splits
    across domains, so [-j N] speeds up only runs of several files.
    [max_states] budgets the explorer only; the SAT oracle uses its own
    {!Axiomatic.default_max_outcomes}. [robust] (default off)
    additionally decides SC-robustness of each task's mode via one
    incremental {!Axiomatic.robust} containment query and attaches it
    to the verdict (advisory — it never changes severity or exit
    code). [profiler] (default disabled) wraps each task in a
    [file:mode] span on the domain that executes it and threads the
    profiler into the explorer and SAT phases — see
    {!Tbtso_obs.Span}; verdicts are identical with profiling on or
    off. *)

val disagreement_witness : verdict -> Litmus.outcome option
(** The minimized disagreement witness: the least offending outcome
    (the head of the sorted [disagree] list), if any. *)

val verdict_string : verdict -> string
(** The human-readable verdict cell: ["witness OBSERVABLE"],
    ["invariant VIOLATED"], ["INCONCLUSIVE (state budget exceeded)"],
    ["ORACLE DISAGREEMENT (1 outcome differs)"], … *)

val severity : verdict -> [ `Ok | `Violated | `Inconclusive | `Disagree ]
(** [`Disagree] dominates everything; otherwise the worst of the
    oracles that ran: [`Violated] for a complete [forall] check that
    does not hold; [`Inconclusive] for any budget-exhausted check whose
    answer is not already definitive (a found [exists] witness is). *)

val exit_code : verdict list -> int
(** CI gate over a whole run: 3 if any verdict is [`Disagree] (an
    oracle is wrong — this dominates), else 1 if any is [`Violated],
    else 2 if any is [`Inconclusive], else 0. *)

val record : verdict -> Tbtso_obs.Json.t
(** One (file, mode) JSON record: file, test name, mode, verdict
    string, then the {!Litmus_parse.check_result_json} fields (when the
    explorer ran), a ["sat"] object with holds/outcomes/complete and
    the solver statistics (when the SAT oracle ran), a ["robust"]
    object with holds and an optional witness (when [~robust:true]),
    and ["oracles_agree"] (when both ran). *)

val json_doc : registry:Tbtso_obs.Metrics.t -> verdict list -> Tbtso_obs.Json.t
(** The result document: schema, per-task records in task order, and
    the registry snapshot as [totals]. Schema is [tbtso-litmus/5] for
    explorer-only runs (/5 drops the per-independence-class sleep-skip
    counters [dd_skips], [di_skips] and [ii_skips] from each record's
    [stats], and their [litmus.sleep_skips_*] entries from [totals])
    and [tbtso-sat/5] when any record carries SAT-oracle data
    ([--oracle sat] or [--oracle both]): the sat schema extends the
    litmus record with the ["sat"] object and ["oracles_agree"] flag,
    and [totals] with the [sat.*] counters of
    {!Axiomatic.record_stats}. /5 adds the ["seeded"] count to each
    ["sat"] object's [stats] and [sat.seeded] to [totals]. *)
