(** Fence-elimination adviser built on {!Axiomatic} sessions.

    The paper's point is deciding when fences are {e unnecessary}:
    TBTSO[Δ] bounds the store buffer in time, so a program that is
    {e robust} at Δ — its TBTSO[Δ] outcome set equals its SC set — can
    drop hot-path fences as long as the hardware honours the bound.
    This module turns the incremental axiomatic oracle into that
    adviser:

    - {!minimal_delta} finds the robustness threshold by binary search
      over the session's Δ-activation grid: the largest robust Δ and
      the smallest unsafe one ([max_robust + 1]). Robustness is
      antitone in Δ (TBTSO[Δ] ⊆ TBTSO[Δ+1], both contain SC), TBTSO[1]
      is observationally SC, and TBTSO[Δ ≥ H] is TSO, so the verdict is
      one of: robust at every Δ, a threshold pair, or (defensively —
      the model makes it unreachable) never robust.
    - {!minimal_fences} finds a minimal-by-inclusion set of
      store-fence sites restoring SC-robustness under {e plain TSO},
      by monotone greedy elimination over the session's fence-site
      selector literals.
    - {!confirm} cross-checks a verdict against the {e operational}
      explorer: outcome sets must match SC exactly up to the reported
      threshold (at [max_robust]) and differ at [min_unsafe].

    Every query is a containment solve against the session's retained
    SC baseline — no re-encoding, no re-enumeration, learned clauses
    shared across the whole search. *)

type verdict =
  | Always_robust  (** Robust even under plain TSO. *)
  | Breaks_at of { max_robust : int; min_unsafe : int }
      (** Robust for every Δ ≤ [max_robust]; at [min_unsafe]
          (= [max_robust + 1]) an outcome beyond SC appears. *)
  | Never_robust
      (** Not robust even at Δ = 1. Unreachable in this model (TBTSO[1]
          is observationally SC) but kept so the schema is total. *)

type fence_advice =
  | No_fences_needed  (** Already TSO-robust. *)
  | Fence_after of (int * int) list
      (** Minimal-by-inclusion [(thread, store position)] sites whose
          fences make the program TSO-robust. *)
  | No_fence_set_suffices
      (** Defensive: even every site fenced leaves TSO ≠ SC. *)

type confirmation =
  | Confirmed
  | Mismatch of string  (** Explorer contradicts the verdict. *)
  | Inconclusive of string  (** Explorer hit its state budget. *)

type report = {
  file : string;
  name : string;
  horizon : int;
  sc_count : int;  (** Size of the SC outcome set. *)
  verdict : verdict;
  witness : Litmus.outcome option;
      (** An outcome beyond SC at [min_unsafe] (TSO for
          [Never_robust]); [None] iff [Always_robust]. *)
  fence : fence_advice option;  (** Present when fences were requested. *)
  stats : Axiomatic.stats;  (** The session's cumulative solver stats. *)
  confirmation : confirmation option;
      (** Present when explorer verification was requested. *)
}

val minimal_delta :
  Axiomatic.session -> verdict * Litmus.outcome option

val minimal_fences : Axiomatic.session -> fence_advice

val confirm :
  ?max_states:int -> Litmus.instr list list -> verdict -> confirmation

val advise :
  ?fences:bool ->
  ?verify:bool ->
  ?max_states:int ->
  ?profiler:Tbtso_obs.Span.t ->
  file:string ->
  Litmus_parse.t ->
  report
(** One litmus test end to end: fresh session, {!minimal_delta},
    optionally {!minimal_fences} ([fences], default off) and
    {!confirm} ([verify], default off; [max_states] caps the
    explorer). [profiler] (default disabled) wraps the searches in
    [advise.binary_search] / [advise.fence_set] / [advise.confirm]
    spans and threads into the session's SAT phases. *)

val verdict_string : verdict -> string
val fence_string : fence_advice -> string

val outcome_json : Litmus.outcome -> Tbtso_obs.Json.t

val report_json : report -> Tbtso_obs.Json.t
(** One [results] entry of the [tbtso-advise/2] document. *)

val json_doc : registry:Tbtso_obs.Metrics.t -> report list -> Tbtso_obs.Json.t
(** The [tbtso-advise/2] document: [schema], [results], [totals]. /2
    adds the ["seeded"] count to each result's SAT [stats] and
    [sat.seeded] to [totals]. *)

val exit_code : report list -> int
(** 3 if any report's confirmation is a {!Mismatch}, else 2 if any is
    {!Inconclusive}, else 0. *)
