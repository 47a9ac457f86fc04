(** Bounded-scenario compiler: litmus programs auto-extracted from the
    [lib/core] algorithms.

    The hand-written corpus in [litmus/] holds the classics (SB, MP,
    IRIW, …); the paper's {e actual contributions} live in [lib/core]
    (FFHP, FFBL, RCU, the flag principle, safepoint/biased locks) and
    were previously only simulator-tested. This module closes that gap:
    it renders bounded {e client windows} of those algorithms — two to
    three threads, each a short sequence of algorithm operations — as
    {!Litmus_parse.t} programs whose safety predicate is derived from
    the algorithm's invariant, so the exhaustive explorer and the SAT
    oracle verify the fence-freedom claims end to end, in every mode.

    A scenario's threads are sequences of {!op}s. Algorithm ops
    (FFHP [protect]/[validate]/[retire]/[scan], FFBL
    [owner_lock]/[nonowner_lock], flag [raise]/[check], RCU read-side
    sections and grace periods, safepoint revocation) lower to small,
    documented instruction windows over the litmus machine's four
    shared cells and four registers per thread; raw
    store/load/fence/wait/cas ops are available for glue and for random
    client generation.

    Each curated scenario carries per-mode {e polarity expectations}:
    the paper's central claim, machine-checked, is that the fence-free
    window's bad state is {b unreachable under SC and TBTSO[Δ ≤ wait]}
    but {b reachable under unbounded TSO}. {!check} verifies the
    expectations with the chosen oracle(s) and reports honest verdicts
    (an expectation mismatch, an inconclusive budget cut and an oracle
    disagreement are all distinct outcomes with distinct exit codes —
    see {!exit_code}).

    {b Shared-cell layouts} (the litmus machine has cells [x y z w] =
    0–3). Each algorithm family uses a fixed, documented layout; all
    cells start at 0, so "present/quiescent" is encoded as 0 and
    "removed/raised/freed" as a non-zero write:

    - FFHP: [x] = pointer slot (0 = object published, 1 = unlinked),
      [y] = the reader's hazard pointer (1 = protecting), [z] = the
      object's memory (1 = reclaimed — reading 1 is a use-after-free).
    - FFBL / biased: [x] = owner flag, [y] = non-owner flag, [z] =
      lock-protected data, [w] = the internal lock L.
    - Flag principle: flag cells are explicit op arguments.
    - RCU: [x] = the reader's presence flag (QSBR: 1 = inside a
      read-side section), [y] = pointer slot, [z] = object memory.
    - Safepoint/biased revocation: [x] = owner bias word, [y] = revoke
      request. *)

(** One client-window operation. Raw ops mirror {!Litmus.instr}
    one-to-one; algorithm ops lower to the documented windows below
    (registers are explicit arguments so predicates can name them). *)
type op =
  | Store of int * int  (** raw: [Litmus.Store] *)
  | Load of int * int  (** raw: [Litmus.Load (addr, reg)] *)
  | Loadeq of int * int * int  (** raw: [Litmus.Loadeq] *)
  | Fence  (** raw: [Litmus.Fence] *)
  | Wait of int  (** raw: [Litmus.Wait] *)
  | Cas of int * int * int * int  (** raw: [Litmus.Cas] *)
  | Hp_protect
      (** FFHP fast path: publish the hazard pointer {e without a
          fence} — [store y 1]. The op whose buffering the whole
          Section 4 argument is about. *)
  | Hp_validate of int
      (** FFHP: re-read the slot — [load x -> r]. Reading 0 means the
          object is still published: the protection is validated. *)
  | Hp_access of int
      (** FFHP: dereference the protected object — [load z -> r].
          Reading 1 is an access to reclaimed memory. *)
  | Hp_retire
      (** FFHP reclaimer: atomically unlink the object —
          [store x 1; fence] (removal is an atomic op in the paper, so
          it is globally visible before the horizon wait starts). *)
  | Hp_scan_free of int
      (** [Hp_scan_free d]: the Δ-horizon reclaim —
          [wait d; loadeq y 1 skip 1; store z 1]: age the retiree past
          the visibility horizon [d], scan the hazard pointer, and free
          ([store z 1]) only when the scan found it clear. *)
  | Bl_owner_lock of int
      (** FFBL owner fast path — [store x 1; load y -> r]: raise the
          owner flag {e without a fence} and check the non-owner flag;
          reading 0 enters the critical section. *)
  | Bl_owner_unlock  (** FFBL — [store x 0]. *)
  | Bl_nonowner_lock of int * int * int
      (** [Bl_nonowner_lock (d, r_l, r)]: FFBL non-owner path —
          [cas w 0 1 -> r_l; store y 1; fence; wait d; load x -> r]:
          serialize on the internal lock L, raise the flag, fence, wait
          out the bound horizon [d], then inspect the owner flag;
          reading 0 enters the critical section. *)
  | Bl_owner_echo of int
      (** FFBL echoing owner backing off inside its critical section —
          [store z 1; load y -> r; store x 2]: a buffered protected
          store, then observe the non-owner flag and echo the observed
          version into the owner flag (value 2). FIFO buffers order the
          echo after the data store, which is what the echo cut
          relies on. *)
  | Bl_nonowner_echo_lock of int * int * int
      (** [Bl_nonowner_echo_lock (d, r_echo, r_data)]: non-owner
          acquisition with the echo cut —
          [store y 1; fence; load x -> r_echo; loadeq x 2 skip 1;
          wait d; load z -> r_data]: raise and fence, observe the owner
          flag; seeing the echo (2) skips the Δ wait entirely, after
          which the protected data is read. *)
  | Fl_raise of int
      (** [Fl_raise f]: flag principle, fence-free side —
          [store f 1]. *)
  | Fl_raise_bounded of int * int
      (** [Fl_raise_bounded (f, d)]: flag principle, bounded side —
          [store f 1; fence; wait d]. *)
  | Fl_check of int * int  (** [Fl_check (f, r)] — [load f -> r]. *)
  | Rcu_read_lock
      (** QSBR read-side entry: announce presence {e without a fence} —
          [store x 1]. *)
  | Rcu_deref of int
      (** [load y -> r]: read the pointer slot; 0 = still published. *)
  | Rcu_access of int
      (** [load z -> r]: dereference; reading 1 is a use-after-free. *)
  | Rcu_read_unlock  (** Quiescent again — [store x 0]. *)
  | Rcu_remove
      (** Updater: atomically unpublish — [store y 1; fence]. *)
  | Rcu_sync_free of int
      (** [Rcu_sync_free d]: bounded grace period —
          [wait d; loadeq x 1 skip 1; store z 1]: wait out the bound,
          then free unless the reader's presence flag is visible. *)
  | Sp_owner_enter of int
      (** Safepoint-style biased owner fast path —
          [store x 1; load y -> r]: fence-free bias acquire plus
          revoke-request check; reading 0 enters the section. *)
  | Sp_owner_exit  (** [store x 0]. *)
  | Sp_revoke_request  (** Revoker — [store y 1; fence]. *)
  | Sp_revoke_wait of int
      (** [wait d]: the temporal bound replacing the unbounded
          wait-for-safepoint (the FFBL improvement over the
          safepoint lock). *)
  | Sp_revoke_check of int
      (** [load x -> r]: reading 0 means the bias is revocable and the
          revoker enters. *)

val lower : op -> Litmus.instr list
(** The documented instruction window of one op (see {!op}). Raw ops
    map one-to-one. *)

(** Expected reachability of a scenario's [exists] predicate under one
    mode. *)
type polarity = Unreachable | Reachable

type t = {
  name : string;  (** Identifier-shaped (used in generated file names). *)
  algorithm : string;  (** The [lib/core] module this windows. *)
  descr : string list;  (** Comment lines for the generated file. *)
  threads : op list list;
  quantifier : Litmus_parse.quantifier;
      (** Curated scenarios use [Exists] with a {e bad-state}
          condition; polarity expectations are only meaningful there. *)
  condition : Litmus_parse.term list;
  expect : (Litmus.mode * polarity) list;
      (** The modes {!check} verifies, with the machine-checked claim
          for each. Empty for random scenarios. *)
}

val program : t -> Litmus.instr list list
(** All threads lowered and concatenated. *)

val to_litmus : t -> Litmus_parse.t
(** The scenario as a parsed litmus test (name, program, condition). *)

val render : t -> string
(** The scenario as litmus file text, with a header documenting the
    source algorithm and the per-mode expectations.
    [Litmus_parse.parse (render s)] equals [to_litmus s]. *)

val well_formed : t -> (unit, string) result
(** Structural validity: 1–4 threads, every lowered address in [0, 4),
    every register in [0, 4), waits and loadeq skips non-negative,
    condition registers/addresses in range, and expectations only on
    [Exists] scenarios. The qcheck generator and [check] rely on it. *)

val registry : t list
(** The curated scenarios: FFHP retire/scan vs. protect/validate (and
    the unprotected refutation), FFBL revoke/acquire and echo-cut, the
    flag principle (2- and 3-thread, plus the missing-wait refutation),
    one RCU grace-period window and safepoint-style revocation — every
    algorithm's fence-free window machine-checked safe under SC and
    TBTSO[Δ ≤ wait] and its bad state reachable under unbounded TSO. *)

val find : string -> t option
(** Look a curated scenario up by name. *)

val file_name : t -> string
(** ["gen_<name>.litmus"] — the name {!emit} writes. *)

val emit : dir:string -> t list -> string list
(** Render each scenario into [dir] (created if missing) and return the
    written paths. *)

(** {1 Checking expectations} *)

type mode_report = {
  verdict : Litmus_fanout.verdict;
      (** The oracle verdict(s) for this (scenario, mode) task. *)
  expected : polarity;
  reachable : bool option;
      (** The oracles' combined answer to "is the predicate
          reachable?": a found witness is definitive even under a
          budget cut; absence is definitive only from a complete
          exploration. [None] when neither oracle could decide. *)
  pass : bool option;
      (** [reachable] compared against [expected]; [None] when
          undecided (or when the oracles disagree). *)
}

type report = { scenario : t; modes : mode_report list }

val check :
  ?pool:Tbtso_par.Pool.t ->
  ?max_states:int ->
  ?oracle:Litmus_fanout.oracle ->
  ?profiler:Tbtso_obs.Span.t ->
  t list ->
  report list
(** Check every scenario's expectations under the chosen oracle(s)
    (default [Both]: the two independent oracles cross-check the exact
    outcome sets on every point). Tasks fan out over [pool] exactly as
    in {!Litmus_fanout.check}; reports land in input order. *)

val severity : report -> [ `Ok | `Mismatch | `Inconclusive | `Disagree ]
(** Worst mode of the report: [`Disagree] (an oracle is provably wrong)
    dominates, then [`Mismatch] (a machine-checked claim is false),
    then [`Inconclusive] (budget cut before a verdict). *)

val exit_code : report list -> int
(** CI gate: 3 if any oracle disagreement, else 1 if any expectation
    mismatch, else 2 if any inconclusive, else 0. *)

val report_json : report -> Tbtso_obs.Json.t

val json_doc : registry:Tbtso_obs.Metrics.t -> report list -> Tbtso_obs.Json.t
(** Schema [tbtso-scenario/4]: per-scenario records (each mode with its
    expectation, the oracles' answer and the full fanout record) plus
    the metrics-registry totals. /4 follows the fanout records'
    ["seeded"] SAT count ([tbtso-sat/5]). *)

val polarity_name : polarity -> string
(** ["unreachable"] / ["reachable"]. *)
