(** Parser for a small litmus-test file format, used by the
    [tbtso-litmus] command-line tool and tests.

    Format by example:

    {v
    # Store buffering with the TBTSO flag-principle fix
    thread
      store x 1
      load x -> r0
    thread
      store y 1
      fence
      wait 4
      load x -> r1
    exists 0:r0 = 0 /\ 1:r1 = 0
    v}

    - Addresses are the names [x y z w] (cells 0-3).
    - Registers are [r0 r1 r2 r3] per thread.
    - Instructions: [store ADDR VAL], [load ADDR -> REG],
      [loadeq ADDR VAL skip N], [fence], [wait N],
      [cas ADDR EXPECTED DESIRED -> REG] (1 on success).
    - The final line is a condition: [exists COND] asks whether some
      reachable outcome satisfies it (a witness query); [forall COND]
      asks whether all outcomes do (an invariant). [COND] is a
      conjunction of [T:rN = V] (register of thread T) and [ADDR = V]
      (final memory) terms joined by [/\]; [T] must name one of the
      file's threads (numbered from 0).
    - [wait] durations and [loadeq] skips are non-negative.
    - [#] starts a comment; blank lines are ignored. *)

type quantifier = Exists | Forall

type term =
  | Reg_eq of int * int * int  (** thread, register, value *)
  | Mem_eq of int * int  (** address, value *)

type t = {
  name : string;  (** From a leading [name:] line, or "litmus". *)
  program : Litmus.instr list list;
  quantifier : quantifier;
  condition : term list;  (** Conjunction. *)
}

exception Parse_error of { line : int; message : string }

val parse : string -> t
(** Parse the full text of a litmus file. @raise Parse_error *)

val chop_prefix : prefix:string -> string -> string option
(** [chop_prefix ~prefix s] is [Some rest] when [s = prefix ^ rest],
    [None] otherwise. Shared by every parameterized-name parser here
    (mode names today) so that prefix-length arithmetic lives in one
    place. *)

val mode_of_string : string -> (Litmus.mode, [ `Msg of string ]) result
(** Case-insensitive parser for mode names: [sc], [tso], [tbtso:N]
    (N ≥ 1) and [tsos:N] (N ≥ 1). The [(..., [`Msg _]) result] shape
    plugs directly into a cmdliner converter. *)

val mode_name : Litmus.mode -> string
(** Display form: ["SC"], ["TSO"], ["TBTSO[4]"], ["TSO[S=2]"]. *)

val mode_id : Litmus.mode -> string
(** Machine form, round-tripping through {!mode_of_string}: ["sc"],
    ["tso"], ["tbtso:4"], ["tsos:2"]. *)

val satisfies : t -> Litmus.outcome -> bool

val holds_on : t -> Litmus.outcome list -> bool
(** Evaluate the file's condition over an outcome set: for [Exists],
    some outcome satisfies it; for [Forall], all do. This is the
    quantifier half of {!check}, usable with any oracle's outcome list
    (in particular {!Axiomatic.explore}'s). *)

type check_result = {
  holds : bool;
      (** For [Exists], whether a witness outcome exists; for [Forall],
          whether the condition is invariant over all outcomes. *)
  outcome_count : int;  (** Distinct final outcomes found. *)
  complete : bool;
      (** [false] when exploration hit [max_states]: [holds] then refers
          to the partial outcome set only. An [Exists] witness found in a
          partial exploration is still definitive; a [Forall] or a
          failed [Exists] is inconclusive. *)
  stats : Litmus.stats;
}

val check :
  ?max_states:int ->
  ?profiler:Tbtso_obs.Span.t ->
  t ->
  mode:Litmus.mode ->
  check_result
(** [check t ~mode] exhaustively enumerates outcomes under [mode] (up to
    [max_states] distinct states, default
    {!Litmus.default_max_states}) and evaluates the file's condition.
    Never raises on budget exhaustion — see [complete]. [profiler] as
    in {!Litmus.explore}. *)

val check_explored : t -> Litmus.result -> check_result
(** Evaluate the condition over an explorer result the caller already
    has — for drivers that also need the raw outcome list (e.g. the
    oracle cross-check in {!Litmus_fanout}). [check t ~mode] is
    [check_explored t (Litmus.explore ~mode t.program)]. *)

val check_result_json : check_result -> Tbtso_obs.Json.t
(** [{holds; outcomes; complete; stats}], the per-(file, mode) record of
    [tbtso-litmus check --json]. *)
