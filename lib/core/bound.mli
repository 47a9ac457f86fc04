(** Store-visibility bound policies.

    TBTSO algorithms need one primitive from the platform: a way to decide
    that every store issued at or before some time [t0] has become
    globally visible. The paper offers two instantiations, which this
    module abstracts over so that FFHP and FFBL are written once:

    - {b TBTSO hardware} (Section 6.1): a store is visible at most Δ ticks
      after it was issued, so the condition is [now > t0 + Δ].
    - {b x86 + OS adaptation} (Section 6.2): the OS exposes an array [A]
      with the time of each core's last kernel entry (which drained that
      core's store buffer); the condition is [min_i A(i) > t0]. *)

type t =
  | Delta of int
      (** TBTSO[Δ]: stores drain within [Δ] ticks of issue. *)
  | Core_array of { base : int; ncores : int; stride : int }
      (** Per-core kernel-entry time array at [base], entry [i] at
          [base + i*stride]. See {!Hwmodel.Os_adapt} for the producer. *)

val visible_horizon : t -> now:int -> int
(** [visible_horizon b ~now] returns a time [h] such that every store
    issued at a time strictly less than [h] is globally visible. For
    [Core_array] this performs one shared load per core (the paper's
    "extra work in the slow path"); for [Delta] it is pure arithmetic.
    Must be called from simulated thread code. *)

val visible_steps : t -> after:int -> slot:int -> Tsim.Sim.step array
(** [visible_steps b ~after ~slot] are {!Tsim.Sim.probe} steps that
    exit once [visible_horizon b ~now:(clock ()) > after], i.e. once
    every store issued at or before [after] is visible. For [Delta d]
    that is one clock read with deadline [after + d]. For [Core_array]
    it is a clock read, then one load per core into value slots
    [slot ..], the last exiting once their minimum passes [after]. *)

val wait_visible : t -> since:int -> unit
(** Block until every store issued at or before [since] is visible: the
    "wait Δ time units" step of the TBTSO flag principle, or the
    array-scan loop of the adapted variant. [Delta] stalls until past
    the deadline; [Core_array] is one {!Tsim.Sim.probe} of
    {!visible_steps} with [work 50] between iterations: a clock read,
    then each core's entry. *)

val pp : Format.formatter -> t -> unit
