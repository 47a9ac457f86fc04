(** Standard spin locks.

    {!Ticket} is the "pthreads" stand-in used as the Figure 8 baseline
    (fair, one atomic per acquisition). {!Tas} is a test-and-set lock
    with a [trylock], used as the internal lock L of the biased-lock
    constructions (Figure 3), whose echo optimization needs trylock. *)

module Ticket : sig
  type t

  val create : Tsim.Machine.t -> t

  val lock : t -> unit

  val unlock : t -> unit

  val acquisitions : t -> int
end

module Tas : sig
  type t

  val create : Tsim.Machine.t -> t

  val lock : t -> unit

  val trylock : t -> bool

  val trylock_step : t -> Tsim.Sim.step
  (** {!trylock} as a {!Tsim.Sim.probe} step: a leading [Cas] that
      exits the probe once it takes the lock. *)

  val trylock_until : t -> backoff:int -> unit
  (** [while not (trylock t) do work backoff done], as one
      {!Tsim.Sim.probe}. *)

  val unlock : t -> unit
end
