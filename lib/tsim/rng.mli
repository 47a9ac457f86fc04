(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic choice in the simulator goes through this module so
    that runs are exactly reproducible from a seed, independent of the
    OCaml stdlib [Random] state. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** Independent copy with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val bits : t -> int
(** 62 nonnegative random bits as an [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val geometric_bound : float -> int
(** [geometric_bound p] is the integer bound {!geometric} takes for a
    Bernoulli([p]) trial: ⌈p·2^53⌉, 0 for [p <= 0] (no draw succeeds)
    and 2^53 for [p >= 1] (none is drawn). *)

val geometric : t -> bound:int -> cap:int -> int
(** [geometric t ~bound:(geometric_bound p) ~cap] is the number of
    failures before the first success of a Bernoulli([p]) trial,
    truncated to [cap]: the draws and the result of testing
    [float t < p] each time. Used for store-drain delay sampling, with
    the bound computed once per machine. *)
