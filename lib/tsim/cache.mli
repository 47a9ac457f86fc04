(** Per-thread direct-mapped cache cost model.

    Tracks, per cache set, the last line tag and line version observed by
    this thread. A load hits iff the tag matches and the line has not been
    rewritten (version bump) by another thread since. This is a
    cost-accounting device only — it never affects the values read, which
    always follow the x86-TSO machine semantics. *)

type t

val create : bits:int -> t

val access : t -> line:int -> version:int -> bool
(** [access t ~line ~version] returns [true] on a hit and records the line
    as now cached with the given version. *)

val invalidate_all : t -> unit

val add_hits : t -> int -> unit
(** [add_hits t k] counts [k] further hits on lines known to be cached
    and current, without probing again: the machine's account of the
    spin-wait accesses it takes at once. *)

val hits : t -> int

val misses : t -> int
