(** Per-thread FIFO store buffer.

    Models the abstract store buffer of x86-TSO: stores enter at the tail
    with their enqueue time; the memory subsystem dequeues from the head.
    A load first consults the buffer and, if several entries match the
    address, must see the newest one (store-to-load forwarding). *)

type entry = {
  addr : int;
  value : int;
  enqueued_at : int;  (** Global-clock time of the store instruction. *)
  ready_at : int;  (** Scheduler-sampled earliest voluntary drain time. *)
  mutable rfo_until : int;
      (** Read-for-ownership completion time when the target line was
          read by another core (machine-managed; 0 initially). *)
}

(** A ring of [slots], whose length is a power of two. The fields are
    read-only outside this module; the machine reads [len] inline on its
    hot paths (an empty buffer needs no forwarding scan). *)
type t = private {
  mutable slots : entry array;
  mutable head : int;  (** Slot of the oldest entry. *)
  mutable len : int;  (** Entries buffered. *)
}

val create : unit -> t

val enqueue : t -> entry -> unit

val sentinel : entry
(** Distinguished empty-result entry ([addr = -1]; real addresses are
    non-negative, so no buffered entry ever aliases it). Returned by
    {!oldest} and {!newest_for} — test with physical equality. *)

val oldest : t -> entry
(** Head (oldest) entry, or {!sentinel} when the buffer is empty. Its
    [enqueued_at] anchors the TBTSO[Δ] deadline. *)

val dequeue_oldest : t -> entry
(** @raise Invalid_argument if empty. *)

val newest_for : t -> int -> entry
(** [newest_for t addr] is the newest buffered store to [addr], or
    {!sentinel} when none is buffered: the store whose value a
    same-thread load of [addr] must observe. *)
