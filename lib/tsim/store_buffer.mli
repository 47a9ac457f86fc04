(** Per-thread FIFO store buffer.

    Models the abstract store buffer of x86-TSO: stores enter at the tail
    with their enqueue time; the memory subsystem dequeues from the head.
    A load first consults the buffer and, if several entries match the
    address, must see the newest one (store-to-load forwarding).

    An entry is a slot: index [s] of the five parallel arrays. Buffering
    a store allocates nothing and writes no pointer, and the machine
    reads the head entry's fields inline, at slot [head], without a
    call. *)

(** A ring whose capacity (the arrays' common length) is a power of
    two. The fields are read-only outside this module: the arrays are
    replaced when the ring grows, and only the slots
    [(head + i) land (capacity - 1)] for [i < len] hold entries. *)
type t = private {
  mutable addr : int array;
  mutable value : int array;
  mutable enqueued_at : int array;
      (** Global-clock time of the store instruction. *)
  mutable ready_at : int array;
      (** Scheduler-sampled earliest voluntary drain time. *)
  mutable rfo_until : int array;
      (** Read-for-ownership completion time when the target line was
          read by another core (machine-managed; 0 until issued). *)
  mutable head : int;  (** Slot of the oldest entry. *)
  mutable len : int;  (** Entries buffered. *)
}

val create : unit -> t
(** An empty buffer of capacity 8. *)

val enqueue : t -> addr:int -> value:int -> at:int -> ready_at:int -> unit
(** Buffer a store enqueued at tick [at] with no upgrade issued, growing
    the ring when it is full. *)

val drop_oldest : t -> unit
(** Remove the head entry; read its fields first.
    @raise Invalid_argument if empty. *)

val set_oldest_rfo : t -> int -> unit
(** [set_oldest_rfo t until] records that the head entry's
    read-for-ownership completes at [until].
    @raise Invalid_argument if empty. *)

val newest_for : t -> int -> int
(** [newest_for t addr] is the slot of the newest buffered store to
    [addr], or -1 when none is buffered: the store whose value a
    same-thread load of [addr] must observe. *)
