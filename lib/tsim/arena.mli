(** Packed, hash-consed explorer states.

    The explorer ({!Litmus.explore}) works on one mutable {!state} at a
    time: it decodes a parent into a scratch state, mutates a copy into
    each child in place, and interns the child here. Interning packs the
    state into a flat key — memory cells, then per thread: pc, wait,
    buffer length, registers, and one (addr, value, slack) triple per
    live buffer entry — hashes it with FNV-1a, and maps it to a dense
    id. Equal keys get equal ids; distinct keys distinct ids.

    Keys live back to back in one growable word array; an
    open-addressed table (power-of-two capacity, linear probing, load
    ≤ 0.5) maps a key to its id through the cached hash, and a hit is
    confirmed by comparing the packed words in place, so the hit path
    allocates nothing. Each id also carries the sleep mask its state
    was last expanded with.

    Every buffer starts small and doubles on demand: most explorations
    visit tens to hundreds of states. An arena depends only on its
    layout, not on the memory model, so one serves every mode of a
    litmus file ({!Litmus.scratch}): {!reset} empties it for the next
    mode and keeps the grown buffers. Copies between its int arrays
    are typed loops, never [Array.blit], whose write barrier runs on
    every word of a major-heap destination. *)

type state = {
  s_mem : int array;  (** Memory cells. *)
  s_pc : int array;  (** Per thread. *)
  s_wait : int array;  (** Remaining blocked ticks per thread; 0 = runnable. *)
  s_len : int array;  (** Store-buffer length per thread. *)
  s_regs : int array;  (** Thread [i]'s register [r] at [i * regs + r]. *)
  s_buf : int array;
      (** Store buffers as (addr, value, slack) triples, oldest first:
          thread [i]'s entry [j] starts at [s_base.(i) + 3 * j]. Words
          past the [s_len.(i)]-th entry are stale and never read. *)
  s_base : int array;
      (** Word offset of each thread's buffer in [s_buf]; shared by
          every state of one arena. *)
}

type t

val create : addrs:int -> regs:int -> bufcap:int array -> t
(** An empty arena for states of [Array.length bufcap] threads over
    [addrs] cells and [regs] registers per thread, where thread [i]
    buffers at most [bufcap.(i)] stores at once. *)

val scratch : t -> state
(** A fresh all-zero state (every thread at pc 0, buffers empty). *)

val copy : src:state -> dst:state -> unit
(** Overwrite [dst] with [src]; both must come from the same arena. *)

val clear : state -> unit
(** Set the state back to the initial one of {!scratch}: every cell,
    pc, wait, buffer length and register 0. Stale buffer words are
    left; they are never read. *)

val newest : state -> int -> int -> int
(** [newest s i a] is the index in [s.s_buf] of thread [i]'s newest
    buffered store to address [a], or [-1] if it buffers none. *)

val intern : t -> state -> int
(** The dense id of the state's packed key, fresh ids counting up from
    0 in arrival order. Allocates nothing on a hit. *)

val decode : t -> int -> state -> unit
(** [decode t id dst] writes the state interned as [id] into [dst]. *)

val size : t -> int
(** Number of distinct states interned. *)

val reset : t -> unit
(** Forget every interned state: the next {!intern} returns the ids a
    fresh arena of the same layout would. Runs in O(states interned)
    (each id's table slot is found again from its cached hash), not
    O(capacity), and keeps the key store, table and per-id arrays at
    the size they grew to. *)

val sleep : t -> int -> int
(** The sleep mask [id] was last expanded with; [-1] until it is set. *)

val set_sleep : t -> int -> int -> unit

val grow : int array -> int -> int -> int array
(** [grow a need fill] is [a] if it holds [need] words, else a copy
    doubled until it does, with new words set to [fill]. *)
