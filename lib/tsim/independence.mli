(** Which of the explorer's actions commute: footprints and sleep sets.

    An action is either a drain (thread [i] commits its oldest buffered
    store) or thread [i]'s next instruction. A sleep set is a bitmask
    over the [2n] actions of an [n]-thread program: bit [i] is the drain
    by thread [i], bit [n + i] thread [i]'s next instruction. After one
    order of an independent pair is explored the reversed order need
    not be, so an action slept in a state is skipped there.

    Independence covers drain/drain (distinct threads, distinct
    addresses), drain/instruction (the instruction's footprint misses
    the drained address) and instruction/instruction (disjoint
    footprints), each with an exact reversed-order-feasibility guard on
    the drained entry's slack. Footprints are refined by store-buffer
    forwarding: a load served from the thread's own buffer reads no
    memory. Instructions that start a fresh timer (TBTSO stores,
    positive waits) commute with nothing.

    The module never sees an instruction: it reads one {!step} per
    (thread, pc) that the explorer builds once per program. *)

type step = {
  room : int;
      (** The instruction is enabled iff its thread's buffer holds fewer
          than [room] entries ([max_int]: always; [1]: only when empty). *)
  reads : int;  (** Memory read mask before forwarding ({!addr_bit}s). *)
  writes : int;  (** Memory write mask. *)
  forward : int;
      (** For a load, its address: the read is served by the thread's
          own newest buffered store to it, if any. [-1] otherwise. *)
  timer : bool;  (** Starts a fresh timer, so commutes with nothing. *)
}

type t = step array array
(** [t.(i).(pc)] describes thread [i]'s instruction at [pc]. *)

val addr_bit : int -> int
(** The footprint bit of an address. Addresses ≥ 61 share the top bit,
    which is conservative: it only ever yields fewer sleeps. *)

val enabled : t -> Arena.state -> int -> bool
(** Thread [i]'s next instruction can execute: it is not waiting, has
    not finished, and its buffer has room. *)

val starts_timer : t -> Arena.state -> int -> bool
(** Thread [i]'s next instruction starts a fresh timer. Meaningful only
    where {!enabled}. *)

val child_sleep :
  t ->
  Arena.state ->
  int ->
  acting:int ->
  drain:bool ->
  addr_mask:int ->
  guard:bool ->
  int
(** [child_sleep t c explored ~acting:i ~drain ~addr_mask ~guard] is
    the sleep set of the child reached from [c] by thread [i]'s action:
    every action in [explored] (already explored or inherited as slept)
    that provably commutes with it on the nose, including feasibility
    of the reversed order. For a drain, [addr_mask] is the committed
    address's bit and [guard] is [slack ≥ 2] at [c]: the reversed order
    drains the entry one aging step later, so it is only sound when the
    entry survives that step. For an instruction, [addr_mask] and
    [guard] are ignored: a prior drain needs no guard, since the
    reversed order drains earlier. *)
