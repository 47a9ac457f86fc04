type entry = {
  addr : int;
  value : int;
  enqueued_at : int;
  ready_at : int;
  mutable rfo_until : int;
      (* 0 = no upgrade issued; otherwise the tick at which the
         read-for-ownership of the target line completes *)
}

(* Ring buffer; store buffers are small (a handful of entries) but the
   operations are on the simulator's hot path, so avoid list churn. *)
type t = {
  mutable slots : entry array;
  mutable head : int;  (* index of oldest entry *)
  mutable len : int;
}

(* Doubles as the empty-result sentinel of the allocation-free
   accessors: addresses are non-negative, so no real entry aliases it. *)
let sentinel =
  { addr = -1; value = 0; enqueued_at = 0; ready_at = 0; rfo_until = 0 }

let dummy = sentinel

let create () = { slots = Array.make 8 dummy; head = 0; len = 0 }

(* The capacity is a power of two, so a slot index wraps with a mask. *)
let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (cap * 2) dummy in
  for i = 0 to t.len - 1 do
    slots.(i) <- t.slots.((t.head + i) land (cap - 1))
  done;
  t.slots <- slots;
  t.head <- 0

let enqueue t e =
  if t.len = Array.length t.slots then grow t;
  t.slots.((t.head + t.len) land (Array.length t.slots - 1)) <- e;
  t.len <- t.len + 1

let oldest t = if t.len = 0 then sentinel else t.slots.(t.head)

let dequeue_oldest t =
  if t.len = 0 then invalid_arg "Store_buffer.dequeue_oldest: empty";
  let e = t.slots.(t.head) in
  t.slots.(t.head) <- dummy;
  t.head <- (t.head + 1) land (Array.length t.slots - 1);
  t.len <- t.len - 1;
  e

let newest_for t addr =
  (* Scan from newest to oldest; first hit is the forwarding entry. *)
  let mask = Array.length t.slots - 1 in
  let i = ref (t.len - 1) and found = ref sentinel in
  while !i >= 0 do
    let e = t.slots.((t.head + !i) land mask) in
    if e.addr = addr then begin
      found := e;
      i := -1
    end
    else decr i
  done;
  !found
