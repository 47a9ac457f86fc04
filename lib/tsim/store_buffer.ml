(* A ring of parallel int arrays: an entry is a slot index, so buffering
   a store allocates nothing and writes no pointer. Store buffers are
   small (a handful of entries) but on the simulator's hot path. *)
type t = {
  mutable addr : int array;
  mutable value : int array;
  mutable enqueued_at : int array;
  mutable ready_at : int array;
  mutable rfo_until : int array;
  mutable head : int;  (* slot of the oldest entry *)
  mutable len : int;
}

let create () =
  {
    addr = Array.make 8 0;
    value = Array.make 8 0;
    enqueued_at = Array.make 8 0;
    ready_at = Array.make 8 0;
    rfo_until = Array.make 8 0;
    head = 0;
    len = 0;
  }

(* The capacity is a power of two, so a slot index wraps with a mask.
   Growing unrolls the ring to start at slot 0. *)
let grow t =
  let cap = Array.length t.addr in
  let unroll a =
    let b = Array.make (cap * 2) 0 in
    for i = 0 to t.len - 1 do
      Array.unsafe_set b i (Array.unsafe_get a ((t.head + i) land (cap - 1)))
    done;
    b
  in
  t.addr <- unroll t.addr;
  t.value <- unroll t.value;
  t.enqueued_at <- unroll t.enqueued_at;
  t.ready_at <- unroll t.ready_at;
  t.rfo_until <- unroll t.rfo_until;
  t.head <- 0

let enqueue t ~addr ~value ~at ~ready_at =
  if t.len = Array.length t.addr then grow t;
  let i = (t.head + t.len) land (Array.length t.addr - 1) in
  Array.unsafe_set t.addr i addr;
  Array.unsafe_set t.value i value;
  Array.unsafe_set t.enqueued_at i at;
  Array.unsafe_set t.ready_at i ready_at;
  Array.unsafe_set t.rfo_until i 0;
  t.len <- t.len + 1

let drop_oldest t =
  if t.len = 0 then invalid_arg "Store_buffer.drop_oldest: empty";
  t.head <- (t.head + 1) land (Array.length t.addr - 1);
  t.len <- t.len - 1

let set_oldest_rfo t until =
  if t.len = 0 then invalid_arg "Store_buffer.set_oldest_rfo: empty";
  Array.unsafe_set t.rfo_until t.head until

let newest_for t a =
  (* Scan from newest to oldest; the first hit is the forwarding entry. *)
  let mask = Array.length t.addr - 1 in
  let i = ref (t.len - 1) and found = ref (-1) in
  while !i >= 0 do
    let s = (t.head + !i) land mask in
    if Array.unsafe_get t.addr s = a then begin
      found := s;
      i := -1
    end
    else decr i
  done;
  !found
