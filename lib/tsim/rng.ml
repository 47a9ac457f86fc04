(* The 64-bit state lives in 8 bytes, so that a draw reads and writes it
   unboxed rather than allocating a fresh [int64] each time. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64, Steele et al. "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). *)
let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let z = Int64.add (get64 t 0) golden in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

let split t = create (next t)

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 random bits mapped to [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

let float t = unit_float t

let bool t = Int64.logand (next t) 1L = 1L

(* A draw [unit_float t < p] compares x·2^-53 with p, x the draw's top
   53 bits; as x is an integer, that is x < ⌈p·2^53⌉, and p·2^53 and its
   ceiling are exact. So the loop compares integers, drawing the same
   numbers as the float test would. A p of 1 or more draws nothing; its
   bound, 2^53, is one no p below 1 reaches. *)
let two_53 = 1 lsl 53

let geometric_bound p =
  if p >= 1.0 then two_53
  else if p > 0.0 then Float.to_int (Float.ceil (p *. 9007199254740992.0))
  else 0

let geometric t ~bound ~cap =
  if bound >= two_53 then 0
  else begin
    let n = ref 0 in
    while !n < cap && not (Int64.to_int (Int64.shift_right_logical (next t) 11) < bound) do
      incr n
    done;
    !n
  end
