type t = {
  tags : int array;
  versions : int array;
  mask : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~bits =
  let n = 1 lsl bits in
  { tags = Array.make n (-1); versions = Array.make n (-1); mask = n - 1; hits = 0; misses = 0 }

let access t ~line ~version =
  let i = line land t.mask in
  if t.tags.(i) = line && t.versions.(i) = version then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.tags.(i) <- line;
    t.versions.(i) <- version;
    t.misses <- t.misses + 1;
    false
  end

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.versions 0 (Array.length t.versions) (-1)

let add_hits t k = t.hits <- t.hits + k

let hits t = t.hits

let misses t = t.misses
