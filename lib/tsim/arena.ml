type state = {
  s_mem : int array;
  s_pc : int array;
  s_wait : int array;
  s_len : int array;
  s_regs : int array;
  s_buf : int array;
  s_base : int array;
}

type t = {
  addrs : int;
  regs : int;
  base : int array;
  key : int array;  (* the packed key being interned *)
  mutable words : int array;  (* packed keys, back to back *)
  mutable used : int;
  mutable table : int array;  (* id + 1 per slot, 0 = empty *)
  mutable off : int array;  (* per id: key offset in [words] *)
  mutable klen : int array;  (* per id: key length *)
  mutable hash : int array;  (* per id: FNV-1a of the key *)
  mutable sleeps : int array;  (* per id: sleep mask, -1 = not expanded *)
  mutable size : int;
}

(* [Array.blit] is a C call that runs the write barrier on every word
   once the destination lives in the major heap; a typed loop over int
   arrays stores plain words. *)
let blit_ints (src : int array) so (dst : int array) d len =
  for k = 0 to len - 1 do
    Array.unsafe_set dst (d + k) (Array.unsafe_get src (so + k))
  done

let grow a need fill =
  let cap = Array.length a in
  if need <= cap then a
  else begin
    let c = ref (max cap 1) in
    while !c < need do
      c := 2 * !c
    done;
    let a' = Array.make !c fill in
    blit_ints a 0 a' 0 cap;
    a'
  end

let create ~addrs ~regs ~bufcap =
  let n = Array.length bufcap in
  let base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    base.(i + 1) <- base.(i) + (3 * bufcap.(i))
  done;
  let ids = 128 in
  {
    addrs;
    regs;
    base;
    key = Array.make (max 1 (addrs + (n * (3 + regs)) + base.(n))) 0;
    words = Array.make 1024 0;
    used = 0;
    table = Array.make 256 0;
    off = Array.make ids 0;
    klen = Array.make ids 0;
    hash = Array.make ids 0;
    sleeps = Array.make ids (-1);
    size = 0;
  }

let scratch t =
  let n = Array.length t.base - 1 in
  {
    s_mem = Array.make t.addrs 0;
    s_pc = Array.make n 0;
    s_wait = Array.make n 0;
    s_len = Array.make n 0;
    s_regs = Array.make (n * t.regs) 0;
    s_buf = Array.make t.base.(n) 0;
    s_base = t.base;
  }

let copy ~src ~dst =
  let all a b = blit_ints a 0 b 0 (Array.length a) in
  all src.s_mem dst.s_mem;
  all src.s_pc dst.s_pc;
  all src.s_wait dst.s_wait;
  all src.s_len dst.s_len;
  all src.s_regs dst.s_regs;
  all src.s_buf dst.s_buf

let clear s =
  let zero a = Array.fill a 0 (Array.length a) 0 in
  zero s.s_mem;
  zero s.s_pc;
  zero s.s_wait;
  zero s.s_len;
  zero s.s_regs

let newest s i a =
  let b = s.s_base.(i) in
  let j = ref (s.s_len.(i) - 1) in
  while !j >= 0 && s.s_buf.(b + (3 * !j)) <> a do
    decr j
  done;
  if !j >= 0 then b + (3 * !j) else -1

(* Pack [c] into [t.key]; returns the key length. *)
let encode t c =
  let kbuf = t.key in
  let p = ref 0 in
  for a = 0 to t.addrs - 1 do
    Array.unsafe_set kbuf !p (Array.unsafe_get c.s_mem a);
    incr p
  done;
  for i = 0 to Array.length c.s_pc - 1 do
    Array.unsafe_set kbuf !p c.s_pc.(i);
    incr p;
    Array.unsafe_set kbuf !p c.s_wait.(i);
    incr p;
    let l = c.s_len.(i) in
    Array.unsafe_set kbuf !p l;
    incr p;
    let rb = i * t.regs in
    for r = 0 to t.regs - 1 do
      Array.unsafe_set kbuf !p (Array.unsafe_get c.s_regs (rb + r));
      incr p
    done;
    let b = t.base.(i) in
    for j = 0 to (3 * l) - 1 do
      Array.unsafe_set kbuf !p (Array.unsafe_get c.s_buf (b + j));
      incr p
    done
  done;
  !p

let fnv kbuf len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Array.unsafe_get kbuf i) * 0x01000193 land max_int
  done;
  !h

let rehash t =
  let cap = 2 * Array.length t.table in
  let tbl = Array.make cap 0 in
  let mask = cap - 1 in
  for id = 0 to t.size - 1 do
    let slot = ref (t.hash.(id) land mask) in
    while tbl.(!slot) <> 0 do
      slot := (!slot + 1) land mask
    done;
    tbl.(!slot) <- id + 1
  done;
  t.table <- tbl

(* Store the key in [t.key.(0..klen-1)] under a fresh id at [slot]. *)
let add t klen h slot =
  let id = t.size in
  if id >= Array.length t.off then begin
    t.off <- grow t.off (id + 1) 0;
    t.klen <- grow t.klen (id + 1) 0;
    t.hash <- grow t.hash (id + 1) 0;
    t.sleeps <- grow t.sleeps (id + 1) (-1)
  end;
  let off = t.used in
  if off + klen > Array.length t.words then t.words <- grow t.words (off + klen) 0;
  blit_ints t.key 0 t.words off klen;
  t.used <- off + klen;
  t.off.(id) <- off;
  t.klen.(id) <- klen;
  t.hash.(id) <- h;
  t.table.(slot) <- id + 1;
  t.size <- id + 1;
  if 2 * t.size >= Array.length t.table then rehash t;
  id

let intern t c =
  let klen = encode t c in
  let kbuf = t.key in
  let h = fnv kbuf klen in
  let tbl = t.table in
  let mask = Array.length tbl - 1 in
  let words = t.words and off = t.off and kl = t.klen and kh = t.hash in
  let slot = ref (h land mask) in
  let found = ref (-1) in
  let probing = ref true in
  while !probing do
    let v = Array.unsafe_get tbl !slot in
    if v = 0 then probing := false
    else begin
      let cand = v - 1 in
      if Array.unsafe_get kh cand = h && Array.unsafe_get kl cand = klen then begin
        let o = Array.unsafe_get off cand in
        let i = ref 0 in
        while
          !i < klen && Array.unsafe_get words (o + !i) = Array.unsafe_get kbuf !i
        do
          incr i
        done;
        if !i = klen then begin
          found := cand;
          probing := false
        end
        else slot := (!slot + 1) land mask
      end
      else slot := (!slot + 1) land mask
    end
  done;
  if !found >= 0 then !found else add t klen h !slot

let decode t id dst =
  let words = t.words in
  let p = ref t.off.(id) in
  for a = 0 to t.addrs - 1 do
    dst.s_mem.(a) <- Array.unsafe_get words !p;
    incr p
  done;
  for i = 0 to Array.length dst.s_pc - 1 do
    dst.s_pc.(i) <- Array.unsafe_get words !p;
    incr p;
    dst.s_wait.(i) <- Array.unsafe_get words !p;
    incr p;
    let l = Array.unsafe_get words !p in
    incr p;
    dst.s_len.(i) <- l;
    let rb = i * t.regs in
    for r = 0 to t.regs - 1 do
      dst.s_regs.(rb + r) <- Array.unsafe_get words !p;
      incr p
    done;
    let b = t.base.(i) in
    for j = 0 to (3 * l) - 1 do
      dst.s_buf.(b + j) <- Array.unsafe_get words !p;
      incr p
    done
  done

let size t = t.size

(* Empty the table slot by slot: each id's slot is on its probe path
   from its cached hash, so clearing costs O(ids · probe length), not
   O(table capacity). Probing skips the slots already cleared. *)
let reset t =
  let tbl = t.table in
  let mask = Array.length tbl - 1 in
  for id = 0 to t.size - 1 do
    let slot = ref (t.hash.(id) land mask) in
    while Array.unsafe_get tbl !slot <> id + 1 do
      slot := (!slot + 1) land mask
    done;
    Array.unsafe_set tbl !slot 0;
    t.sleeps.(id) <- -1
  done;
  t.used <- 0;
  t.size <- 0

let sleep t id = t.sleeps.(id)

let set_sleep t id mask = t.sleeps.(id) <- mask
