exception Use_after_free of { addr : int; tid : int; at : int; write : bool }

exception Out_of_memory of { requested : int; available : int }

let line_shift = 3

(* Pages hold a whole number of lines, so no line straddles two pages. *)
let page_shift = 12

let page_words = 1 lsl page_shift

let page_mask = page_words - 1

let page_lines = page_words lsr line_shift

type page = {
  data : int array;
  version : int array;  (* per line *)
  owner : int array;  (* per line, last committed writer tid *)
  reader : int array;  (* per line, last reader tid other than owner *)
  poisoned : Bytes.t;  (* per word, 0 = live *)
}

let fresh_page () =
  {
    data = Array.make page_words 0;
    version = Array.make page_lines 0;
    owner = Array.make page_lines (-1);
    reader = Array.make page_lines (-1);
    poisoned = Bytes.make page_words '\000';
  }

(* Every unbacked page-table entry of every memory points here. It holds
   the fresh-memory values and is never written: mutators back a page of
   their own before changing anything. *)
let zero_page = fresh_page ()

type t = {
  words : int;
  pages : page array;
  mutable resident : int;  (* pages backed so far *)
  mutable bump : int;  (* global-arena allocation pointer *)
  mutable writes : int;
}

let line_of addr = addr lsr line_shift

let create ~words =
  if words < 0 then invalid_arg "Memory.create: negative size";
  {
    words;
    pages = Array.make ((words + page_mask) lsr page_shift) zero_page;
    resident = 0;
    (* Word 0 is reserved so that 0 can serve as a null pointer. *)
    bump = 1 lsl line_shift;
    writes = 0;
  }

let resident_words t = t.resident * page_words

let[@inline never] out_of_range t addr =
  invalid_arg (Printf.sprintf "Memory: address %d outside [0, %d)" addr t.words)

(* Offsets within a page are masked, so they index a page's arrays
   safely; only the page lookup needs a bounds check. *)
let offset addr = addr land page_mask

let line_in_page addr = offset addr lsr line_shift

let page t addr =
  if addr < 0 || addr >= t.words then out_of_range t addr;
  Array.unsafe_get t.pages (addr lsr page_shift)

(* The page holding [addr], backed first if it is still the zero page. *)
let backed t addr =
  let p = page t addr in
  if p != zero_page then p
  else begin
    let p = fresh_page () in
    Array.unsafe_set t.pages (addr lsr page_shift) p;
    t.resident <- t.resident + 1;
    p
  end

let read t addr = Array.unsafe_get (page t addr).data (offset addr)

(* Write [v] to [addr] in its backed page [p]: bump the line's version
   and make [tid] its owner, with no reader. *)
let write_backed t p ~tid addr v =
  t.writes <- t.writes + 1;
  let l = line_in_page addr in
  Array.unsafe_set p.data (offset addr) v;
  Array.unsafe_set p.version l (Array.unsafe_get p.version l + 1);
  Array.unsafe_set p.owner l tid;
  Array.unsafe_set p.reader l (-1)

let write t ~tid ~at:_ addr v = write_backed t (backed t addr) ~tid addr v

let write_in t p ~tid addr v =
  let p = if p != zero_page then p else backed t addr in
  write_backed t p ~tid addr v;
  Array.unsafe_get p.version (line_in_page addr)

let set_reader t p addr r =
  let l = line_in_page addr in
  if Array.unsafe_get p.reader l <> r then
    Array.unsafe_set (if p != zero_page then p else backed t addr).reader l r

let line_version t addr = Array.unsafe_get (page t addr).version (line_in_page addr)

let is_poisoned t addr = Bytes.unsafe_get (page t addr).poisoned (offset addr) <> '\000'

let set_poison t addr ~len c =
  for i = addr to addr + len - 1 do
    if Bytes.unsafe_get (page t i).poisoned (offset i) <> c then
      Bytes.unsafe_set (backed t i).poisoned (offset i) c
  done

let poison t addr ~len = set_poison t addr ~len '\001'

let unpoison t addr ~len = set_poison t addr ~len '\000'

let align_line n =
  let mask = (1 lsl line_shift) - 1 in
  (n + mask) land lnot mask

let alloc_global t n =
  if n <= 0 then invalid_arg "Memory.alloc_global: size must be positive";
  let base = align_line t.bump in
  let next = base + align_line n in
  if next > t.words then
    raise (Out_of_memory { requested = n; available = t.words - base });
  t.bump <- next;
  base

let globals_end t = t.bump
