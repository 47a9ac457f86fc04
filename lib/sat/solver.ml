(* CDCL SAT solver: two-watched-literal propagation, first-UIP learning,
   activity decisions with phase saving, Luby restarts, assumptions.
   See solver.mli for why this stays deliberately classical.

   Storage layout: the whole clause database lives in one flat int-array
   arena. A clause is an offset [cref] into the arena: the header word
   at [cref] packs [size lsl 2 lor removed lsl 1 lor learnt], the
   literals follow inline at [cref + 1 .. cref + size], with the two
   watched literals at slots 1 and 2. Offset 0 is reserved as the null
   reference ([cref_undef], doubling as "no reason"), so the arena
   starts writing at word 1. Watch lists are unboxed int vectors of
   (cref, blocker) pairs — the blocker is a literal of the clause (kept
   in sync with the other watch on every touch) whose being true proves
   the clause satisfied, so most visits skip without dereferencing the
   clause at all. Learned and scratch vectors are int vectors too:
   propagation, analysis and clause addition allocate nothing on their
   steady-state paths, and clause references survive arena reallocation
   (they are offsets, not pointers). Retired clauses ({!simplify},
   {!retire}) are dropped from the watch lists and the learned count,
   and carry the removed bit so an index that still names them skips
   them; their arena words are not reclaimed — the encodings here are
   thousands of clauses, far below the point where arena compaction
   would pay. *)

module Span = Tbtso_obs.Span

type lit = int

let pos v = v lsl 1
let neg v = (v lsl 1) lor 1
let negate l = l lxor 1
let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0

let cref_undef = 0

(* Growable unboxed int vector: watch lists ((cref, blocker) pairs, so
   always an even count), the learned-clause cref list and the
   analysis / add-clause scratch buffers. *)
type ivec = { mutable idata : int array; mutable isz : int }

let ivec_make () = { idata = [||]; isz = 0 }

(* Typed copies. [Array.blit] is a C call that runs the write barrier on
   every word once the destination is in the major heap; these loops
   store plain words. *)
let blit_ints (src : int array) (dst : int array) len =
  for k = 0 to len - 1 do
    Array.unsafe_set dst k (Array.unsafe_get src k)
  done

let blit_bools (src : bool array) (dst : bool array) len =
  for k = 0 to len - 1 do
    Array.unsafe_set dst k (Array.unsafe_get src k)
  done

let ivec_push v x =
  let cap = Array.length v.idata in
  if v.isz = cap then begin
    let d = Array.make (max 8 (2 * cap)) 0 in
    blit_ints v.idata d v.isz;
    v.idata <- d
  end;
  v.idata.(v.isz) <- x;
  v.isz <- v.isz + 1

(* Watch-list entries are (cref, blocker) pairs; pushing them through
   one capacity check halves the branch count on the attach and
   watch-move hot paths. *)
let ivec_push2 v x y =
  let cap = Array.length v.idata in
  if v.isz + 2 > cap then begin
    let d = Array.make (max 8 (max (v.isz + 2) (2 * cap))) 0 in
    blit_ints v.idata d v.isz;
    v.idata <- d
  end;
  let i = v.isz in
  v.idata.(i) <- x;
  v.idata.(i + 1) <- y;
  v.isz <- i + 2

(* Pre-grow capacity for [extra] more ints so a known burst of pushes
   (an encoder attaching a ladder of clauses to one literal) costs one
   allocation instead of O(log) doublings. Contents and size are
   untouched — reservation can never change solver behaviour. *)
let ivec_reserve v extra =
  let need = v.isz + extra in
  let cap = Array.length v.idata in
  if need > cap then begin
    let d = Array.make (max 8 (max need (2 * cap))) 0 in
    blit_ints v.idata d v.isz;
    v.idata <- d
  end

(* The filler of unclaimed watch slots. Never read or written: every
   access to [watches] is by the literal of an existing variable. *)
let no_watches = ivec_make ()

type stats = {
  solves : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
  removed : int;
}

type t = {
  (* Clause arena. *)
  mutable ca : int array;
  mutable ca_used : int;
  (* Per-variable state, grown by [new_var]. *)
  mutable nvars : int;
  mutable assign : int array;  (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* cref; [cref_undef] = decision or root unit *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;  (* conflict-analysis scratch *)
  mutable model : int array;  (* snapshot of [assign] after SAT *)
  mutable watches : ivec array;
      (* indexed by literal; (cref, blocker)*. Slots at or past
         [2 * nvars] hold [no_watches] until [new_var] claims them. *)
  (* Trail. *)
  mutable trail : lit array;
  mutable trail_sz : int;
  mutable trail_lim : int array;  (* trail size at each decision level *)
  mutable n_levels : int;
  mutable qhead : int;
  (* Heuristics. Decision candidates live in a max-heap ordered by
     activity ([heap] holds variables, [heap_pos] maps a variable to its
     slot or -1): picking a branch variable is O(log n) instead of a
     full activity scan, which dominated outcome-enumeration passes that
     decide thousands of times between conflicts. Variables re-enter the
     heap when unassigned by {!cancel_until}; stale (assigned) entries
     are discarded lazily by {!pick_branch}. *)
  mutable var_inc : float;
  mutable heap : int array;
  mutable heap_sz : int;
  mutable heap_pos : int array;
  (* Status and bookkeeping. *)
  mutable ok : bool;
  learnts : ivec;  (* crefs, oldest first *)
  tmp_tail : ivec;  (* analysis: sub-current-level learned literals *)
  tmp_clear : ivec;  (* analysis: seen flags to reset *)
  tmp_add : ivec;  (* add_clause: deduped literals, acceptance order *)
  (* Guard index ({!new_guard}): [guard_occ.(v)] is [None] for an
     ordinary variable, else the clauses added or learned with the
     literal [neg v] while [v] is a live guard. [swept] is the root trail
     length at which no live clause was satisfied by a root literal,
     after the last sweep or fast retirement; [retire] takes its fast
     path only from there. *)
  mutable guard_occ : ivec option array;
  mutable live_guards : int;
  mutable swept : int;
  mutable lit_mark : bool array;  (* retire: watch lists to compact *)
  tmp_dirty : ivec;  (* retire: the marked literals *)
  mutable n_clauses : int;
  mutable n_solves : int;
  mutable n_removed : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable n_learned : int;
  mutable restarts : int;
  (* Profiling handles (no-ops until [set_profiler]). Handles are
     domain-local, so attach the profiler on the solving domain. *)
  mutable ph_propagate : Span.phase;
  mutable ph_analyze : Span.phase;
  mutable ph_simplify : Span.phase;
}

let create () =
  {
    ca = Array.make 1024 0;
    ca_used = 1;
    (* word 0 is [cref_undef] *)
    nvars = 0;
    assign = [||];
    level = [||];
    reason = [||];
    activity = [||];
    phase = [||];
    seen = [||];
    model = [||];
    watches = [||];
    trail = [||];
    trail_sz = 0;
    trail_lim = [||];
    n_levels = 0;
    qhead = 0;
    var_inc = 1.0;
    heap = [||];
    heap_sz = 0;
    heap_pos = [||];
    ok = true;
    learnts = ivec_make ();
    tmp_tail = ivec_make ();
    tmp_clear = ivec_make ();
    tmp_add = ivec_make ();
    guard_occ = [||];
    live_guards = 0;
    swept = 0;
    lit_mark = [||];
    tmp_dirty = ivec_make ();
    n_clauses = 0;
    n_solves = 0;
    n_removed = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    n_learned = 0;
    restarts = 0;
    ph_propagate = Span.phase Span.disabled "sat.propagate";
    ph_analyze = Span.phase Span.disabled "sat.analyze";
    ph_simplify = Span.phase Span.disabled "sat.simplify";
  }

let set_profiler s p =
  s.ph_propagate <- Span.phase p "sat.propagate";
  s.ph_analyze <- Span.phase p "sat.analyze";
  s.ph_simplify <- Span.phase p "sat.simplify"

(* Clause-arena access. *)
let clause_size ca cref = ca.(cref) lsr 2

let clause_learnt ca cref = ca.(cref) land 1 = 1

let clause_removed ca cref = ca.(cref) land 2 <> 0

let mark_removed ca cref = ca.(cref) <- ca.(cref) lor 2

let ca_ensure s extra =
  let cap = Array.length s.ca in
  if s.ca_used + extra > cap then begin
    let newcap = ref (max 1024 (2 * cap)) in
    while s.ca_used + extra > !newcap do
      newcap := 2 * !newcap
    done;
    let d = Array.make !newcap 0 in
    blit_ints s.ca d s.ca_used;
    s.ca <- d
  end

(* Reserve a clause of [size] literals; the caller fills slots
   [cref + 1 .. cref + size]. *)
let alloc_clause s size learnt =
  ca_ensure s (size + 1);
  let cref = s.ca_used in
  s.ca.(cref) <- (size lsl 2) lor (if learnt then 1 else 0);
  s.ca_used <- cref + size + 1;
  cref

let grow_int a n fill =
  let cap = Array.length !a in
  if n > cap then begin
    let d = Array.make (max 16 (max n (2 * cap))) fill in
    blit_ints !a d cap;
    a := d
  end

(* Activity max-heap over decision candidates. [heap] has capacity
   ≥ [nvars] (grown by [new_var]), so inserts never reallocate. *)
let heap_lt s v w = s.activity.(v) > s.activity.(w)

let heap_up s i0 =
  let v = s.heap.(i0) in
  let i = ref i0 in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    heap_lt s v s.heap.(p)
  do
    let p = (!i - 1) / 2 in
    s.heap.(!i) <- s.heap.(p);
    s.heap_pos.(s.heap.(!i)) <- !i;
    i := p
  done;
  s.heap.(!i) <- v;
  s.heap_pos.(v) <- !i

let heap_down s i0 =
  let v = s.heap.(i0) in
  let i = ref i0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 in
    if l >= s.heap_sz then continue_ := false
    else begin
      let r = l + 1 in
      let c =
        if r < s.heap_sz && heap_lt s s.heap.(r) s.heap.(l) then r else l
      in
      if heap_lt s s.heap.(c) v then begin
        s.heap.(!i) <- s.heap.(c);
        s.heap_pos.(s.heap.(!i)) <- !i;
        i := c
      end
      else continue_ := false
    end
  done;
  s.heap.(!i) <- v;
  s.heap_pos.(v) <- !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_sz) <- v;
    s.heap_pos.(v) <- s.heap_sz;
    s.heap_sz <- s.heap_sz + 1;
    heap_up s (s.heap_sz - 1)
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  let gi r fill =
    let a = ref r in
    grow_int a (v + 1) fill;
    !a
  in
  s.assign <- gi s.assign (-1);
  s.level <- gi s.level 0;
  s.model <- gi s.model (-1);
  s.reason <- gi s.reason cref_undef;
  (let cap = Array.length s.activity in
   if v >= cap then begin
     let d = Array.make (max 16 (2 * max 1 cap)) 0.0 in
     Array.blit s.activity 0 d 0 cap;
     s.activity <- d
   end);
  (let cap = Array.length s.phase in
   if v >= cap then begin
     let d = Array.make (max 16 (2 * max 1 cap)) false in
     blit_bools s.phase d cap;
     s.phase <- d
   end);
  (let cap = Array.length s.seen in
   if v >= cap then begin
     let d = Array.make (max 16 (2 * max 1 cap)) false in
     blit_bools s.seen d cap;
     s.seen <- d
   end);
  (let want = 2 * (v + 1) in
   let cap = Array.length s.watches in
   if want > cap then begin
     (* Grown from [no_watches], an old value: a young initial value
        would make [Array.make] force a minor collection once the array
        is too large for the minor heap. *)
     let ncap = max 32 (max want (2 * cap)) in
     let d = Array.make ncap no_watches in
     Array.blit s.watches 0 d 0 cap;
     s.watches <- d;
     let m = Array.make ncap false in
     blit_bools s.lit_mark m (Array.length s.lit_mark);
     s.lit_mark <- m
   end);
  s.watches.(2 * v) <- ivec_make ();
  s.watches.((2 * v) + 1) <- ivec_make ();
  (let cap = Array.length s.guard_occ in
   if v >= cap then begin
     let d = Array.make (max 16 (2 * cap)) None in
     Array.blit s.guard_occ 0 d 0 cap;
     s.guard_occ <- d
   end);
  (let a = ref s.trail in
   grow_int a (v + 1) 0;
   s.trail <- !a);
  (let a = ref s.trail_lim in
   grow_int a (v + 2) 0;
   s.trail_lim <- !a);
  (let a = ref s.heap in
   grow_int a (v + 1) 0;
   s.heap <- !a);
  (let a = ref s.heap_pos in
   grow_int a (v + 1) (-1);
   s.heap_pos <- !a);
  heap_insert s v;
  v

let n_vars s = s.nvars

let n_clauses s = s.n_clauses

let ok s = s.ok

(* -1 unknown / 0 false / 1 true. *)
let lit_val s l =
  let a = Array.unsafe_get s.assign (lit_var l) in
  if a < 0 then -1 else a lxor (l land 1)

let enqueue s l reason =
  let v = lit_var l in
  s.assign.(v) <- 1 lxor (l land 1);
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_sz) <- l;
  s.trail_sz <- s.trail_sz + 1

let new_level s =
  (let cap = Array.length s.trail_lim in
   if s.n_levels >= cap then begin
     let d = Array.make (max 16 (2 * max 1 cap)) 0 in
     blit_ints s.trail_lim d cap;
     s.trail_lim <- d
   end);
  s.trail_lim.(s.n_levels) <- s.trail_sz;
  s.n_levels <- s.n_levels + 1

let cancel_until s lvl =
  if s.n_levels > lvl then begin
    let lim = s.trail_lim.(lvl) in
    for i = s.trail_sz - 1 downto lim do
      let v = lit_var s.trail.(i) in
      s.phase.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- cref_undef;
      heap_insert s v
    done;
    s.trail_sz <- lim;
    s.qhead <- lim;
    s.n_levels <- lvl
  end

(* Record [cref] in the guard index of every guard whose negation it
   contains. One array read per literal for clauses without guards. *)
let index_guards s cref =
  if s.live_guards > 0 then begin
    let ca = s.ca in
    for k = 1 to clause_size ca cref do
      let l = ca.(cref + k) in
      if l land 1 = 1 then
        match s.guard_occ.(lit_var l) with
        | Some occ -> ivec_push occ cref
        | None -> ()
    done
  end

(* Watch the clause through its slot-1 and slot-2 literals, each entry
   carrying the other watch as its blocker. *)
let attach s cref =
  let l0 = s.ca.(cref + 1) in
  let l1 = s.ca.(cref + 2) in
  ivec_push2 s.watches.(l0) cref l1;
  ivec_push2 s.watches.(l1) cref l0

(* Capacity hint for a literal's watch list: room for [n] more
   (cref, blocker) pairs. Encoders that know a literal is about to
   watch a whole ladder of clauses (e.g. the reified order comparisons
   of the axiomatic encode) reserve once instead of doubling through
   the attach loop. No-op on semantics. *)
let reserve_watch s l n =
  if l >= 0 && l < 2 * s.nvars then
    ivec_reserve s.watches.(l) (2 * n)

(* Unit propagation. Returns the conflicting clause, or [cref_undef] if
   the assignment closed without conflict. A clause lives in the watch
   lists of its two watched literals; when a watched literal becomes
   false we first test the entry's blocker (a literal of the clause —
   true means satisfied, skip without loading the clause), then either
   find a replacement watch, keep it satisfied through the other watch,
   propagate the other watch, or report it as the conflict. *)
let propagate s =
  let confl = ref cref_undef in
  while !confl = cref_undef && s.qhead < s.trail_sz do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let fl = negate p in
    let ws = s.watches.(fl) in
    let n = ws.isz in
    let wd = ws.idata in
    let i = ref 0 in
    let j = ref 0 in
    while !i < n do
      let cref = Array.unsafe_get wd !i in
      let blocker = Array.unsafe_get wd (!i + 1) in
      i := !i + 2;
      if lit_val s blocker = 1 then begin
        Array.unsafe_set wd !j cref;
        Array.unsafe_set wd (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let ca = s.ca in
        let size = clause_size ca cref in
        if Array.unsafe_get ca (cref + 1) = fl then begin
          Array.unsafe_set ca (cref + 1) (Array.unsafe_get ca (cref + 2));
          Array.unsafe_set ca (cref + 2) fl
        end;
        let first = Array.unsafe_get ca (cref + 1) in
        if lit_val s first = 1 then begin
          Array.unsafe_set wd !j cref;
          Array.unsafe_set wd (!j + 1) first;
          j := !j + 2
        end
        else begin
          (* Look for a non-false replacement watch. *)
          let k = ref 3 in
          while !k <= size && lit_val s (Array.unsafe_get ca (cref + !k)) = 0 do
            incr k
          done;
          if !k <= size then begin
            let w = Array.unsafe_get ca (cref + !k) in
            Array.unsafe_set ca (cref + 2) w;
            Array.unsafe_set ca (cref + !k) fl;
            (* [w] is non-false, hence never [fl]: this push cannot alias
               the list being compacted. *)
            ivec_push2 s.watches.(w) cref first
          end
          else begin
            Array.unsafe_set wd !j cref;
            Array.unsafe_set wd (!j + 1) first;
            j := !j + 2;
            if lit_val s first = 0 then begin
              (* Conflict: keep the remaining watches and stop. *)
              while !i < n do
                Array.unsafe_set wd !j (Array.unsafe_get wd !i);
                Array.unsafe_set wd (!j + 1) (Array.unsafe_get wd (!i + 1));
                j := !j + 2;
                i := !i + 2
              done;
              confl := cref;
              s.qhead <- s.trail_sz
            end
            else enqueue s first cref
          end
        end
      end
    done;
    ws.isz <- !j
  done;
  !confl

let rescale_activity s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  (* Rescaling divides every activity uniformly: heap order unchanged. *)
  if s.activity.(v) > 1e100 then rescale_activity s;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* First-UIP conflict analysis. Learns a clause (asserting literal at
   slot 1, a maximal-backjump-level literal at slot 2 so it can be
   watched), records it in the arena and the learned set, and returns
   its cref with the backjump level. Assumes the conflict is at a
   level > 0. *)
let analyze s confl =
  let cur = s.n_levels in
  let tail = s.tmp_tail in
  let to_clear = s.tmp_clear in
  tail.isz <- 0;
  to_clear.isz <- 0;
  let btlevel = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  (* -1: initial round, consider every literal of the conflict clause;
     afterwards [p] is the trail literal being resolved on and slot 1 of
     its reason clause (== p) is skipped. *)
  let c = ref confl in
  let idx = ref (s.trail_sz - 1) in
  let uip = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let ca = s.ca in
    let base = !c in
    let size = clause_size ca base in
    let start = if !p < 0 then 1 else 2 in
    for k = start to size do
      let q = ca.(base + k) in
      let v = lit_var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        ivec_push to_clear v;
        bump s v;
        if s.level.(v) >= cur then incr counter
        else begin
          ivec_push tail q;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* Next trail literal (at the current level) to resolve on. *)
    while not s.seen.(lit_var s.trail.(!idx)) do
      decr idx
    done;
    let pl = s.trail.(!idx) in
    decr idx;
    s.seen.(lit_var pl) <- false;
    decr counter;
    if !counter = 0 then begin
      uip := pl;
      continue_ := false
    end
    else begin
      p := pl;
      c := s.reason.(lit_var pl)
    end
  done;
  for k = 0 to to_clear.isz - 1 do
    s.seen.(to_clear.idata.(k)) <- false
  done;
  (* Learned clause: ¬uip first, then the tail newest-discovered first
     (the historical order, preserved for deterministic search). *)
  let m = tail.isz in
  let cref = alloc_clause s (m + 1) true in
  let ca = s.ca in
  ca.(cref + 1) <- negate !uip;
  for k = 0 to m - 1 do
    ca.(cref + 2 + k) <- tail.idata.(m - 1 - k)
  done;
  (* Put a literal of the backjump level at slot 2 so it can be watched. *)
  if m > 1 then begin
    let best = ref 2 in
    for k = 3 to m + 1 do
      if s.level.(lit_var ca.(cref + k)) > s.level.(lit_var ca.(cref + !best))
      then best := k
    done;
    let tmp = ca.(cref + 2) in
    ca.(cref + 2) <- ca.(cref + !best);
    ca.(cref + !best) <- tmp
  end;
  (cref, !btlevel)

(* Clause addition, root-level simplified: dedupe, drop false-at-root
   literals, ignore satisfied and tautological clauses. [tmp_add]
   collects the kept literals in acceptance order; the stored clause
   reverses them, preserving the historical literal order exactly.
   [addc_lit] accepts one literal (returning [false] once the clause is
   known satisfied or tautological), [addc_finish] commits. *)
let addc_lit s l =
  let keep = s.tmp_add in
  match lit_val s l with
  | 1 when s.level.(lit_var l) = 0 -> false
  | 0 when s.level.(lit_var l) = 0 -> true
  | _ ->
      let taut = ref false in
      let dup = ref false in
      for k = 0 to keep.isz - 1 do
        if keep.idata.(k) = negate l then taut := true
        else if keep.idata.(k) = l then dup := true
      done;
      if !taut then false
      else begin
        if not !dup then ivec_push keep l;
        true
      end

let addc_finish s =
  let keep = s.tmp_add in
  match keep.isz with
  | 0 -> s.ok <- false
  | 1 ->
      s.n_clauses <- s.n_clauses + 1;
      let l = keep.idata.(0) in
      (match lit_val s l with
      | 1 -> ()
      | 0 -> s.ok <- false
      | _ -> enqueue s l cref_undef)
  | m ->
      let cref = alloc_clause s m false in
      let ca = s.ca in
      for k = 0 to m - 1 do
        ca.(cref + 1 + k) <- keep.idata.(m - 1 - k)
      done;
      s.n_clauses <- s.n_clauses + 1;
      attach s cref;
      index_guards s cref

let add_clause s lits =
  if s.ok then begin
    s.tmp_add.isz <- 0;
    let rec go = function
      | [] -> addc_finish s
      | l :: r -> if addc_lit s l then go r else ()
    in
    go lits
  end

let add_lits s lits len =
  if s.ok then begin
    s.tmp_add.isz <- 0;
    let rec go i =
      if i >= len then addc_finish s
      else if addc_lit s lits.(i) then go (i + 1)
    in
    go 0
  end

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let rec go size seq i =
    if size - 1 = i then 1 lsl seq
    else if i >= size / 2 then go (size / 2) (seq - 1) (i - (size / 2))
    else go (size / 2) (seq - 1) i
  in
  let rec outer size seq =
    if size >= i + 1 then go size seq i else outer ((2 * size) + 1) (seq + 1)
  in
  outer 1 0

(* Pop until an unassigned variable surfaces; assigned entries are stale
   (their variables re-enter on backtrack) and are simply discarded. An
   empty heap means every variable is assigned: a full model. *)
let pick_branch s =
  let v = ref (-1) in
  while !v < 0 && s.heap_sz > 0 do
    let x = s.heap.(0) in
    s.heap_sz <- s.heap_sz - 1;
    s.heap_pos.(x) <- -1;
    if s.heap_sz > 0 then begin
      let last = s.heap.(s.heap_sz) in
      s.heap.(0) <- last;
      s.heap_pos.(last) <- 0;
      heap_down s 0
    end;
    if s.assign.(x) < 0 then v := x
  done;
  !v

let solve ?(assumptions = []) s =
  cancel_until s 0;
  s.n_solves <- s.n_solves + 1;
  if not s.ok then false
  else begin
    let asn = Array.of_list assumptions in
    let nasn = Array.length asn in
    let restart_base = 100 in
    let conflicts_budget = ref (restart_base * luby s.restarts) in
    let result = ref None in
    while !result = None do
      Span.start s.ph_propagate;
      let p0 = s.propagations in
      let confl = propagate s in
      Span.stop s.ph_propagate;
      Span.items s.ph_propagate (s.propagations - p0);
      if confl <> cref_undef then begin
        s.conflicts <- s.conflicts + 1;
        decr conflicts_budget;
        if s.n_levels = 0 then begin
          s.ok <- false;
          result := Some false
        end
        else begin
          Span.start s.ph_analyze;
          let learnt, btlevel = analyze s confl in
          Span.stop s.ph_analyze;
          Span.items s.ph_analyze 1;
          cancel_until s btlevel;
          let first = s.ca.(learnt + 1) in
          if clause_size s.ca learnt = 1 then enqueue s first cref_undef
          else begin
            attach s learnt;
            enqueue s first learnt
          end;
          ivec_push s.learnts learnt;
          index_guards s learnt;
          s.n_learned <- s.n_learned + 1;
          s.var_inc <- s.var_inc /. 0.95
        end
      end
      else if !conflicts_budget <= 0 && s.n_levels > nasn then begin
        (* Restart: rewind to the root; the assumption prefix is re-made
           by the decision steps below. *)
        s.restarts <- s.restarts + 1;
        conflicts_budget := restart_base * luby s.restarts;
        cancel_until s 0
      end
      else if s.n_levels < nasn then begin
        (* Extend the assumption prefix: one level per assumption, a
           dummy level when it is already implied. *)
        let a = asn.(s.n_levels) in
        match lit_val s a with
        | 1 -> new_level s
        | 0 -> result := Some false
        | _ ->
            new_level s;
            enqueue s a cref_undef
      end
      else begin
        match pick_branch s with
        | -1 ->
            (* Full model. *)
            blit_ints s.assign s.model s.nvars;
            result := Some true
        | v ->
            s.decisions <- s.decisions + 1;
            new_level s;
            enqueue s (if s.phase.(v) then pos v else neg v) cref_undef
      end
    done;
    cancel_until s 0;
    !result = Some true
  end

let value s v = s.model.(v) = 1

let lit_value s l = s.model.(lit_var l) lxor (l land 1) = 1

(* Root-level clause-database cleaning, used by incremental callers that
   retire activation literals (adding the unit [¬a] makes every clause
   guarded by [a] permanently satisfied). A clause satisfied by a
   root-level literal can never propagate or conflict again, so dropping
   it from both watch lists (and from the learned set) preserves the
   solver's entailment exactly. Root-level [reason] entries are never
   dereferenced — conflict analysis skips level-0 variables — so removal
   is safe even for clauses that forced a root unit. The arena words of
   a dropped clause are simply left behind (see the header comment). *)
let root_satisfied s cref =
  let ca = s.ca in
  let size = clause_size ca cref in
  let rec go k =
    k <= size
    && ((lit_val s ca.(cref + k) = 1 && s.level.(lit_var ca.(cref + k)) = 0)
       || go (k + 1))
  in
  go 1

(* Keep the entries of a watch list whose clause [drop] rejects, in
   order; returns how many were dropped. *)
let compact_watches ws drop =
  let j = ref 0 in
  let i = ref 0 in
  let dropped = ref 0 in
  while !i < ws.isz do
    let cref = ws.idata.(!i) in
    if drop cref then incr dropped
    else begin
      ws.idata.(!j) <- cref;
      ws.idata.(!j + 1) <- ws.idata.(!i + 1);
      j := !j + 2
    end;
    i := !i + 2
  done;
  ws.isz <- !j;
  !dropped

(* Compact the learned set, in order: entries already removed leave
   uncounted, and [drop] selects more; returns how many it took and how
   many of those were unit clauses. *)
let compact_learnts s drop =
  let lv = s.learnts in
  let j = ref 0 in
  let dropped = ref 0 and units = ref 0 in
  for i = 0 to lv.isz - 1 do
    let cref = lv.idata.(i) in
    if clause_removed s.ca cref then ()
    else if drop cref then begin
      incr dropped;
      if clause_size s.ca cref = 1 then incr units
    end
    else begin
      lv.idata.(!j) <- cref;
      incr j
    end
  done;
  lv.isz <- !j;
  (!dropped, !units)

(* Counters after dropping clauses: [watch_entries] watch-list entries
   (two per attached clause, problem or learned) and [learnt] learned
   clauses, of which [units] are unit clauses. A learned unit is never
   attached, so the problem clauses dropped are the attached clauses
   less the attached learned ones. *)
let account_dropped s ~watch_entries ~learnt ~units =
  let dropped = watch_entries / 2 in
  s.n_learned <- s.n_learned - learnt;
  s.n_clauses <- s.n_clauses - (dropped - (learnt - units));
  s.n_removed <- s.n_removed + dropped

(* The sweep: every watch list and the learned set. Learned clauses a
   fast retirement already removed are dropped from the learned set
   without being counted again; every clause dropped here gets the
   removed bit, so a guard index naming it skips it later. *)
let simplify_work s =
  cancel_until s 0;
  if s.ok then
    if propagate s <> cref_undef then s.ok <- false
    else begin
      let drop cref =
        root_satisfied s cref
        && begin
             mark_removed s.ca cref;
             true
           end
      in
      let learnt, units = compact_learnts s drop in
      let removed = ref 0 in
      for l = 0 to (2 * s.nvars) - 1 do
        removed := !removed + compact_watches s.watches.(l) drop
      done;
      account_dropped s ~watch_entries:!removed ~learnt ~units;
      s.swept <- s.trail_sz
    end

let simplify s =
  Span.start s.ph_simplify;
  let r0 = s.n_removed in
  simplify_work s;
  Span.stop s.ph_simplify;
  Span.items s.ph_simplify (s.n_removed - r0)

let new_guard s =
  let v = new_var s in
  s.guard_occ.(v) <- Some (ivec_make ());
  s.live_guards <- s.live_guards + 1;
  pos v

(* Drop the clauses of a guard's index that no sweep dropped before:
   mark each, compact the watch lists of their two watched
   literals once each, and count exactly as [simplify_work] does. *)
let drop_indexed s occ =
  let ca = s.ca in
  let dirty = s.tmp_dirty in
  dirty.isz <- 0;
  let dropped_learnt = ref 0 and units = ref 0 in
  for k = 0 to occ.isz - 1 do
    let cref = occ.idata.(k) in
    if not (clause_removed ca cref) then begin
      mark_removed ca cref;
      if clause_learnt ca cref then begin
        incr dropped_learnt;
        if clause_size ca cref = 1 then incr units
      end;
      if clause_size ca cref >= 2 then
        for w = 1 to 2 do
          let l = ca.(cref + w) in
          if not s.lit_mark.(l) then begin
            s.lit_mark.(l) <- true;
            ivec_push dirty l
          end
        done
    end
  done;
  let removed = ref 0 in
  for k = 0 to dirty.isz - 1 do
    let l = dirty.idata.(k) in
    s.lit_mark.(l) <- false;
    removed := !removed + compact_watches s.watches.(l) (clause_removed ca)
  done;
  account_dropped s ~watch_entries:!removed ~learnt:!dropped_learnt
    ~units:!units;
  (* The learned set keeps removed entries until they outnumber the
     live ones; compacting it then is amortised O(1) per clause. *)
  if s.learnts.isz > (2 * s.n_learned) + 64 then
    ignore (compact_learnts s (fun _ -> false) : int * int)

(* Fast path: the database was clean at [swept] (no live clause
   satisfied by a root literal), and the one root literal assigned since,
   once [¬g] is added and propagated, is [¬g] itself — added here, or
   learned as a unit by the query's closing solve. Then the clauses the
   sweep would drop are exactly those containing [¬g], all of which the
   guard index lists. Otherwise, or when [sweep] asks for it, sweep.

   The retirement unit counts as one problem clause even when [¬g] is
   already a root fact, which [add_clause] would skip as satisfied: the
   [clauses] count then does not depend on what the search learned. *)
let retire_work ~sweep s g =
  cancel_until s 0;
  let v = lit_var g in
  let occ = if lit_sign g then s.guard_occ.(v) else None in
  if s.ok && lit_val s (negate g) = 1 then s.n_clauses <- s.n_clauses + 1
  else add_clause s [ negate g ];
  (if s.ok then
     if propagate s <> cref_undef then s.ok <- false
     else
       match occ with
       | Some occ
         when (not sweep)
              && s.trail_sz = s.swept + 1
              && s.trail.(s.swept) = negate g ->
           drop_indexed s occ;
           s.swept <- s.trail_sz
       | _ -> simplify_work s);
  if Option.is_some occ then begin
    s.guard_occ.(v) <- None;
    s.live_guards <- s.live_guards - 1
  end

let retire ?(sweep = false) s g =
  Span.start s.ph_simplify;
  let r0 = s.n_removed in
  retire_work ~sweep s g;
  Span.stop s.ph_simplify;
  Span.items s.ph_simplify (s.n_removed - r0)

let stats s =
  {
    solves = s.n_solves;
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    learned = s.n_learned;
    restarts = s.restarts;
    removed = s.n_removed;
  }

type watch_list = ivec

let watch_list s l = s.watches.(l)

let learned_clauses s =
  let ca = s.ca in
  let out = ref [] in
  for i = s.learnts.isz - 1 downto 0 do
    let cref = s.learnts.idata.(i) in
    if not (clause_removed ca cref) then begin
      let size = clause_size ca cref in
      let lits = ref [] in
      for k = size downto 1 do
        lits := ca.(cref + k) :: !lits
      done;
      out := !lits :: !out
    end
  done;
  !out
