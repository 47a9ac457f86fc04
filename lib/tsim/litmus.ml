type mode = M_sc | M_tso | M_tbtso of int | M_tsos of int

type instr =
  | Store of int * int
  | Load of int * int
  | Loadeq of int * int * int
  | Fence
  | Wait of int
  | Cas of int * int * int * int

type outcome = { regs : int array array; mem : int array }

(* Store-buffer entries carry remaining slack (ticks until the Δ deadline)
   instead of absolute times, so that states are clock-translation
   invariant and deduplicate well. [max_int] encodes "no deadline". *)
type entry = { addr : int; value : int; slack : int }

type tstate = {
  pc : int;
  regs_v : int array;
  wait : int;  (* remaining blocked ticks; 0 = runnable *)
  buf : entry list;  (* oldest first *)
}

type state = { mem_v : int array; threads : tstate array }

type stats = {
  visited : int;
  dedup_hits : int;
  canon_hits : int;
  zones_merged : int;
  max_frontier : int;
  time_leaps : int;
  sleep_skips : int;
  elapsed : float;
}

type result = { outcomes : outcome list; complete : bool; stats : stats }

let forward buf addr =
  (* Newest matching entry wins; [buf] is oldest-first. *)
  List.fold_left (fun acc e -> if e.addr = addr then Some e.value else acc) None buf

(* [k] ticks pass: decrement waits and slacks. Returns None if some
   buffered store can no longer meet its deadline (pruned execution).
   [age_by 1] is exactly the reference semantics' per-action aging; a
   single [age_by k] is observationally equal to [k] single steps. *)
let age_by k state =
  let ok = ref true in
  let threads =
    Array.map
      (fun t ->
        let buf =
          List.map
            (fun e ->
              if e.slack = max_int then e
              else if e.slack < k then begin
                ok := false;
                e
              end
              else { e with slack = e.slack - k })
            t.buf
        in
        { t with wait = (if t.wait > k then t.wait - k else 0); buf })
      state.threads
  in
  if !ok then Some { state with threads } else None

let age state = age_by 1 state

let default_max_states = 2_000_000

let validate ~who ~addrs ~regs programs =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  let addr a = if a < 0 || a >= addrs then fail "address %d outside [0, %d)" a addrs in
  let reg r = if r < 0 || r >= regs then fail "register %d outside [0, %d)" r regs in
  List.iter
    (List.iter (function
      | Wait d when d < 0 -> fail "negative wait duration"
      | Loadeq (_, _, skip) when skip < 0 -> fail "negative loadeq skip"
      | Store (a, _) | Loadeq (a, _, _) -> addr a
      | Load (a, r) | Cas (a, _, _, r) ->
          addr a;
          reg r
      | Fence | Wait _ -> ()))
    programs

module Span = Tbtso_obs.Span

(* --- The explorer ---

   A worklist of interned state ids with sleep sets. [Arena] packs and
   hash-conses the states, [Independence] decides which sibling actions
   a child may sleep on; this driver keeps the semantics: the static
   per-(thread, pc) tables, aging, zone canonicalization and [expand]. *)

(* What thread [i] still has to do from [pc], per [pc] in [0, len]:
   [actions] counts real actions (instructions plus the drains of
   future stores), [waits] the duration of the waits not yet started —
   the only absolute idle padding a schedule can draw on beyond the wake
   timers already live — and [stores] the stores not yet issued, each of
   which can open one more ≤ Δ drain window in an upper-bound chain. *)
type rest = { actions : int array; waits : int array; stores : int array }

let rest_of prog =
  let len = Array.length prog in
  let actions = Array.make (len + 1) 0 in
  let waits = Array.make (len + 1) 0 in
  let stores = Array.make (len + 1) 0 in
  for pc = len - 1 downto 0 do
    let a, w, s =
      match prog.(pc) with
      | Store _ -> (2, 0, 1)
      | Wait d -> (1, d, 0)
      | Load _ | Loadeq _ | Fence | Cas _ -> (1, 0, 0)
    in
    actions.(pc) <- actions.(pc + 1) + a;
    waits.(pc) <- waits.(pc + 1) + w;
    stores.(pc) <- stores.(pc + 1) + s
  done;
  { actions; waits; stores }

(* Footprints refined by forwarding: a TSO/TSOS store only appends to
   the thread's own buffer (the memory write is the later drain). Timer-
   creating instructions start a fresh timer whose value would differ by
   one aging step across the two orders of any commuted pair (Wait d
   sets wait = d {e after} the aging of its own tick; a TBTSO store
   buffers slack Δ likewise). *)
let step_of mode instr : Independence.step =
  let bit = Independence.addr_bit in
  let none =
    { Independence.room = max_int; reads = 0; writes = 0; forward = -1; timer = false }
  in
  match instr with
  | Store (a, _) ->
      {
        none with
        room = (match mode with M_tsos s -> s | M_sc | M_tso | M_tbtso _ -> max_int);
        writes = (if mode = M_sc then bit a else 0);
        timer = (match mode with M_tbtso _ -> true | M_sc | M_tso | M_tsos _ -> false);
      }
  | Load (a, _) | Loadeq (a, _, _) -> { none with reads = bit a; forward = a }
  | Fence -> { none with room = 1 }
  | Wait d -> { none with timer = d > 0 }
  | Cas (a, _, _, _) -> { none with room = 1; reads = bit a; writes = bit a }

type explorer = {
  mode : mode;
  programs : instr array array;
  n : int;
  nregs : int;
  rest : rest array;
  arena : Arena.t;
  indep : Independence.t;
  (* [a]: the parent being expanded; [b]: the parent aged by one tick,
     shared by every action branch; [c]: the child under construction
     (copied from [b], mutated, canonicalized in place, interned). *)
  a : Arena.state;
  b : Arena.state;
  c : Arena.state;
  (* Timer vectors for [Zone.normalize_into]. *)
  z_kinds : Zone.kind array;
  z_vals : int array;
  z_scratch : int array;
  found : (outcome, unit) Hashtbl.t;
  (* Phase accumulators (no-ops on the disabled profiler). [expand] is
     inclusive: it contains the canon / intern / sleep sections of the
     children it pushes. *)
  ph_expand : Span.phase;
  ph_canon : Span.phase;
  ph_intern : Span.phase;
  ph_sleep : Span.phase;
  (* The worklist: parallel stacks of state ids and sleep sets. *)
  mutable wl_id : int array;
  mutable wl_sleep : int array;
  mutable wl_sp : int;
  mutable visited : int;
  mutable dedup_hits : int;
  mutable canon_hits : int;
  mutable zones_merged : int;
  mutable max_frontier : int;
  mutable time_leaps : int;
  mutable sleep_skips : int;
  mutable exhausted : bool;
}

(* The per-file scratch is an explorer record used as a template: every
   buffer in it depends on the program alone (the arena's layout comes
   from the cells, registers and per-thread store counts), so each
   exploration copies the record, sets the mode-dependent fields and
   counters, and writes the grown worklist back. *)
type scratch = explorer

let create ~addrs ~regs programs =
  let programs = Array.of_list (List.map Array.of_list programs) in
  let n = Array.length programs in
  let rest = Array.map rest_of programs in
  (* Programs are straight-line, so every store issues at most once and
     a thread's store count bounds its buffer length. *)
  let arena =
    Arena.create ~addrs ~regs ~bufcap:(Array.map (fun r -> r.stores.(0)) rest)
  in
  let max_timers = n + Array.fold_left (fun acc r -> acc + r.stores.(0)) 0 rest in
  let off = Span.phase Span.disabled "explore.expand" in
  {
    mode = M_sc;
    programs;
    n;
    nregs = regs;
    rest;
    arena;
    indep = [||];
    a = Arena.scratch arena;
    b = Arena.scratch arena;
    c = Arena.scratch arena;
    z_kinds = Array.make (max max_timers 1) Zone.Wake;
    z_vals = Array.make (max max_timers 1) 0;
    z_scratch = Array.make (max (2 * max_timers) 1) 0;
    found = Hashtbl.create 1;
    ph_expand = off;
    ph_canon = off;
    ph_intern = off;
    ph_sleep = off;
    wl_id = Array.make 128 0;
    wl_sleep = Array.make 128 0;
    wl_sp = 0;
    visited = 0;
    dedup_hits = 0;
    canon_hits = 0;
    zones_merged = 0;
    max_frontier = 0;
    time_leaps = 0;
    sleep_skips = 0;
    exhausted = false;
  }

(* A fresh exploration of [sc]'s program under [mode]: the arena is
   emptied in O(states it interned) and the child scratch set back to
   the all-zero initial state that [run] pushes first. *)
let start (sc : scratch) ~mode ~profiler =
  Arena.reset sc.arena;
  Arena.clear sc.c;
  {
    sc with
    mode;
    indep = Array.map (Array.map (step_of mode)) sc.programs;
    found = Hashtbl.create 64;
    ph_expand = Span.phase profiler "explore.expand";
    ph_canon = Span.phase profiler "explore.canon";
    ph_intern = Span.phase profiler "explore.intern";
    ph_sleep = Span.phase profiler "explore.sleep";
  }

(* In-place [age_by k] on a scratch state: false when some buffered
   store can no longer meet its deadline (the caller then discards the
   clobbered scratch — exactly the reference semantics' pruned dead
   end). *)
let age_scratch (c : Arena.state) k =
  let ok = ref true in
  for i = 0 to Array.length c.s_pc - 1 do
    c.s_wait.(i) <- (if c.s_wait.(i) > k then c.s_wait.(i) - k else 0);
    let b = c.s_base.(i) in
    for j = 0 to c.s_len.(i) - 1 do
      let idx = b + (3 * j) + 2 in
      let s = c.s_buf.(idx) in
      if s <> max_int then if s < k then ok := false else c.s_buf.(idx) <- s - k
    done
  done;
  !ok

(* Gather the state's live timers (wake timers from waits, deadline
   timers from slacks) into [z_kinds]/[z_vals]; returns their count. *)
let gather ex (c : Arena.state) =
  let nt = ref 0 in
  for i = 0 to ex.n - 1 do
    if c.s_wait.(i) > 0 then begin
      ex.z_kinds.(!nt) <- Zone.Wake;
      ex.z_vals.(!nt) <- c.s_wait.(i);
      incr nt
    end;
    let b = c.s_base.(i) in
    for j = 0 to c.s_len.(i) - 1 do
      ex.z_kinds.(!nt) <- Zone.Deadline;
      ex.z_vals.(!nt) <- c.s_buf.(b + (3 * j) + 2);
      incr nt
    done
  done;
  !nt

(* The inverse of [gather]: write the normalized timers back. *)
let scatter ex (c : Arena.state) =
  let j = ref 0 in
  for i = 0 to ex.n - 1 do
    if c.s_wait.(i) > 0 then begin
      c.s_wait.(i) <- ex.z_vals.(!j);
      incr j
    end;
    let b = c.s_base.(i) in
    for k = 0 to c.s_len.(i) - 1 do
      c.s_buf.(b + (3 * k) + 2) <- ex.z_vals.(!j);
      incr j
    done
  done

(* One zone normalization pass over the [nt] gathered timers; whether
   it rewrote any.

   The horizon is an upper bound on the aging steps any continuation
   can take before the whole program terminates (or dead-ends): live
   waits, live buffer entries and everything [rest] counts.

   The caps are the zone abstraction's observability bounds (see [Zone]
   for the full argument). A feasibility threshold compares either a
   pairwise timer difference against at most [Δ·S_fut + W_fut + R_live
   + 1] — upper-bound chains anchor at live timers (relational) and can
   extend by one ≤ Δ window per not-yet-issued store plus the coverage
   of not-yet-started waits — or the smallest timer against a
   lower-bound total of at most [W_fut + R_live + 1], with no Δ term at
   all. Under SC/TSO/TSO[S] there are no deadlines, hence no
   upper-bound anchors, and only order and ties are observable: both
   caps shrink to [2 + R_live]. The base cap's Δ-freedom is what makes
   the flag protocol's wait-vs-Δ race flat in Δ, and the [Δ·S_fut] gap
   term vanishes once the racing stores are issued. *)
let normalize ex (c : Arena.state) nt =
  let r = ref 0 and w = ref 0 and s = ref 0 and live_waits = ref 0 in
  for i = 0 to ex.n - 1 do
    let rest = ex.rest.(i) in
    let pc = c.s_pc.(i) and len = Array.length rest.actions - 1 in
    let pc = if pc > len then len else pc in
    r := !r + c.s_len.(i) + rest.actions.(pc);
    w := !w + rest.waits.(pc);
    s := !s + rest.stores.(pc);
    live_waits := !live_waits + c.s_wait.(i)
  done;
  let base_cap, delta =
    match ex.mode with
    | M_tbtso d -> (2 + !r + !w, d)
    | M_sc | M_tso | M_tsos _ -> (2 + !r, 0)
  in
  let dwin =
    (* Saturate instead of overflowing for absurd Δ: a cap this large
       never clamps anything, which is trivially exact. *)
    if !s > 0 && delta >= max_int / (4 * (!s + 1)) then max_int / 4 else delta * !s
  in
  Zone.normalize_into
    ~horizon:(!live_waits + !r + !w)
    ~base_cap ~gap_cap:(base_cap + dwin) ex.z_kinds ex.z_vals ~len:nt
    ~scratch:ex.z_scratch

(* Time-leap aging, part 2: map the state's live timers to their
   canonical zone representative — ∞-saturate deadlines beyond the
   horizon, then base/gap-clamp the rest. Iterated to a fixpoint:
   clamping waits shrinks the horizon, which can unlock further
   saturation. Each pass is outcome-preserving for the concrete state
   it is applied to, so the iteration order never affects correctness,
   only how small the canonical form gets. Runs in place, allocating
   nothing. *)
let canon ex (c : Arena.state) =
  Span.start ex.ph_canon;
  let rewrote = ref false in
  let fixing = ref true in
  while !fixing do
    let nt = gather ex c in
    if nt > 0 && normalize ex c nt then begin
      rewrote := true;
      scatter ex c
    end
    else fixing := false
  done;
  if !rewrote then ex.zones_merged <- ex.zones_merged + 1;
  Span.stop ex.ph_canon;
  Span.items ex.ph_canon 1

(* Canonicalize the child in [c], intern it and push its id. *)
let push ex sleep =
  canon ex ex.c;
  Span.start ex.ph_intern;
  let known = Arena.size ex.arena in
  let id = Arena.intern ex.arena ex.c in
  Span.stop ex.ph_intern;
  Span.items ex.ph_intern 1;
  if id < known then ex.canon_hits <- ex.canon_hits + 1;
  let sp = ex.wl_sp in
  if sp = Array.length ex.wl_id then begin
    ex.wl_id <- Arena.grow ex.wl_id (sp + 1) 0;
    ex.wl_sleep <- Arena.grow ex.wl_sleep (sp + 1) 0
  end;
  ex.wl_id.(sp) <- id;
  ex.wl_sleep.(sp) <- sleep;
  ex.wl_sp <- sp + 1;
  if sp + 1 > ex.max_frontier then ex.max_frontier <- sp + 1

let child_sleep ex explored ~acting ~drain ~addr_mask ~guard =
  Span.start ex.ph_sleep;
  let sl =
    Independence.child_sleep ex.indep ex.a explored ~acting ~drain ~addr_mask ~guard
  in
  Span.stop ex.ph_sleep;
  Span.items ex.ph_sleep 1;
  sl

(* What thread [i]'s load of [a] reads: its own newest buffered store
   to [a], else memory. *)
let load (c : Arena.state) i a =
  let k = Arena.newest c i a in
  if k >= 0 then c.s_buf.(k + 1) else c.s_mem.(a)

(* Execute thread [i]'s next instruction on the child in [c]. *)
let exec ex i =
  let c = ex.c in
  let pc = c.s_pc.(i) in
  c.s_pc.(i) <- pc + 1;
  match ex.programs.(i).(pc) with
  | Store (a, v) ->
      if ex.mode = M_sc then c.s_mem.(a) <- v
      else begin
        let l = c.s_len.(i) in
        let eb = c.s_base.(i) + (3 * l) in
        c.s_buf.(eb) <- a;
        c.s_buf.(eb + 1) <- v;
        c.s_buf.(eb + 2) <-
          (match ex.mode with M_tbtso d -> d | M_sc | M_tso | M_tsos _ -> max_int);
        c.s_len.(i) <- l + 1
      end
  | Load (a, r) -> c.s_regs.((i * ex.nregs) + r) <- load c i a
  | Loadeq (a, v0, skip) -> if load c i a = v0 then c.s_pc.(i) <- pc + 1 + skip
  | Fence -> ()
  | Cas (a, expected, desired, r) ->
      (* x86 locked RMW: requires an empty store buffer (it is drained
         first) and acts directly on memory. *)
      let ok = c.s_mem.(a) = expected in
      if ok then c.s_mem.(a) <- desired;
      c.s_regs.((i * ex.nregs) + r) <- (if ok then 1 else 0)
  | Wait d -> c.s_wait.(i) <- d

let finished ex (s : Arena.state) i = s.s_pc.(i) >= Array.length ex.programs.(i)

(* Idle: time passes with nobody executing an instruction. Needed so
   that waiting threads can unblock; only enabled while someone waits,
   to keep the state space finite.

   Time-leap aging, part 1: when no thread can execute an instruction
   (every unfinished thread is mid-wait), the only actions besides
   idling are drains — and a drain after j idle ticks reaches exactly
   the state of draining now and idling j ticks. So instead of idling
   one tick at a time through a quiet stretch we leap straight to the
   next wakeup, pruning the branch if a deadline would expire strictly
   inside the leap (exactly what tick-by-tick idling would conclude).

   Idling commutes with every drain (draining first is the weaker
   feasibility requirement), so the drain bits of the accumulated sleep
   set survive the idle step. Instruction bits do not: idling can
   expire a wait and change which instructions are enabled. *)
let idle ex explored =
  let a = ex.a in
  let any_wait = ref false and can_instr = ref false and k = ref max_int in
  for i = 0 to ex.n - 1 do
    let w = a.s_wait.(i) in
    if w > 0 then begin
      any_wait := true;
      if w < !k then k := w
    end
    else if not (finished ex a i) then can_instr := true
  done;
  if !any_wait then begin
    let k = if !can_instr then 1 else !k in
    Arena.copy ~src:a ~dst:ex.c;
    if age_scratch ex.c k then begin
      if k > 1 then ex.time_leaps <- ex.time_leaps + 1;
      push ex (explored land ((1 lsl ex.n) - 1))
    end
  end

(* Expand the parent in [a] under [sleep]. Children are built by
   copying the shared aged parent [b] into [c], mutating [c] in place
   and pushing it: each action branch fully consumes [c] before the
   next begins.

   Sleep sets: after exploring an action we add it to [explored];
   later siblings' children inherit every explored action that provably
   commutes with theirs ([Independence.child_sleep]) and never explore
   the reversed order of an independent pair. Inherited slept actions
   count as explored for this purpose; timer-creating instructions are
   never added. *)
let expand ex sleep =
  Span.start ex.ph_expand;
  let a = ex.a and b = ex.b and c = ex.c and n = ex.n in
  let terminal = ref true in
  for i = 0 to n - 1 do
    if a.s_len.(i) > 0 || a.s_wait.(i) > 0 || not (finished ex a i) then
      terminal := false
  done;
  (if !terminal then
     Hashtbl.replace ex.found
       {
         regs = Array.init n (fun i -> Array.sub a.s_regs (i * ex.nregs) ex.nregs);
         mem = Array.copy a.s_mem;
       }
       ()
   else begin
     (* Aging is identical for every action branch from this state, so
        compute it once into [b]. [false] means some deadline already
        expired: no action (and no idle) is possible — a pruned dead
        end. *)
     Arena.copy ~src:a ~dst:b;
     let b_ok = age_scratch b 1 in
     let explored = ref sleep in
     (* Drains, in thread order: commit thread [i]'s oldest entry
        (addr/value survive aging) and shift the rest down one slot. *)
     for i = 0 to n - 1 do
       if a.s_len.(i) > 0 then
         if sleep land (1 lsl i) <> 0 then ex.sleep_skips <- ex.sleep_skips + 1
         else begin
           if b_ok then begin
             let eb = a.s_base.(i) in
             let e_addr = a.s_buf.(eb) in
             Arena.copy ~src:b ~dst:c;
             c.s_mem.(e_addr) <- c.s_buf.(eb + 1);
             let l = c.s_len.(i) in
             (* A typed loop, not [Array.blit]: no write barrier. *)
             for k = eb to eb + (3 * (l - 1)) - 1 do
               c.s_buf.(k) <- c.s_buf.(k + 3)
             done;
             c.s_len.(i) <- l - 1;
             push ex
               (child_sleep ex !explored ~acting:i ~drain:true
                  ~addr_mask:(Independence.addr_bit e_addr)
                  ~guard:(a.s_buf.(eb + 2) >= 2))
           end;
           explored := !explored lor (1 lsl i)
         end
     done;
     (* Instructions. *)
     for i = 0 to n - 1 do
       if Independence.enabled ex.indep a i then
         if sleep land (1 lsl (n + i)) <> 0 then ex.sleep_skips <- ex.sleep_skips + 1
         else begin
           let timer = Independence.starts_timer ex.indep a i in
           let sl =
             if timer then 0
             else
               child_sleep ex !explored ~acting:i ~drain:false ~addr_mask:0
                 ~guard:false
           in
           if b_ok then begin
             Arena.copy ~src:b ~dst:c;
             exec ex i;
             push ex sl
           end;
           if not timer then explored := !explored lor (1 lsl (n + i))
         end
     done;
     idle ex !explored
   end);
  Span.stop ex.ph_expand;
  Span.items ex.ph_expand 1

(* The sleep-set worklist. An already-expanded state is expanded again
   only when the previous visit slept on an action this arrival does
   not, and then with the intersection (the standard sleep-set
   state-matching rule). *)
let run ex ~max_states =
  push ex 0 (* a fresh scratch is the all-zero initial state *);
  while ex.wl_sp > 0 do
    let sp = ex.wl_sp - 1 in
    ex.wl_sp <- sp;
    let id = ex.wl_id.(sp) and sleep = ex.wl_sleep.(sp) in
    let prev = Arena.sleep ex.arena id in
    if prev < 0 then
      if ex.visited >= max_states then begin
        (* Budget exhausted: report a typed partial result instead of
           failing from deep inside the exploration. *)
        ex.exhausted <- true;
        ex.wl_sp <- 0
      end
      else begin
        ex.visited <- ex.visited + 1;
        Arena.set_sleep ex.arena id sleep;
        Arena.decode ex.arena id ex.a;
        expand ex sleep
      end
    else if prev land lnot sleep = 0 then ex.dedup_hits <- ex.dedup_hits + 1
    else begin
      let merged = prev land sleep in
      Arena.set_sleep ex.arena id merged;
      Arena.decode ex.arena id ex.a;
      expand ex merged
    end
  done

let explore_in (sc : scratch) ~mode ?(max_states = default_max_states)
    ?(profiler = Span.disabled) () =
  let t0 = Sys.time () in
  let ex = start sc ~mode ~profiler in
  run ex ~max_states;
  sc.wl_id <- ex.wl_id;
  sc.wl_sleep <- ex.wl_sleep;
  {
    outcomes = List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) ex.found []);
    complete = not ex.exhausted;
    stats =
      {
        visited = ex.visited;
        dedup_hits = ex.dedup_hits;
        canon_hits = ex.canon_hits;
        zones_merged = ex.zones_merged;
        max_frontier = ex.max_frontier;
        time_leaps = ex.time_leaps;
        sleep_skips = ex.sleep_skips;
        elapsed = Sys.time () -. t0;
      };
  }

let scratch ?(addrs = 4) ?(regs = 4) programs =
  validate ~who:"Litmus.scratch" ~addrs ~regs programs;
  create ~addrs ~regs programs

let explore ~mode ?(addrs = 4) ?(regs = 4) ?max_states ?profiler programs =
  validate ~who:"Litmus.explore" ~addrs ~regs programs;
  explore_in (create ~addrs ~regs programs) ~mode ?max_states ?profiler ()

let enumerate ~mode ?addrs ?regs ?(max_states = default_max_states) programs =
  let r = explore ~mode ?addrs ?regs ~max_states programs in
  if not r.complete then
    failwith
      (Printf.sprintf "Litmus.enumerate: state space exceeds %d states" max_states);
  r.outcomes

(* --- Reference enumerator ---

   The original recursive, tick-by-tick, string-keyed implementation,
   kept verbatim as the differential-testing oracle: the optimized
   checker above must produce the identical outcome set on every
   program.  Do not "improve" this one. *)

let key_of_state s =
  let b = Buffer.create 64 in
  Array.iter
    (fun v ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ',')
    s.mem_v;
  Array.iter
    (fun t ->
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int t.pc);
      Buffer.add_char b ';';
      Buffer.add_string b (string_of_int t.wait);
      Buffer.add_char b ';';
      Array.iter
        (fun v ->
          Buffer.add_string b (string_of_int v);
          Buffer.add_char b ',')
        t.regs_v;
      List.iter
        (fun e ->
          Buffer.add_string b (string_of_int e.addr);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int e.value);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int e.slack);
          Buffer.add_char b ' ')
        t.buf)
    s.threads;
  Buffer.contents b

let enumerate_reference ~mode ?(addrs = 4) ?(regs = 4)
    ?(max_states = default_max_states) programs =
  validate ~who:"Litmus.enumerate_reference" ~addrs ~regs programs;
  let programs = Array.of_list (List.map Array.of_list programs) in
  let n = Array.length programs in
  let init =
    {
      mem_v = Array.make addrs 0;
      threads =
        Array.init n (fun _ ->
            { pc = 0; regs_v = Array.make regs 0; wait = 0; buf = [] });
    }
  in
  let seen = Hashtbl.create 4096 in
  let outcomes = Hashtbl.create 64 in
  let visited = ref 0 in
  let slack_of_store =
    match mode with M_tbtso d -> d | M_sc | M_tso | M_tsos _ -> max_int
  in
  let buffer_capacity =
    match mode with M_tsos s -> s | M_sc | M_tso | M_tbtso _ -> max_int
  in
  let rec explore state =
    let key = key_of_state state in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr visited;
      if !visited > max_states then
        failwith
          (Printf.sprintf "Litmus.enumerate: state space exceeds %d states"
             max_states);
      let progressed = ref false in
      let step f =
        (* Apply an action: first age the state by one tick, then mutate. *)
        match age state with
        | None -> ()
        | Some aged ->
            progressed := true;
            explore (f aged)
      in
      let with_thread st i t =
        let threads = Array.copy st.threads in
        threads.(i) <- t;
        { st with threads }
      in
      for i = 0 to n - 1 do
        let t = state.threads.(i) in
        (* Drain action: commit this thread's oldest buffered store. *)
        (match t.buf with
        | e :: rest ->
            step (fun st ->
                let t = st.threads.(i) in
                let e', rest' =
                  match t.buf with e' :: r -> (e', r) | [] -> assert false
                in
                ignore e';
                let mem_v = Array.copy st.mem_v in
                mem_v.(e.addr) <- e.value;
                ignore rest;
                { (with_thread st i { t with buf = rest' }) with mem_v })
        | [] -> ());
        (* Instruction action. *)
        if t.wait = 0 && t.pc < Array.length programs.(i) then begin
          match programs.(i).(t.pc) with
          | Store (a, v) ->
              (* Under TSO[S] a store is enabled only when the buffer has
                 room (spatial bound). *)
              if List.length t.buf < buffer_capacity then
                step (fun st ->
                    let t = st.threads.(i) in
                    if mode = M_sc then begin
                      let mem_v = Array.copy st.mem_v in
                      mem_v.(a) <- v;
                      { (with_thread st i { t with pc = t.pc + 1 }) with mem_v }
                    end
                    else
                      let buf =
                        t.buf @ [ { addr = a; value = v; slack = slack_of_store } ]
                      in
                      with_thread st i { t with pc = t.pc + 1; buf })
          | Load (a, r) ->
              step (fun st ->
                  let t = st.threads.(i) in
                  let v =
                    match forward t.buf a with Some v -> v | None -> st.mem_v.(a)
                  in
                  let regs_v = Array.copy t.regs_v in
                  regs_v.(r) <- v;
                  with_thread st i { t with pc = t.pc + 1; regs_v })
          | Loadeq (a, v0, skip) ->
              step (fun st ->
                  let t = st.threads.(i) in
                  let v =
                    match forward t.buf a with Some v -> v | None -> st.mem_v.(a)
                  in
                  let pc = if v = v0 then t.pc + 1 + skip else t.pc + 1 in
                  with_thread st i { t with pc })
          | Fence ->
              if t.buf = [] then
                step (fun st ->
                    let t = st.threads.(i) in
                    with_thread st i { t with pc = t.pc + 1 })
          | Cas (a, expected, desired, r) ->
              (* x86 locked RMW: requires an empty store buffer (it is
                 drained first) and acts directly on memory. *)
              if t.buf = [] then
                step (fun st ->
                    let t = st.threads.(i) in
                    let cur = st.mem_v.(a) in
                    let regs_v = Array.copy t.regs_v in
                    let mem_v = Array.copy st.mem_v in
                    if cur = expected then begin
                      mem_v.(a) <- desired;
                      regs_v.(r) <- 1
                    end
                    else regs_v.(r) <- 0;
                    { (with_thread st i { t with pc = t.pc + 1; regs_v }) with
                      mem_v
                    })
          | Wait d ->
              step (fun st ->
                  let t = st.threads.(i) in
                  with_thread st i { t with pc = t.pc + 1; wait = d })
        end
      done;
      (* Idle tick: time passes with nobody acting. Needed so that waiting
         threads can unblock when everyone else is done; harmless (and
         behaviour-enlarging) otherwise, but only enabled when someone is
         waiting, to keep the state space finite. *)
      if Array.exists (fun t -> t.wait > 0) state.threads then step (fun st -> st);
      (* Terminal state: all threads completed, all buffers empty. *)
      if
        (not !progressed)
        && Array.for_all
             (fun (t : tstate) -> t.buf = [] && t.wait = 0)
             state.threads
        && Array.for_all2
             (fun (t : tstate) prog -> t.pc >= Array.length prog)
             state.threads programs
      then begin
        let o =
          {
            regs = Array.map (fun t -> Array.copy t.regs_v) state.threads;
            mem = Array.copy state.mem_v;
          }
        in
        Hashtbl.replace outcomes o ()
      end
    end
  in
  explore init;
  let all = Hashtbl.fold (fun o () acc -> o :: acc) outcomes [] in
  List.sort compare all

let exists outcomes p = List.exists p outcomes

let for_all outcomes p = List.for_all p outcomes

let pp_outcome fmt o =
  Format.fprintf fmt "regs=[";
  Array.iteri
    (fun i rs ->
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "t%d:(%s)" i
        (String.concat "," (Array.to_list (Array.map string_of_int rs))))
    o.regs;
  Format.fprintf fmt "] mem=(%s)"
    (String.concat "," (Array.to_list (Array.map string_of_int o.mem)))

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "%d states, %d dedup, %d interned, %d zoned, frontier %d, %d leaps, %d \
     sleeps, %.3fs"
    s.visited s.dedup_hits s.canon_hits s.zones_merged s.max_frontier
    s.time_leaps s.sleep_skips s.elapsed

let states_per_sec (s : stats) =
  if s.elapsed > 0.0 then float_of_int s.visited /. s.elapsed else 0.0

let stats_json (s : stats) =
  let open Tbtso_obs in
  Json.obj
    [
      ("visited", Json.Int s.visited);
      ("dedup_hits", Json.Int s.dedup_hits);
      ("canon_hits", Json.Int s.canon_hits);
      ("zones_merged", Json.Int s.zones_merged);
      ("max_frontier", Json.Int s.max_frontier);
      ("time_leaps", Json.Int s.time_leaps);
      ("sleep_skips", Json.Int s.sleep_skips);
      ("elapsed_s", Json.Float s.elapsed);
      ("states_per_sec", Json.Float (states_per_sec s));
    ]

let record_stats registry (s : stats) =
  let open Tbtso_obs in
  Metrics.add (Metrics.counter registry "litmus.states_visited") s.visited;
  Metrics.add (Metrics.counter registry "litmus.dedup_hits") s.dedup_hits;
  Metrics.add (Metrics.counter registry "litmus.canon_hits") s.canon_hits;
  Metrics.add (Metrics.counter registry "litmus.zones_merged") s.zones_merged;
  Metrics.add (Metrics.counter registry "litmus.time_leaps") s.time_leaps;
  Metrics.add (Metrics.counter registry "litmus.sleep_skips") s.sleep_skips;
  Metrics.add (Metrics.counter registry "litmus.explorations") 1;
  Metrics.set_max (Metrics.gauge registry "litmus.max_frontier")
    (float_of_int s.max_frontier);
  Metrics.set_max (Metrics.gauge registry "litmus.peak_states_per_sec")
    (states_per_sec s);
  let elapsed = Metrics.gauge registry "litmus.elapsed_s" in
  Metrics.set elapsed (Metrics.gauge_value elapsed +. s.elapsed)
