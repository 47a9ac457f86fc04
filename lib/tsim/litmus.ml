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
  dd_skips : int;
  di_skips : int;
  ii_skips : int;
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

let validate ~who programs =
  List.iter
    (List.iter (function
      | Wait d when d < 0 -> invalid_arg (who ^ ": negative wait duration")
      | Loadeq (_, _, skip) when skip < 0 ->
          invalid_arg (who ^ ": negative loadeq skip")
      | Store _ | Load _ | Loadeq _ | Fence | Wait _ | Cas _ -> ()))
    programs

module Span = Tbtso_obs.Span

(* Mutable scratch representation of one exploration state, allocated
   once per exploration and reused for every state: the expand loop
   decodes the parent into one of these, ages and mutates children in
   place, and re-encodes into the packed key buffer — zero per-state
   allocation. Thread [i]'s buffer slots live at words
   [3·boff(i) .. 3·boff(i+1)) of [s_buf] as (addr, value, slack)
   triples, where [boff] accumulates each thread's static store count
   (an upper bound on its buffer length: programs are straight-line,
   every store issues at most once). Words past [s_len.(i)] entries are
   stale and never read. *)
type scratch_state = {
  s_mem : int array;
  s_pc : int array;
  s_wait : int array;
  s_len : int array;
  s_regs : int array;  (* thread i's register r at [i * regs + r] *)
  s_buf : int array;
}

let enumerate_core ~mode ~addrs ~regs ~max_states ~profiler
    ?(arena_words = 1024) ?(table_slots = 256) ?on_intern programs0 =
  validate ~who:"Litmus.explore" programs0;
  let t0 = Sys.time () in
  (* Phase accumulators (no-ops on the disabled profiler). [expand] is
     inclusive: it contains the canon / intern / sleep sections of the
     children it pushes. *)
  let ph_expand = Span.phase profiler "explore.expand" in
  let ph_canon = Span.phase profiler "explore.canon" in
  let ph_intern = Span.phase profiler "explore.intern" in
  let ph_sleep = Span.phase profiler "explore.sleep" in
  let programs = Array.of_list (List.map Array.of_list programs0) in
  let n = Array.length programs in
  let slack_of_store =
    match mode with M_tbtso d -> d | M_sc | M_tso | M_tsos _ -> max_int
  in
  let buffer_capacity =
    match mode with M_tsos s -> s | M_sc | M_tso | M_tbtso _ -> max_int
  in
  (* [suffix.(i).(pc)]: upper bound on the aging steps thread [i] can
     still cause from [pc] — one per instruction, plus one per future
     store (its drain), plus the full duration of every future wait
     (each tick of idling must be covered by some active wait). *)
  let suffix =
    Array.map
      (fun prog ->
        let len = Array.length prog in
        let s = Array.make (len + 1) 0 in
        for pc = len - 1 downto 0 do
          s.(pc) <-
            s.(pc + 1)
            + (match prog.(pc) with
              | Store _ -> 2
              | Wait d -> 1 + d
              | Load _ | Loadeq _ | Fence | Cas _ -> 1)
        done;
        s)
      programs
  in
  (* [actions.(i).(pc)]: real actions (instructions + drains of future
     stores) thread [i] can still perform from [pc] — like [suffix] but
     without wait durations. *)
  let actions =
    Array.map
      (fun prog ->
        let len = Array.length prog in
        let s = Array.make (len + 1) 0 in
        for pc = len - 1 downto 0 do
          s.(pc) <-
            s.(pc + 1)
            + (match prog.(pc) with
              | Store _ -> 2
              | Load _ | Loadeq _ | Fence | Cas _ | Wait _ -> 1)
        done;
        s)
      programs
  in
  (* [wsum.(i).(pc)]: total duration of the waits thread [i] has not yet
     started from [pc] — the only absolute idle padding a schedule can
     draw on beyond the wake timers already live in the state. *)
  let wsum =
    Array.init n (fun i ->
        Array.mapi (fun pc s -> s - actions.(i).(pc)) suffix.(i))
  in
  (* [sfut.(i).(pc)]: stores thread [i] has not yet issued from [pc] —
     each can open one more ≤ Δ drain window in an upper-bound chain. *)
  let sfut =
    Array.map
      (fun prog ->
        let len = Array.length prog in
        let s = Array.make (len + 1) 0 in
        for pc = len - 1 downto 0 do
          s.(pc) <-
            (s.(pc + 1)
            + match prog.(pc) with
              | Store _ -> 1
              | Load _ | Loadeq _ | Fence | Cas _ | Wait _ -> 0)
        done;
        s)
      programs
  in
  let clamp_pc i pc =
    let len = Array.length programs.(i) in
    if pc > len then len else pc
  in
  let outcomes = Hashtbl.create 64 in
  let visited = ref 0 in
  let dedup_hits = ref 0 in
  let canon_hits = ref 0 in
  let zones_merged = ref 0 in
  let max_frontier = ref 0 in
  let frontier = ref 0 in
  let time_leaps = ref 0 in
  let sleep_skips = ref 0 in
  let dd_skips = ref 0 in
  let di_skips = ref 0 in
  let ii_skips = ref 0 in
  let exhausted = ref false in
  (* --- Packed scratch states --- *)
  let bufcap =
    Array.map
      (fun prog ->
        Array.fold_left
          (fun acc ins ->
            match ins with
            | Store _ -> acc + 1
            | Load _ | Loadeq _ | Fence | Wait _ | Cas _ -> acc)
          0 prog)
      programs
  in
  let boff = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    boff.(i + 1) <- boff.(i) + bufcap.(i)
  done;
  let total_cap = boff.(n) in
  (* Packed key layout (the FNV-1a-hashed intern key): memory cells,
     then per thread: pc, wait, buffer length, registers, then one
     (addr, value, slack) triple per live buffer entry. At most
     [key_max] words; written into the single scratch buffer [kbuf]. *)
  let key_max = addrs + (n * (3 + regs)) + (3 * total_cap) in
  let make_ws () =
    {
      s_mem = Array.make addrs 0;
      s_pc = Array.make n 0;
      s_wait = Array.make n 0;
      s_len = Array.make n 0;
      s_regs = Array.make (n * regs) 0;
      s_buf = Array.make (3 * total_cap) 0;
    }
  in
  let copy_ws dst src =
    Array.blit src.s_mem 0 dst.s_mem 0 addrs;
    Array.blit src.s_pc 0 dst.s_pc 0 n;
    Array.blit src.s_wait 0 dst.s_wait 0 n;
    Array.blit src.s_len 0 dst.s_len 0 n;
    Array.blit src.s_regs 0 dst.s_regs 0 (n * regs);
    Array.blit src.s_buf 0 dst.s_buf 0 (3 * total_cap)
  in
  (* [a_ws]: the parent being expanded; [b_ws]: the parent aged by one
     tick, shared by every action branch; [c_ws]: the child under
     construction (copied from [b_ws], mutated, canonicalized in place,
     encoded, interned). *)
  let a_ws = make_ws () in
  let b_ws = make_ws () in
  let c_ws = make_ws () in
  let b_ok = ref false in
  let kbuf = Array.make (max key_max 1) 0 in
  let encode_ws c =
    let p = ref 0 in
    for a = 0 to addrs - 1 do
      Array.unsafe_set kbuf !p (Array.unsafe_get c.s_mem a);
      incr p
    done;
    for i = 0 to n - 1 do
      Array.unsafe_set kbuf !p c.s_pc.(i);
      incr p;
      Array.unsafe_set kbuf !p c.s_wait.(i);
      incr p;
      let l = c.s_len.(i) in
      Array.unsafe_set kbuf !p l;
      incr p;
      let rb = i * regs in
      for r = 0 to regs - 1 do
        Array.unsafe_set kbuf !p (Array.unsafe_get c.s_regs (rb + r));
        incr p
      done;
      let b = 3 * boff.(i) in
      for j = 0 to (3 * l) - 1 do
        Array.unsafe_set kbuf !p (Array.unsafe_get c.s_buf (b + j));
        incr p
      done
    done;
    !p
  in
  let fnv len =
    let h = ref 0x811c9dc5 in
    for i = 0 to len - 1 do
      h := (!h lxor Array.unsafe_get kbuf i) * 0x01000193 land max_int
    done;
    !h
  in
  (* --- Hash-cons arena ---

     Canonical states are interned at push time into a dense id space:
     the packed key words live back to back in the growable [arena],
     the open-addressed [table] (power-of-two capacity, linear probing,
     slots hold id + 1 with 0 = empty, ≤ 0.5 load) maps key to id via
     the cached FNV hash, and [sleeps.(id)]/[slclss.(id)] hold the
     sleep set the state was (last) expanded with (-1 = not yet
     expanded). The worklist carries plain ids, the hot dedup path
     compares ids instead of re-hashing keys, re-arrivals at an
     interned state count as [canon_hits], and the intern hit path
     allocates nothing.

     Every buffer starts small and doubles on demand: most explorations
     visit tens to hundreds of states, and zero-filling room for tens
     of thousands up front would cost more than such an exploration. *)
  let init_ids = 128 in
  let round_pow2 x =
    let c = ref 16 in
    while !c < x do
      c := 2 * !c
    done;
    !c
  in
  let arena = ref (Array.make (max arena_words 16) 0) in
  let arena_used = ref 0 in
  let arena_growths = ref 0 in
  let table = ref (Array.make (round_pow2 table_slots) 0) in
  let key_off = ref (Array.make init_ids 0) in
  let key_len = ref (Array.make init_ids 0) in
  let key_hash = ref (Array.make init_ids 0) in
  let sleeps = ref (Array.make init_ids (-1)) in
  let slclss = ref (Array.make init_ids 0) in
  let nstates = ref 0 in
  let rehash () =
    let cap = 2 * Array.length !table in
    let t = Array.make cap 0 in
    let mask = cap - 1 in
    let kh = !key_hash in
    for id = 0 to !nstates - 1 do
      let slot = ref (kh.(id) land mask) in
      while t.(!slot) <> 0 do
        slot := (!slot + 1) land mask
      done;
      t.(!slot) <- id + 1
    done;
    table := t
  in
  (* Intern the packed key in [kbuf.(0..klen-1)]: the id of the state,
     existing or fresh. *)
  let intern_packed klen h =
    let tbl = !table in
    let mask = Array.length tbl - 1 in
    let ar = !arena in
    let ko = !key_off and kl = !key_len and kh = !key_hash in
    let slot = ref (h land mask) in
    let found = ref (-1) in
    let probing = ref true in
    while !probing do
      let v = Array.unsafe_get tbl !slot in
      if v = 0 then probing := false
      else begin
        let cand = v - 1 in
        if Array.unsafe_get kh cand = h && Array.unsafe_get kl cand = klen
        then begin
          let off = Array.unsafe_get ko cand in
          let i = ref 0 in
          while
            !i < klen
            && Array.unsafe_get ar (off + !i) = Array.unsafe_get kbuf !i
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
    if !found >= 0 then begin
      incr canon_hits;
      !found
    end
    else begin
      let id = !nstates in
      let idcap = Array.length !key_off in
      if id >= idcap then begin
        let grow a fill =
          let a' = Array.make (2 * idcap) fill in
          Array.blit !a 0 a' 0 idcap;
          a := a'
        in
        grow key_off 0;
        grow key_len 0;
        grow key_hash 0;
        grow sleeps (-1);
        grow slclss 0
      end;
      (if !arena_used + klen > Array.length !arena then begin
         let newcap = ref (2 * Array.length !arena) in
         while !arena_used + klen > !newcap do
           newcap := 2 * !newcap
         done;
         let a' = Array.make !newcap 0 in
         Array.blit !arena 0 a' 0 !arena_used;
         arena := a';
         incr arena_growths
       end);
      let off = !arena_used in
      Array.blit kbuf 0 !arena off klen;
      arena_used := off + klen;
      !key_off.(id) <- off;
      !key_len.(id) <- klen;
      !key_hash.(id) <- h;
      !sleeps.(id) <- -1;
      !slclss.(id) <- 0;
      !table.(!slot) <- id + 1;
      incr nstates;
      if 2 * !nstates >= Array.length !table then rehash ();
      id
    end
  in
  let intern c =
    Span.start ph_intern;
    let klen = encode_ws c in
    let id = intern_packed klen (fnv klen) in
    Span.stop ph_intern;
    Span.items ph_intern 1;
    (match on_intern with
    | None -> ()
    | Some f -> f (Array.sub kbuf 0 klen) id);
    id
  in
  let decode_ws off dst =
    let ar = !arena in
    let p = ref off in
    for a = 0 to addrs - 1 do
      dst.s_mem.(a) <- Array.unsafe_get ar !p;
      incr p
    done;
    for i = 0 to n - 1 do
      dst.s_pc.(i) <- Array.unsafe_get ar !p;
      incr p;
      dst.s_wait.(i) <- Array.unsafe_get ar !p;
      incr p;
      let l = Array.unsafe_get ar !p in
      incr p;
      dst.s_len.(i) <- l;
      let rb = i * regs in
      for r = 0 to regs - 1 do
        dst.s_regs.(rb + r) <- Array.unsafe_get ar !p;
        incr p
      done;
      let b = 3 * boff.(i) in
      for j = 0 to (3 * l) - 1 do
        dst.s_buf.(b + j) <- Array.unsafe_get ar !p;
        incr p
      done
    done
  in
  (* Upper bound on the number of aging steps any continuation of the
     state can take before the whole program terminates (or dead-ends). *)
  let horizon_ws c =
    let h = ref 0 in
    for i = 0 to n - 1 do
      h := !h + c.s_wait.(i) + c.s_len.(i) + suffix.(i).(clamp_pc i c.s_pc.(i))
    done;
    !h
  in
  (* Observability caps for the zone abstraction (see [Zone] for the
     full argument). A feasibility threshold compares either a pairwise
     timer difference against at most [Δ·S_fut + W_fut + R_live + 1] —
     upper-bound chains anchor at live timers (relational) and can
     extend by one ≤ Δ window per not-yet-issued store plus the
     coverage of not-yet-started waits — or the smallest timer against
     a lower-bound total of at most [W_fut + R_live + 1], with no Δ
     term at all. Under SC/TSO/TSO[S] there are no deadlines, hence no
     upper-bound anchors, and only order and ties are observable: both
     caps shrink to [2 + R_live]. The base cap's Δ-freedom is what
     makes the flag protocol's wait-vs-Δ race flat in Δ, and the
     [Δ·S_fut] gap term vanishes once the racing stores are issued.
     (The previous per-counter cap was [R + Δ·nwin] with [nwin ≥ 1] in
     {e every} TBTSO state, which kept the wake concrete through the
     whole wait — the linear-in-Δ blow-up this replaces.) *)
  let max_slack = match mode with M_tbtso d -> d | M_sc | M_tso | M_tsos _ -> 0 in
  let cap_base = ref 0 in
  let cap_gap = ref 0 in
  let zone_caps_ws c =
    let r = ref 0 and w = ref 0 and s = ref 0 in
    for i = 0 to n - 1 do
      let pc = clamp_pc i c.s_pc.(i) in
      r := !r + c.s_len.(i) + actions.(i).(pc);
      w := !w + wsum.(i).(pc);
      s := !s + sfut.(i).(pc)
    done;
    match mode with
    | M_sc | M_tso | M_tsos _ ->
        cap_base := 2 + !r;
        cap_gap := 2 + !r
    | M_tbtso _ ->
        let dwin =
          (* Saturate instead of overflowing for absurd Δ: a cap this
             large never clamps anything, which is trivially exact. *)
          if !s > 0 && max_slack >= max_int / (4 * (!s + 1)) then max_int / 4
          else max_slack * !s
        in
        cap_base := 2 + !r + !w;
        cap_gap := 2 + !r + !w + dwin
  in
  (* Time-leap aging, part 2: map the state's live timers (wake timers
     from waits, deadline timers from slacks) to their canonical zone
     representative — ∞-saturate deadlines beyond the horizon, then
     base/gap-clamp the rest at [zone_cap]. Iterated to a fixpoint:
     clamping waits shrinks the horizon, which can unlock further
     saturation. Each pass is outcome-preserving for the concrete state
     it is applied to, so the iteration order never affects
     correctness, only how small the canonical form gets.

     Runs entirely in place on the scratch child: timers are gathered
     into the preallocated [z_kinds]/[z_vals] vectors, normalized by
     {!Zone.normalize_into} with the reusable [z_scratch], and written
     back — no allocation on any path. *)
  let max_timers = n + total_cap in
  let z_kinds = Array.make (max max_timers 1) Zone.Wake in
  let z_vals = Array.make (max max_timers 1) 0 in
  let z_scratch = Array.make (max (2 * max_timers) 1) 0 in
  let canon_ws c =
    Span.start ph_canon;
    let rewrote = ref false in
    let fixing = ref true in
    while !fixing do
      let nt = ref 0 in
      for i = 0 to n - 1 do
        if c.s_wait.(i) > 0 then begin
          z_kinds.(!nt) <- Zone.Wake;
          z_vals.(!nt) <- c.s_wait.(i);
          incr nt
        end;
        let b = 3 * boff.(i) in
        for j = 0 to c.s_len.(i) - 1 do
          z_kinds.(!nt) <- Zone.Deadline;
          z_vals.(!nt) <- c.s_buf.(b + (3 * j) + 2);
          incr nt
        done
      done;
      if !nt = 0 then fixing := false
      else begin
        zone_caps_ws c;
        let changed =
          Zone.normalize_into ~horizon:(horizon_ws c) ~base_cap:!cap_base
            ~gap_cap:!cap_gap z_kinds z_vals ~len:!nt ~scratch:z_scratch
        in
        if changed then begin
          rewrote := true;
          let j = ref 0 in
          for i = 0 to n - 1 do
            if c.s_wait.(i) > 0 then begin
              c.s_wait.(i) <- z_vals.(!j);
              incr j
            end;
            let b = 3 * boff.(i) in
            for k = 0 to c.s_len.(i) - 1 do
              c.s_buf.(b + (3 * k) + 2) <- z_vals.(!j);
              incr j
            done
          done
        end
        else fixing := false
      end
    done;
    if !rewrote then incr zones_merged;
    Span.stop ph_canon;
    Span.items ph_canon 1
  in
  (* In-place [age_by k] on a scratch state: false when some buffered
     store can no longer meet its deadline (the caller then discards
     the clobbered scratch — exactly the reference semantics' pruned
     dead end). *)
  let age_ws c k =
    let ok = ref true in
    for i = 0 to n - 1 do
      c.s_wait.(i) <- (if c.s_wait.(i) > k then c.s_wait.(i) - k else 0);
      let b = 3 * boff.(i) in
      for j = 0 to c.s_len.(i) - 1 do
        let idx = b + (3 * j) + 2 in
        let s = c.s_buf.(idx) in
        if s <> max_int then
          if s < k then ok := false else c.s_buf.(idx) <- s - k
      done
    done;
    !ok
  in
  (* Worklist items: an interned state id plus a sleep set — a bitmask
     over the 2n actions (bit [i] = drain by thread [i], bit [n + i] =
     thread [i]'s next instruction) that need not be explored from here
     because an equivalent (commuted) interleaving was already
     explored — and a class mask (2 bits per action: 0 = drain/drain,
     1 = drain/instr, 2 = instr/instr) recording which independence
     rule justified each slept action, for the per-class skip stats.
     Stored as three parallel int stacks (same LIFO order as the old
     list-of-tuples worklist, no per-push allocation). *)
  let wl_id = ref (Array.make init_ids 0) in
  let wl_sleep = ref (Array.make init_ids 0) in
  let wl_cls = ref (Array.make init_ids 0) in
  let wl_sp = ref 0 in
  let wl_push id sleep cls =
    let cap = Array.length !wl_id in
    if !wl_sp >= cap then begin
      let grow a =
        let a' = Array.make (2 * cap) 0 in
        Array.blit !a 0 a' 0 cap;
        a := a'
      in
      grow wl_id;
      grow wl_sleep;
      grow wl_cls
    end;
    !wl_id.(!wl_sp) <- id;
    !wl_sleep.(!wl_sp) <- sleep;
    !wl_cls.(!wl_sp) <- cls;
    incr wl_sp;
    incr frontier;
    if !frontier > !max_frontier then max_frontier := !frontier
  in
  (* Canonicalize the scratch child, intern it, push its id. *)
  let push_child sl cls =
    canon_ws c_ws;
    wl_push (intern c_ws) sl cls
  in
  let drain_mask = (1 lsl n) - 1 in
  (* Counter-creating instructions start a fresh timer whose value would
     differ by one aging step across the two orders of any commuted
     pair (Wait d sets wait = d {e after} the aging of its own tick;
     a TBTSO store buffers slack Δ likewise), so they commute
     on-the-nose with nothing: their children get an empty sleep set
     and they are never inserted into a sibling's sleep set. *)
  let cc_instr_ws i c =
    match programs.(i).(c.s_pc.(i)) with
    | Store _ -> ( match mode with M_tbtso _ -> true | M_sc | M_tso | M_tsos _ -> false)
    | Wait d -> d > 0
    | Load _ | Loadeq _ | Fence | Cas _ -> false
  in
  (* Buffer forwarding on a scratch state: newest matching entry wins.
     On a hit the forwarded value is left in [fwd_hit]. *)
  let fwd_hit = ref 0 in
  let forwarded_ws c i a =
    let b = 3 * boff.(i) in
    let j = ref (c.s_len.(i) - 1) in
    let hit = ref false in
    while (not !hit) && !j >= 0 do
      if c.s_buf.(b + (3 * !j)) = a then begin
        hit := true;
        fwd_hit := c.s_buf.(b + (3 * !j) + 1)
      end
      else decr j
    done;
    !hit
  in
  (* Memory footprints as fixed-width bitsets: bit [a] of the read and
     write masks (addresses ≥ 61 share the top bit — conservative, so
     only ever {e fewer} sleeps; corpus addresses are single digits).
     An empty footprint is the zero mask and conflict checks are single
     [land]s. Refined by forwarding exactly as before: a load served
     from the thread's own buffer does not read memory, and a TSO/TSOS
     store only appends to the thread's own buffer (the memory write is
     the later drain action). Results in [fp_r]/[fp_w]. *)
  let addr_bit a = 1 lsl (if a < 61 then a else 61) in
  let fp_r = ref 0 in
  let fp_w = ref 0 in
  let footprint_ws i c =
    match programs.(i).(c.s_pc.(i)) with
    | Store (a, _) ->
        fp_r := 0;
        fp_w := (if mode = M_sc then addr_bit a else 0)
    | Load (a, _) | Loadeq (a, _, _) ->
        fp_w := 0;
        fp_r := (if forwarded_ws c i a then 0 else addr_bit a)
    | Fence | Wait _ ->
        fp_r := 0;
        fp_w := 0
    | Cas (a, _, _, _) ->
        let m = addr_bit a in
        fp_r := m;
        fp_w := m
  in
  let instr_enabled_ws i c =
    c.s_wait.(i) = 0
    && c.s_pc.(i) < Array.length programs.(i)
    && (match programs.(i).(c.s_pc.(i)) with
       | Store _ -> c.s_len.(i) < buffer_capacity
       | Fence | Cas _ -> c.s_len.(i) = 0
       | Load _ | Loadeq _ | Wait _ -> true)
  in
  let cls_dd = 0 and cls_di = 1 and cls_ii = 2 in
  (* Sleep set for the child of the current action: every
     already-explored (or inherited-slept) sibling action that provably
     commutes with it on the nose, including feasibility of the
     reversed order. [drain] says whether the current action is a drain
     by thread [i]; for a drain, [addr_mask] is the committed address's
     bit and [guard] is [slack ≥ 2] at the parent — the reversed order
     drains this entry one aging step later, so skipping the
     explored-first order is only sound when the entry survives that
     extra step. For an instruction, the footprint masks must already
     be in [fp_r]/[fp_w]; a prior drain needs no slack guard (the
     reversed order drains {e earlier}). Results in
     [sl_out]/[cls_out]. *)
  let sl_out = ref 0 in
  let cls_out = ref 0 in
  let child_sleep c explored ~acting:i ~drain ~addr_mask ~guard =
    Span.start ph_sleep;
    let ri = if drain then 0 else !fp_r in
    let wi = if drain then 0 else !fp_w in
    sl_out := 0;
    cls_out := 0;
    let keep bit cl =
      sl_out := !sl_out lor (1 lsl bit);
      cls_out := !cls_out lor (cl lsl (2 * bit))
    in
    for m = 0 to n - 1 do
      if m <> i then begin
        (if explored land (1 lsl m) <> 0 && c.s_len.(m) > 0 then begin
           let em_mask = addr_bit c.s_buf.(3 * boff.(m)) in
           if drain then begin
             if guard && em_mask land addr_mask = 0 then keep m cls_dd
           end
           else if ri land em_mask = 0 && wi land em_mask = 0 then
             keep m cls_di
         end);
        if explored land (1 lsl (n + m)) <> 0 then
          if instr_enabled_ws m c && not (cc_instr_ws m c) then begin
            footprint_ws m c;
            let rm = !fp_r and wm = !fp_w in
            if drain then begin
              if guard && rm land addr_mask = 0 && wm land addr_mask = 0 then
                keep (n + m) cls_di
            end
            else if wi land rm = 0 && wi land wm = 0 && wm land ri = 0 then
              keep (n + m) cls_ii
          end
      end
    done;
    Span.stop ph_sleep;
    Span.items ph_sleep 1
  in
  let count_skip slcls bit =
    incr sleep_skips;
    match (slcls lsr (2 * bit)) land 3 with
    | 0 -> incr dd_skips
    | 1 -> incr di_skips
    | _ -> incr ii_skips
  in
  (* Expand the parent in [a_ws]. Children are built by blitting the
     shared aged copy [b_ws] into [c_ws], mutating [c_ws] in place and
     pushing it — each action branch fully consumes [c_ws] before the
     next begins. *)
  let expand_ws sleep slcls =
    (* Terminal state: all threads completed, all buffers empty. *)
    let terminal = ref true in
    for i = 0 to n - 1 do
      if
        a_ws.s_len.(i) > 0
        || a_ws.s_wait.(i) > 0
        || a_ws.s_pc.(i) < Array.length programs.(i)
      then terminal := false
    done;
    if !terminal then
      let o =
        {
          regs = Array.init n (fun i -> Array.sub a_ws.s_regs (i * regs) regs);
          mem = Array.copy a_ws.s_mem;
        }
      in
      Hashtbl.replace outcomes o ()
    else begin
      (* Aging is identical for every action branch from this state, so
         compute it once into [b_ws]. [false] means some deadline
         already expired: no action (and no idle) is possible — a
         pruned dead end. *)
      copy_ws b_ws a_ws;
      b_ok := age_ws b_ws 1;
      (* Drain actions, in thread order, with the sleep-set reduction:
         after exploring an action we add it to [explored]; later
         siblings' children inherit every explored action that provably
         commutes with theirs (see [child_sleep]) and never explore the
         reversed order of an independent pair. Inherited slept actions
         count as explored for this purpose. *)
      let explored = ref sleep in
      for i = 0 to n - 1 do
        if a_ws.s_len.(i) > 0 then begin
          if sleep land (1 lsl i) <> 0 then count_skip slcls i
          else begin
            (if !b_ok then begin
               let eb = 3 * boff.(i) in
               let e_addr = a_ws.s_buf.(eb) in
               let e_slack = a_ws.s_buf.(eb + 2) in
               copy_ws c_ws b_ws;
               (* Commit thread [i]'s oldest entry (addr/value survive
                  aging) and shift the rest down one slot. *)
               c_ws.s_mem.(e_addr) <- c_ws.s_buf.(eb + 1);
               let l = c_ws.s_len.(i) in
               Array.blit c_ws.s_buf (eb + 3) c_ws.s_buf eb (3 * (l - 1));
               c_ws.s_len.(i) <- l - 1;
               child_sleep a_ws !explored ~acting:i ~drain:true
                 ~addr_mask:(addr_bit e_addr) ~guard:(e_slack >= 2);
               push_child !sl_out !cls_out
             end);
            explored := !explored lor (1 lsl i)
          end
        end
      done;
      (* Instruction actions. *)
      for i = 0 to n - 1 do
        if instr_enabled_ws i a_ws then begin
          if sleep land (1 lsl (n + i)) <> 0 then count_skip slcls (n + i)
          else begin
            let cc = cc_instr_ws i a_ws in
            let sl, cls =
              if cc then (0, 0)
              else begin
                footprint_ws i a_ws;
                child_sleep a_ws !explored ~acting:i ~drain:false ~addr_mask:0
                  ~guard:false;
                (!sl_out, !cls_out)
              end
            in
            (if !b_ok then begin
               copy_ws c_ws b_ws;
               let pc = c_ws.s_pc.(i) in
               (match programs.(i).(pc) with
               | Store (a, v) ->
                   if mode = M_sc then begin
                     c_ws.s_mem.(a) <- v;
                     c_ws.s_pc.(i) <- pc + 1
                   end
                   else begin
                     let l = c_ws.s_len.(i) in
                     let eb = 3 * (boff.(i) + l) in
                     c_ws.s_buf.(eb) <- a;
                     c_ws.s_buf.(eb + 1) <- v;
                     c_ws.s_buf.(eb + 2) <- slack_of_store;
                     c_ws.s_len.(i) <- l + 1;
                     c_ws.s_pc.(i) <- pc + 1
                   end
               | Load (a, r) ->
                   let v =
                     if forwarded_ws c_ws i a then !fwd_hit else c_ws.s_mem.(a)
                   in
                   c_ws.s_regs.((i * regs) + r) <- v;
                   c_ws.s_pc.(i) <- pc + 1
               | Loadeq (a, v0, skip) ->
                   let v =
                     if forwarded_ws c_ws i a then !fwd_hit else c_ws.s_mem.(a)
                   in
                   c_ws.s_pc.(i) <- (if v = v0 then pc + 1 + skip else pc + 1)
               | Fence -> c_ws.s_pc.(i) <- pc + 1
               | Cas (a, expected, desired, r) ->
                   (* x86 locked RMW: requires an empty store buffer (it
                      is drained first) and acts directly on memory. *)
                   let cur = c_ws.s_mem.(a) in
                   if cur = expected then begin
                     c_ws.s_mem.(a) <- desired;
                     c_ws.s_regs.((i * regs) + r) <- 1
                   end
                   else c_ws.s_regs.((i * regs) + r) <- 0;
                   c_ws.s_pc.(i) <- pc + 1
               | Wait d ->
                   c_ws.s_pc.(i) <- pc + 1;
                   c_ws.s_wait.(i) <- d);
               push_child sl cls
             end);
            if not cc then explored := !explored lor (1 lsl (n + i))
          end
        end
      done;
      (* Idle: time passes with nobody executing an instruction. Needed so
         that waiting threads can unblock; only enabled while someone
         waits, to keep the state space finite.

         Time-leap aging, part 1: when no thread can execute an
         instruction (every unfinished thread is mid-wait), the only
         actions besides idling are drains — and a drain after j idle
         ticks reaches exactly the state of draining now and idling j
         ticks.  So instead of idling one tick at a time through a quiet
         stretch we leap straight to the next wakeup, pruning the branch
         if a deadline would expire strictly inside the leap (exactly
         what tick-by-tick idling would conclude). *)
      let any_wait = ref false in
      for i = 0 to n - 1 do
        if a_ws.s_wait.(i) > 0 then any_wait := true
      done;
      if !any_wait then begin
        let can_instr = ref false in
        for i = 0 to n - 1 do
          if a_ws.s_wait.(i) = 0 && a_ws.s_pc.(i) < Array.length programs.(i)
          then can_instr := true
        done;
        let k =
          if !can_instr then 1
          else begin
            let m = ref max_int in
            for i = 0 to n - 1 do
              if a_ws.s_wait.(i) > 0 && a_ws.s_wait.(i) < !m then
                m := a_ws.s_wait.(i)
            done;
            !m
          end
        in
        copy_ws c_ws a_ws;
        if age_ws c_ws k then begin
          if k > 1 then incr time_leaps;
          (* Idling commutes with every drain (draining first is the
             weaker feasibility requirement), so the drain bits of
             the accumulated sleep set survive the idle step.
             Instruction bits do not: idling can expire a wait and
             change which instructions are enabled. *)
          push_child (!explored land drain_mask) 0
        end
      end
    end
  in
  let expand sleep slcls =
    Span.start ph_expand;
    expand_ws sleep slcls;
    Span.stop ph_expand;
    Span.items ph_expand 1
  in
  (* --- The sleep-set worklist driver --- *)
  push_child 0 0 (* fresh scratch is all zeros already *);
  while !wl_sp > 0 do
    decr wl_sp;
    let id = !wl_id.(!wl_sp) in
    let sleep = !wl_sleep.(!wl_sp) in
    let slcls = !wl_cls.(!wl_sp) in
    decr frontier;
    let prev = !sleeps.(id) in
    if prev < 0 then
      if !visited >= max_states then begin
        (* Budget exhausted: report a typed partial result instead of
           failing from deep inside the exploration. *)
        exhausted := true;
        wl_sp := 0
      end
      else begin
        incr visited;
        !sleeps.(id) <- sleep;
        !slclss.(id) <- slcls;
        decode_ws !key_off.(id) a_ws;
        expand sleep slcls
      end
    else if
      (* Already expanded. If the previous visit slept on a subset of our
         sleep set it explored everything we would; otherwise re-expand
         with the intersection (the standard sleep-set state-matching
         rule). *)
      prev land lnot sleep = 0
    then incr dedup_hits
    else begin
      let merged = prev land sleep in
      !sleeps.(id) <- merged;
      !slclss.(id) <- slcls;
      decode_ws !key_off.(id) a_ws;
      expand merged slcls
    end
  done;
  let all = Hashtbl.fold (fun o () acc -> o :: acc) outcomes [] in
  let outcomes = List.sort compare all in
  ( {
      outcomes;
      complete = not !exhausted;
      stats =
        {
          visited = !visited;
          dedup_hits = !dedup_hits;
          canon_hits = !canon_hits;
          zones_merged = !zones_merged;
          max_frontier = !max_frontier;
          time_leaps = !time_leaps;
          sleep_skips = !sleep_skips;
          dd_skips = !dd_skips;
          di_skips = !di_skips;
          ii_skips = !ii_skips;
          elapsed = Sys.time () -. t0;
        };
    },
    (!nstates, !arena_growths, !arena_used, Array.length !table) )

let explore ~mode ?(addrs = 4) ?(regs = 4) ?(max_states = default_max_states)
    ?(profiler = Span.disabled) programs =
  fst (enumerate_core ~mode ~addrs ~regs ~max_states ~profiler programs)

let enumerate ~mode ?(addrs = 4) ?(regs = 4) ?(max_states = default_max_states)
    programs =
  let r =
    fst
      (enumerate_core ~mode ~addrs ~regs ~max_states ~profiler:Span.disabled
         programs)
  in
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
  validate ~who:"Litmus.enumerate_reference" programs;
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

let pp_stats fmt s =
  Format.fprintf fmt
    "%d states, %d dedup, %d interned, %d zoned, frontier %d, %d leaps, %d \
     sleeps (dd %d, di %d, ii %d), %.3fs"
    s.visited s.dedup_hits s.canon_hits s.zones_merged s.max_frontier
    s.time_leaps s.sleep_skips s.dd_skips s.di_skips s.ii_skips s.elapsed

let states_per_sec s =
  if s.elapsed > 0.0 then float_of_int s.visited /. s.elapsed else 0.0

let stats_json s =
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
      ("dd_skips", Json.Int s.dd_skips);
      ("di_skips", Json.Int s.di_skips);
      ("ii_skips", Json.Int s.ii_skips);
      ("elapsed_s", Json.Float s.elapsed);
      ("states_per_sec", Json.Float (states_per_sec s));
    ]

let record_stats registry s =
  let open Tbtso_obs in
  Metrics.add (Metrics.counter registry "litmus.states_visited") s.visited;
  Metrics.add (Metrics.counter registry "litmus.dedup_hits") s.dedup_hits;
  Metrics.add (Metrics.counter registry "litmus.canon_hits") s.canon_hits;
  Metrics.add (Metrics.counter registry "litmus.zones_merged") s.zones_merged;
  Metrics.add (Metrics.counter registry "litmus.time_leaps") s.time_leaps;
  Metrics.add (Metrics.counter registry "litmus.sleep_skips") s.sleep_skips;
  Metrics.add (Metrics.counter registry "litmus.sleep_skips_dd") s.dd_skips;
  Metrics.add (Metrics.counter registry "litmus.sleep_skips_di") s.di_skips;
  Metrics.add (Metrics.counter registry "litmus.sleep_skips_ii") s.ii_skips;
  Metrics.add (Metrics.counter registry "litmus.explorations") 1;
  Metrics.set_max (Metrics.gauge registry "litmus.max_frontier")
    (float_of_int s.max_frontier);
  Metrics.set_max (Metrics.gauge registry "litmus.peak_states_per_sec")
    (states_per_sec s);
  let elapsed = Metrics.gauge registry "litmus.elapsed_s" in
  Metrics.set elapsed (Metrics.gauge_value elapsed +. s.elapsed)

module For_tests = struct
  type debug = {
    interned : int;
    arena_growths : int;
    arena_words : int;
    table_slots : int;
  }

  let explore_instrumented ~mode ?(addrs = 4) ?(regs = 4)
      ?(max_states = default_max_states) ?arena_words ?table_slots ?on_intern
      programs =
    let r, (interned, arena_growths, arena_words, table_slots) =
      enumerate_core ~mode ~addrs ~regs ~max_states ~profiler:Span.disabled
        ?arena_words ?table_slots ?on_intern programs
    in
    (r, { interned; arena_growths; arena_words; table_slots })
end
