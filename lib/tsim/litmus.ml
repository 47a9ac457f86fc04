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
  races_detected : int;
  wut_nodes : int;
  source_set_hits : int;
  frontier_steals : int;
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

module Span = Tbtso_obs.Span

(* Wakeup sequences for source-DPOR, in the flattened list-of-sequences
   form: each pending entry is a sequence of action ids (bit [i] =
   drain by thread [i], bit [n + i] = thread [i]'s next instruction)
   that, replayed from the owning exploration frame, reverses a
   detected race. [insert] applies the two subsumption rules of the
   source-set construction: a sequence whose initials intersect the
   frame's scheduled-or-explored action set is already covered by an
   existing branch, and a sequence with a pending prefix is covered by
   that prefix's own guided replay (the guide's free continuation
   explores everything below it). Kept as a standalone module so the
   insertion/subsumption logic is unit-testable without an
   exploration. *)
module Wut = struct
  type t = { mutable seqs : int array list; mutable nodes : int }

  let create () = { seqs = []; nodes = 0 }
  let pending t = t.seqs <> []
  let nodes t = t.nodes

  let is_prefix p v =
    Array.length p <= Array.length v
    &&
    let ok = ref true in
    for i = 0 to Array.length p - 1 do
      if p.(i) <> v.(i) then ok := false
    done;
    !ok

  (* [insert t ~initials ~scheduled v]: [initials] is the bitmask of
     initial actions of [v] (always including [v.(0)]), [scheduled] the
     bitmask of actions already scheduled or explored at the frame. *)
  let insert t ~initials ~scheduled v =
    if Array.length v = 0 || initials land scheduled <> 0 then `Subsumed
    else if List.exists (fun w -> is_prefix w v) t.seqs then `Subsumed
    else begin
      t.seqs <- t.seqs @ [ v ];
      t.nodes <- t.nodes + Array.length v;
      `Added
    end

  let take t =
    match t.seqs with
    | [] -> None
    | v :: rest ->
        t.seqs <- rest;
        Some v
end

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

(* Exploration seeds for cross-call hand-off: a packed state key plus
   the sleep set and class mask to (re-)explore it with. Produced when
   an engine stops early ([frontier_limit] / [handoff]) and consumed
   via [init] by a later call, possibly in another domain with its own
   arena. *)
type seed = int array * int * int

let enumerate_core ~mode ~addrs ~regs ~max_states ~profiler ?(dpor = false)
    ?(arena_words = 1024) ?(table_slots = 256) ?on_intern
    ?(init = ([] : seed list)) ?frontier_limit ?(handoff = false) programs0 =
  let t0 = Sys.time () in
  (* Phase accumulators (no-ops on the disabled profiler). [expand] is
     inclusive: it contains the canon / intern / sleep sections of the
     children it pushes. *)
  let ph_expand = Span.phase profiler "explore.expand" in
  let ph_canon = Span.phase profiler "explore.canon" in
  let ph_intern = Span.phase profiler "explore.intern" in
  let ph_sleep = Span.phase profiler "explore.sleep" in
  let ph_race = Span.phase profiler "explore.race" in
  let ph_wut = Span.phase profiler "explore.wut" in
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
  let races_detected = ref 0 in
  let wut_nodes = ref 0 in
  let source_set_hits = ref 0 in
  let exhausted = ref false in
  let seeds_out = ref ([] : seed list) in
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
  (* Per-state subtree summaries for source-DPOR under hash-cons dedup:
     once a state's DFS subtree has completed, [sum_r]/[sum_w] hold the
     aggregated read/write footprint per action proc (stride [2n]) of
     every event in that subtree, and [sum_cc] the procs that executed
     a counter-creating event. When a later arrival at the state is
     dedup-skipped, these stand in for the skipped events in race
     detection against the current DFS stack (conservative: order and
     happens-before inside the subtree are discarded, so strictly more
     backtrack points, never fewer). Only allocated under [dpor]. *)
  let nacts = 2 * n in
  let sum_stride = max nacts 1 in
  let sum_r =
    ref (if dpor then Array.make (init_ids * sum_stride) 0 else [||])
  in
  let sum_w =
    ref (if dpor then Array.make (init_ids * sum_stride) 0 else [||])
  in
  let sum_cc = ref (if dpor then Array.make init_ids 0 else [||]) in
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
        grow slclss 0;
        if dpor then begin
          let grow_strided a =
            let a' = Array.make (2 * idcap * sum_stride) 0 in
            Array.blit !a 0 a' 0 (idcap * sum_stride);
            a := a'
          in
          grow_strided sum_r;
          grow_strided sum_w;
          grow sum_cc 0
        end
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
  (* Intern an externally supplied packed key (a hand-off seed). *)
  let intern_key key =
    let klen = Array.length key in
    Array.blit key 0 kbuf 0 klen;
    let id = intern_packed klen (fnv klen) in
    (match on_intern with None -> () | Some f -> f (Array.copy key) id);
    id
  in
  let key_of_id id = Array.sub !arena !key_off.(id) !key_len.(id) in
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
  let child_sleep_core c explored ~acting:i ~drain ~addr_mask ~guard =
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
    done
  in
  let child_sleep c explored ~acting ~drain ~addr_mask ~guard =
    Span.start ph_sleep;
    child_sleep_core c explored ~acting ~drain ~addr_mask ~guard;
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
  (* --- Engine 1: sleep-set worklist (the PR 4–8 engine, kept verbatim
     as the [dpor:false] baseline the dpor-sweep compares against). --- *)
  let run_worklist () =
    (match init with
    | [] -> push_child 0 0 (* fresh scratch is all zeros already *)
    | seeds ->
        List.iter (fun (key, sl, cls) -> wl_push (intern_key key) sl cls) seeds);
    let looping = ref true in
    while !looping do
      (match frontier_limit with
      | Some lim when !wl_sp >= lim ->
          (* Frontier hand-off: stop here and export the un-popped
             worklist as seeds for other enumerate_core calls (the
             parallel driver's phase-1 split). Not an exhaustion — the
             seeds carry the remaining work. *)
          for idx = !wl_sp - 1 downto 0 do
            seeds_out :=
              (key_of_id !wl_id.(idx), !wl_sleep.(idx), !wl_cls.(idx))
              :: !seeds_out
          done;
          looping := false;
          wl_sp := 0
      | _ -> ());
      if !looping then
        if !wl_sp = 0 then looping := false
        else begin
          decr wl_sp;
          let id = !wl_id.(!wl_sp) in
          let sleep = !wl_sleep.(!wl_sp) in
          let slcls = !wl_cls.(!wl_sp) in
          decr frontier;
          let prev = !sleeps.(id) in
          if prev < 0 then
            if !visited >= max_states then begin
              (* Budget exhausted: report a typed partial result instead
                 of failing from deep inside the exploration. Under
                 [handoff] the refused state and the un-popped worklist
                 become seeds — the work is handed back, not lost. *)
              exhausted := true;
              (if handoff then begin
                 seeds_out := (key_of_id id, sleep, slcls) :: !seeds_out;
                 for idx = !wl_sp - 1 downto 0 do
                   seeds_out :=
                     (key_of_id !wl_id.(idx), !wl_sleep.(idx), !wl_cls.(idx))
                     :: !seeds_out
                 done
               end);
              looping := false;
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
            (* Already expanded. If the previous visit slept on a subset
               of our sleep set it explored everything we would;
               otherwise re-expand with the intersection (the standard
               sleep-set state-matching rule). *)
            prev land lnot sleep = 0
          then incr dedup_hits
          else begin
            let merged = prev land sleep in
            !sleeps.(id) <- merged;
            !slclss.(id) <- slcls;
            decode_ws !key_off.(id) a_ws;
            expand merged slcls
          end
        end
    done
  in
  (* --- Engine 2: source-DPOR DFS with wakeup sequences.

     An explicit DFS over the same interned state space, where
     first-visit branching is reduced: at a {e timer-free} state (all
     waits zero, all buffered slacks ∞ — where one aging tick is the
     identity and commutation is exactly footprint disjointness) only
     the actions demanded by the source set are expanded: the first
     eligible action, plus every action a detected race proves
     necessary. Timer states (live deadlines or wake timers, where
     timing makes almost everything dependent) expand fully, so the
     reduction degrades to plain sleep sets exactly where the classical
     independence argument stops applying. Zone canonicalization
     ∞-saturates deadlines beyond the observability horizon, so even
     TBTSO runs spend much of their space in reduced (timer-free)
     states.

     Race detection is a backward walk over the DFS stack per executed
     event: each frame stores its in-flight action's footprint and a
     vector clock over the [2n] action procs (drain proc [i], instruction
     proc [n+i]; clock entries are 1-based stack positions), so the walk
     finds the maximal dependent predecessors that are not already
     happens-before-ordered — each such pair at a reduced frame is a
     reversible race. The reversal is recorded as a wakeup sequence
     [notdep(f, w)·e] at the racing frame ({!Wut}); pending sequences
     replay as guided descents (dedup-skipping disabled along the guide)
     before the frame's free [todo] actions.

     State dedup stays sound under the reduction because the explored
     graph is acyclic (every action strictly decreases the remaining
     action count, idling strictly decreases total wait), so any
     re-encountered interned state has a {e completed} subtree; its
     aggregated per-proc footprint summary ([sum_r]/[sum_w]/[sum_cc])
     is replayed against the stack in place of the skipped events, with
     the classic DPOR fallback (add the racing proc if enabled at the
     reversal frame, otherwise everything) since summaries carry no
     order. Walks stop at counter-creating events, which commute with
     nothing and hence happens-before-order everything across them. *)
  let run_dfs () =
    let idle_bit = nacts in
    let all_acts = (1 lsl nacts) - 1 in
    let no_guide = ([||], 0) in
    let wut_empty = Wut.create () in
    let fcap = ref 128 in
    let f_id = ref (Array.make !fcap 0) in
    let f_sleep = ref (Array.make !fcap 0) in
    let f_cls = ref (Array.make !fcap 0) in
    let f_enab = ref (Array.make !fcap 0) in
    let f_done = ref (Array.make !fcap 0) in
    let f_todo = ref (Array.make !fcap 0) in
    let f_red = ref (Array.make !fcap false) in
    let f_act = ref (Array.make !fcap (-1)) in
    let f_afpr = ref (Array.make !fcap 0) in
    let f_afpw = ref (Array.make !fcap 0) in
    let f_acc = ref (Array.make !fcap false) in
    let f_vc = ref (Array.make (!fcap * sum_stride) 0) in
    let f_sumr = ref (Array.make (!fcap * sum_stride) 0) in
    let f_sumw = ref (Array.make (!fcap * sum_stride) 0) in
    let f_sumcc = ref (Array.make !fcap 0) in
    let f_wut = ref (Array.make !fcap wut_empty) in
    let f_guide = ref (Array.make !fcap no_guide) in
    let grow_frames () =
      let old = !fcap in
      fcap := 2 * old;
      let grow a fill =
        let a' = Array.make !fcap fill in
        Array.blit !a 0 a' 0 old;
        a := a'
      in
      let grow_strided a =
        let a' = Array.make (!fcap * sum_stride) 0 in
        Array.blit !a 0 a' 0 (old * sum_stride);
        a := a'
      in
      grow f_id 0;
      grow f_sleep 0;
      grow f_cls 0;
      grow f_enab 0;
      grow f_done 0;
      grow f_todo 0;
      grow f_act (-1);
      grow f_afpr 0;
      grow f_afpw 0;
      grow f_sumcc 0;
      grow_strided f_vc;
      grow_strided f_sumr;
      grow_strided f_sumw;
      let growb a =
        let a' = Array.make !fcap false in
        Array.blit !a 0 a' 0 old;
        a := a'
      in
      growb f_red;
      growb f_acc;
      let groww () =
        let a' = Array.make !fcap wut_empty in
        Array.blit !f_wut 0 a' 0 old;
        f_wut := a'
      in
      groww ();
      let growg () =
        let a' = Array.make !fcap no_guide in
        Array.blit !f_guide 0 a' 0 old;
        f_guide := a'
      in
      growg ()
    in
    let sp = ref (-1) in
    let loaded = ref (-1) in
    let aborting = ref false in
    (* Undo scratch for the in-place step: the words one
       age/mutate/canon cycle can touch — waits, every live slack, and
       (per action kind) one thread's buffer plus single mem/reg/pc/len
       cells. *)
    let u_wait = Array.make (max n 1) 0 in
    let u_slack = Array.make (max total_cap 1) 0 in
    let u_buf = Array.make (max (3 * total_cap) 1) 0 in
    let u_mem = ref 0 and u_reg = ref 0 and u_pc = ref 0 and u_len = ref 0 in
    let uq = ref 0 in
    let ensure_loaded id =
      if !loaded <> id then begin
        decode_ws !key_off.(id) a_ws;
        loaded := id
      end
    in
    let lowest_bit m =
      let i = ref 0 in
      while m land (1 lsl !i) = 0 do
        incr i
      done;
      !i
    in
    let popcount m =
      let c = ref 0 and x = ref m in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr c
      done;
      !c
    in
    let thread_of a = if a = idle_bit then -1 else if a >= n then a - n else a in
    (* First action expanded at a reduced frame: prefer an instruction
       over a drain — committing a buffered store publishes a write
       other threads race with, so deferring drains lets more of the
       already-explored instruction structure be slept in the children
       before the write-visibility races start forcing reversals. *)
    let instr_mask = ((1 lsl n) - 1) lsl n in
    let pick_one free =
      if free = 0 then 0
      else
        let im = free land instr_mask in
        1 lsl lowest_bit (if im <> 0 then im else free)
    in
    (* Race-walk scratch: the running join of the clocks of every event
       (strictly after the walk's current frame) that happens-before
       the event being executed. *)
    let blocked = Array.make sum_stride 0 in
    let vcap = ref 64 in
    let vbuf = ref (Array.make !vcap 0) in
    let vpos = ref (Array.make !vcap 0) in
    let vpush m j pr =
      if m >= !vcap then begin
        let grow a =
          let a' = Array.make (2 * !vcap) 0 in
          Array.blit !a 0 a' 0 !vcap;
          a := a'
        in
        grow vbuf;
        grow vpos;
        vcap := 2 * !vcap
      end;
      !vbuf.(m) <- pr;
      !vpos.(m) <- j
    in
    (* A reversible race between the in-flight event of frame [k] and
       the event being executed at frame [d] (proc [p]): build the
       wakeup sequence notdep(f, w)·e and insert it at frame [k] under
       the source-set subsumption rules. *)
    let handle_race k d p =
      incr races_detected;
      Span.start ph_wut;
      let fa = !f_act.(k) in
      let m = ref 0 in
      for j = k + 1 to d - 1 do
        let pj = !f_act.(j) in
        (* Keep [j] only when it is in [e]'s causal past within the
           window ([blocked] holds e's clock over frames (k, d) at this
           point of the walk — row [k] is joined after the race check).
           Events independent of both ends need not be replayed before
           the reversal; dropping them keeps wakeup sequences at
           causal-chain length and avoids interning mirror states for
           unrelated interleavings.  Causal closure: i →HB j →HB e with
           vc(i).(fa) ≥ k+1 would put e HB-after fa, contradicting the
           race, so the kept set is replayable at [k]. *)
        if
          pj <> idle_bit
          && !f_vc.((j * sum_stride) + fa) < k + 1
          && blocked.(pj) >= j + 1
        then begin
          vpush !m j pj;
          incr m
        end
      done;
      vpush !m d p;
      incr m;
      (* [e] a drain that is disabled at [k] and whose thread
         contributes no instruction to the sequence: the drained entry
         descends from [fa]'s thread-order successors (same-thread
         events in the window are PO-after [fa], hence excluded), so
         the reversal can never execute [e] — vacuous. *)
      let infeasible =
        p < n
        && !f_enab.(k) land (1 lsl p) = 0
        &&
        let has_store = ref false in
        for a = 0 to !m - 2 do
          if !vbuf.(a) = n + p then has_store := true
        done;
        not !has_store
      in
      let initials = ref 0 in
      for a = 0 to !m - 1 do
        let w = !vbuf.(a) in
        let ja = !vpos.(a) in
        let is_init = ref true in
        for b = 0 to a - 1 do
          let u = !vbuf.(b) and ju = !vpos.(b) in
          let w_after_u =
            if ja = d then blocked.(u) >= ju + 1
            else !f_vc.((ja * sum_stride) + u) >= ju + 1
          in
          if w_after_u then is_init := false
        done;
        if !is_init then initials := !initials lor (1 lsl w)
      done;
      (* An initial already scheduled at [k] (todo/done) subsumes the
         sequence; an initial in the {e sleep} set marks it redundant —
         every trace starting with a slept action is explored under the
         sibling that slept it. *)
      let scheduled = !f_todo.(k) lor !f_done.(k) lor !f_sleep.(k) in
      (* No initial of the reversal sequence is enabled at [k]: the
         reversed order is unschedulable from here (a drain racing its
         own thread's store over an empty buffer, a fence racing the
         drain that enables it), so the race is vacuous. *)
      (if
         (not infeasible)
         && !initials land !f_enab.(k) <> 0
         && !initials land scheduled = 0
       then begin
         let v = Array.sub !vbuf 0 !m in
         if !f_wut.(k) == wut_empty then !f_wut.(k) <- Wut.create ();
         match Wut.insert !f_wut.(k) ~initials:!initials ~scheduled v with
         | `Added -> wut_nodes := !wut_nodes + !m
         | `Subsumed -> ()
       end);
      Span.stop ph_wut;
      Span.items ph_wut 1
    in
    (* Backward race walk for the event executed at frame [d] by proc
       [p] (or [idle_bit]); also computes and stores the event's vector
       clock at slot [d]. *)
    let race_walk d p fpr fpw cc =
      Span.start ph_race;
      Array.fill blocked 0 sum_stride 0;
      let thr_e = thread_of p in
      let k = ref (d - 1) in
      let walking = ref true in
      while !walking && !k >= 0 do
        let fa = !f_act.(!k) in
        let fcc = !f_acc.(!k) in
        let ffpr = !f_afpr.(!k) and ffpw = !f_afpw.(!k) in
        let thr_f = thread_of fa in
        let dep =
          fcc || cc
          || (thr_f >= 0 && thr_f = thr_e)
          || ffpw land (fpr lor fpw) <> 0
          || ffpr land fpw <> 0
        in
        let covered = fa <> idle_bit && blocked.(fa) >= !k + 1 in
        (* Race on action-proc inequality, not real-thread inequality: a
           thread's drain and its own later instruction are distinct
           transitions whose reversal may be schedulable (TSO lets loads
           overtake the thread's own pending drains), yet [dep] above
           conservatively orders them.  Suppressing such races while
           counting the pair as dependent would break the transitive
           coverage argument ([covered] assumes every dependent edge on
           the chain had its reversal recorded). *)
        if
          dep && (not covered) && fa <> p && fa <> idle_bit && p <> idle_bit
          && !f_red.(!k)
        then handle_race !k d p;
        if dep || covered then begin
          let base = !k * sum_stride in
          for q = 0 to nacts - 1 do
            let v = !f_vc.(base + q) in
            if v > blocked.(q) then blocked.(q) <- v
          done
        end;
        if fcc then walking := false;
        decr k
      done;
      let base = d * sum_stride in
      Array.blit blocked 0 !f_vc base sum_stride;
      if p <> idle_bit then !f_vc.(base + p) <- d + 1;
      Span.stop ph_race;
      Span.items ph_race 1
    in
    (* A dedup-skip at child [cid] of frame [d] (reached via the edge
       event [p]/[fpr]/[fpw]/[cc]): replay the skipped subtree's
       per-proc summary against the stack. Summaries carry no order, so
       every dependent pair at a reduced frame counts as a race — but
       per proc we react only at the {e deepest} dependent frame: the
       branch scheduled there re-executes the proc's events as path
       events whose own race walks rediscover any shallower reversals
       (exactly the argument that lets the path walk stop at the first
       non-covered frame). Reacting at every frame would re-expand most
       of the stack and forfeit the reduction. *)
    let summary_replay d p fpr fpw cc cid =
      Span.start ph_race;
      let sbase = cid * sum_stride in
      let scc = !sum_cc.(cid) in
      let react k fa q =
        incr races_detected;
        let bit = 1 lsl q in
        if q >= 0 && !f_enab.(k) land bit <> 0 then begin
          if (!f_todo.(k) lor !f_done.(k) lor !f_sleep.(k)) land bit = 0 then
            !f_todo.(k) <- !f_todo.(k) lor bit
        end
        else if q >= 0 && fa <> idle_bit && thread_of q = thread_of fa then
          (* [q] disabled at [k] and same real thread as the in-flight
             action: nothing in the subtree can enable [q] before [fa]
             runs (only thread [q]'s own program-order-later actions
             change its buffer/pc), so the reversal is vacuous. *)
          ()
        else
          !f_todo.(k) <-
            !f_todo.(k) lor (!f_enab.(k) land lnot !f_sleep.(k) land all_acts)
      in
      (* Procs with summarized events still awaiting their deepest
         dependent frame; bit [nacts] is the proc-less idle marker. *)
      let pending = ref 0 in
      for q = 0 to nacts - 1 do
        if
          !sum_r.(sbase + q) <> 0
          || !sum_w.(sbase + q) <> 0
          || scc land (1 lsl q) <> 0
        then pending := !pending lor (1 lsl q)
      done;
      if scc land (1 lsl nacts) <> 0 then
        pending := !pending lor (1 lsl nacts);
      let k = ref d in
      let walking = ref true in
      while !walking && !k >= 0 && !pending <> 0 do
        let fa, ffpr, ffpw, fcc =
          if !k = d then (p, fpr, fpw, cc)
          else (!f_act.(!k), !f_afpr.(!k), !f_afpw.(!k), !f_acc.(!k))
        in
        let thr_f = thread_of fa in
        (if !f_red.(!k) then begin
           for q = 0 to nacts - 1 do
             if !pending land (1 lsl q) <> 0 then begin
               let qr = !sum_r.(sbase + q) and qw = !sum_w.(sbase + q) in
               let qcc = scc land (1 lsl q) <> 0 in
               let dep =
                 fcc || qcc || thr_f = thread_of q
                 || ffpw land (qr lor qw) <> 0
                 || ffpr land qw <> 0
               in
               if dep && fa <> q && fa <> idle_bit then begin
                 react !k fa q;
                 pending := !pending land lnot (1 lsl q)
               end
             end
           done;
           (* A proc-less timing event (idle) somewhere in the subtree:
              dependent with everything, no proc to schedule — full
              fallback at the deepest reduced frame. *)
           if !pending land (1 lsl nacts) <> 0 && thr_f >= 0 then begin
             react !k fa (-1);
             pending := !pending land lnot (1 lsl nacts)
           end
         end);
        if fcc then walking := false;
        decr k
      done;
      Span.stop ph_race;
      Span.items ph_race 1
    in
    let fold_summary_into_frame k cid =
      let fb = k * sum_stride and sb = cid * sum_stride in
      for q = 0 to nacts - 1 do
        !f_sumr.(fb + q) <- !f_sumr.(fb + q) lor !sum_r.(sb + q);
        !f_sumw.(fb + q) <- !f_sumw.(fb + q) lor !sum_w.(sb + q)
      done;
      !f_sumcc.(k) <- !f_sumcc.(k) lor !sum_cc.(cid)
    in
    let close_frame () =
      let k = !sp in
      let id = !f_id.(k) in
      if !f_red.(k) then
        source_set_hits :=
          !source_set_hits
          + popcount
              (!f_enab.(k) land lnot !f_sleep.(k) land lnot !f_done.(k)
             land all_acts);
      let sb = id * sum_stride and fb = k * sum_stride in
      for q = 0 to nacts - 1 do
        !sum_r.(sb + q) <- !sum_r.(sb + q) lor !f_sumr.(fb + q);
        !sum_w.(sb + q) <- !sum_w.(sb + q) lor !f_sumw.(fb + q)
      done;
      !sum_cc.(id) <- !sum_cc.(id) lor !f_sumcc.(k);
      decr sp;
      if !sp >= 0 then begin
        let pk = !sp in
        let a = !f_act.(pk) in
        !f_done.(pk) <- !f_done.(pk) lor (1 lsl a);
        !f_act.(pk) <- -1;
        fold_summary_into_frame pk id
      end
    in
    let rec open_frame id sleep cls guide =
      if !visited >= max_states then begin
        exhausted := true;
        aborting := true;
        if handoff then seeds_out := (key_of_id id, sleep, cls) :: !seeds_out
      end
      else begin
        incr visited;
        incr sp;
        if !sp >= !fcap then grow_frames ();
        let k = !sp in
        !sleeps.(id) <- sleep;
        !slclss.(id) <- cls;
        !f_id.(k) <- id;
        !f_sleep.(k) <- sleep;
        !f_cls.(k) <- cls;
        !f_done.(k) <- 0;
        !f_act.(k) <- -1;
        !f_guide.(k) <- guide;
        !f_wut.(k) <- wut_empty;
        !f_sumcc.(k) <- 0;
        Array.fill !f_sumr (k * sum_stride) sum_stride 0;
        Array.fill !f_sumw (k * sum_stride) sum_stride 0;
        if k + 1 > !max_frontier then max_frontier := k + 1;
        ensure_loaded id;
        let enab = ref 0 in
        let any_wait = ref false in
        let timer_free = ref true in
        let terminal = ref true in
        for i = 0 to n - 1 do
          if a_ws.s_len.(i) > 0 then begin
            enab := !enab lor (1 lsl i);
            terminal := false;
            let b = 3 * boff.(i) in
            for j = 0 to a_ws.s_len.(i) - 1 do
              if a_ws.s_buf.(b + (3 * j) + 2) <> max_int then timer_free := false
            done
          end;
          if a_ws.s_wait.(i) > 0 then begin
            any_wait := true;
            timer_free := false;
            terminal := false
          end;
          if a_ws.s_pc.(i) < Array.length programs.(i) then terminal := false;
          if instr_enabled_ws i a_ws then enab := !enab lor (1 lsl (n + i))
        done;
        if !terminal then begin
          let o =
            {
              regs = Array.init n (fun i -> Array.sub a_ws.s_regs (i * regs) regs);
              mem = Array.copy a_ws.s_mem;
            }
          in
          Hashtbl.replace outcomes o ();
          !f_enab.(k) <- 0;
          !f_red.(k) <- false;
          !f_todo.(k) <- 0;
          close_frame ()
        end
        else begin
          if !any_wait then enab := !enab lor (1 lsl idle_bit);
          !f_enab.(k) <- !enab;
          !f_red.(k) <- !timer_free;
          (* Per-class skip stats, one per slept enabled action (same
             accounting as the worklist engine). *)
          let slept = !enab land sleep land all_acts in
          if slept <> 0 then
            for bit = 0 to nacts - 1 do
              if slept land (1 lsl bit) <> 0 then count_skip cls bit
            done;
          let gseq, gidx = guide in
          if Array.length gseq > gidx then begin
            let ga = gseq.(gidx) in
            if !enab land (1 lsl ga) <> 0 && sleep land (1 lsl ga) = 0 then
              (* The guide drives. Wakeup replays only traverse
                 timer-free states (races are only detected there, and
                 non-counter-creating actions preserve timer-freedom),
                 but if one ever lands on a timer state keep the full
                 expansion alongside the guided action. *)
              !f_todo.(k) <- (if !timer_free then 0 else !enab land lnot sleep)
            else begin
              (* The guided action is not replayable here.  Slept: every
                 continuation starting with it is covered by the sibling
                 that slept it.  Disabled: only its own thread's events
                 could enable it, and those are either already replayed
                 (members of the sequence) or PO-after the raced action
                 the sequence reverses — so the encoded reversal is
                 infeasible from this prefix.  Either way, truncate the
                 guide and continue with the normal reduced expansion;
                 dependent pairs met below get their own race walks. *)
              !f_guide.(k) <- no_guide;
              if !timer_free then begin
                let free = !enab land lnot sleep land all_acts in
                !f_todo.(k) <- pick_one free
              end
              else !f_todo.(k) <- !enab land lnot sleep
            end
          end
          else if !timer_free then begin
            let free = !enab land lnot sleep land all_acts in
            !f_todo.(k) <- pick_one free
          end
          else !f_todo.(k) <- !enab land lnot sleep
        end
      end
    (* Execute action [a] from the (already loaded) state of frame [k]:
       save the touched words, age + mutate + canonicalize the parent
       scratch in place, intern the child, then undo — no per-child
       state copy. [cguide] is the guide the child frame inherits. *)
    and exec k a cguide =
      Span.start ph_expand;
      let id = !f_id.(k) in
      ensure_loaded id;
      let explored = !f_sleep.(k) lor !f_done.(k) in
      let afpr = ref 0 and afpw = ref 0 and acc = ref false in
      let csl = ref 0 and ccls = ref 0 in
      let e_addr = ref (-1) in
      let leap = ref 1 in
      (if a = idle_bit then begin
         acc := true;
         let can_instr = ref false in
         for i = 0 to n - 1 do
           if a_ws.s_wait.(i) = 0 && a_ws.s_pc.(i) < Array.length programs.(i)
           then can_instr := true
         done;
         (if not !can_instr then begin
            let m = ref max_int in
            for i = 0 to n - 1 do
              if a_ws.s_wait.(i) > 0 && a_ws.s_wait.(i) < !m then
                m := a_ws.s_wait.(i)
            done;
            leap := !m
          end);
         csl := explored land drain_mask;
         ccls := 0
       end
       else if a < n then begin
         let eb = 3 * boff.(a) in
         e_addr := a_ws.s_buf.(eb);
         let e_slack = a_ws.s_buf.(eb + 2) in
         afpw := addr_bit !e_addr;
         child_sleep a_ws explored ~acting:a ~drain:true
           ~addr_mask:(addr_bit !e_addr) ~guard:(e_slack >= 2);
         csl := !sl_out;
         ccls := !cls_out
       end
       else begin
         let i = a - n in
         acc := cc_instr_ws i a_ws;
         if !acc then begin
           csl := 0;
           ccls := 0
         end
         else begin
           footprint_ws i a_ws;
           afpr := !fp_r;
           afpw := !fp_w;
           child_sleep a_ws explored ~acting:i ~drain:false ~addr_mask:0
             ~guard:false;
           csl := !sl_out;
           ccls := !cls_out
         end
       end);
      (* Save the words aging / canon / the mutation can touch. *)
      Array.blit a_ws.s_wait 0 u_wait 0 n;
      uq := 0;
      for i = 0 to n - 1 do
        let b = 3 * boff.(i) in
        for j = 0 to a_ws.s_len.(i) - 1 do
          u_slack.(!uq) <- a_ws.s_buf.(b + (3 * j) + 2);
          incr uq
        done
      done;
      let ok = age_ws a_ws !leap in
      let cid = ref (-1) in
      if ok then begin
        (if a = idle_bit then ()
         else if a < n then begin
           let eb = 3 * boff.(a) in
           u_mem := a_ws.s_mem.(!e_addr);
           u_len := a_ws.s_len.(a);
           Array.blit a_ws.s_buf eb u_buf 0 (3 * !u_len);
           a_ws.s_mem.(!e_addr) <- a_ws.s_buf.(eb + 1);
           Array.blit a_ws.s_buf (eb + 3) a_ws.s_buf eb (3 * (!u_len - 1));
           a_ws.s_len.(a) <- !u_len - 1
         end
         else begin
           let i = a - n in
           let pc = a_ws.s_pc.(i) in
           u_pc := pc;
           match programs.(i).(pc) with
           | Store (ad, v) ->
               if mode = M_sc then begin
                 e_addr := ad;
                 u_mem := a_ws.s_mem.(ad);
                 a_ws.s_mem.(ad) <- v;
                 a_ws.s_pc.(i) <- pc + 1
               end
               else begin
                 let l = a_ws.s_len.(i) in
                 u_len := l;
                 let eb = 3 * (boff.(i) + l) in
                 a_ws.s_buf.(eb) <- ad;
                 a_ws.s_buf.(eb + 1) <- v;
                 a_ws.s_buf.(eb + 2) <- slack_of_store;
                 a_ws.s_len.(i) <- l + 1;
                 a_ws.s_pc.(i) <- pc + 1
               end
           | Load (ad, r) ->
               let v =
                 if forwarded_ws a_ws i ad then !fwd_hit else a_ws.s_mem.(ad)
               in
               u_reg := a_ws.s_regs.((i * regs) + r);
               a_ws.s_regs.((i * regs) + r) <- v;
               a_ws.s_pc.(i) <- pc + 1
           | Loadeq (ad, v0, skip) ->
               let v =
                 if forwarded_ws a_ws i ad then !fwd_hit else a_ws.s_mem.(ad)
               in
               a_ws.s_pc.(i) <- (if v = v0 then pc + 1 + skip else pc + 1)
           | Fence -> a_ws.s_pc.(i) <- pc + 1
           | Cas (ad, expected, desired, r) ->
               e_addr := ad;
               u_mem := a_ws.s_mem.(ad);
               u_reg := a_ws.s_regs.((i * regs) + r);
               let cur = a_ws.s_mem.(ad) in
               if cur = expected then begin
                 a_ws.s_mem.(ad) <- desired;
                 a_ws.s_regs.((i * regs) + r) <- 1
               end
               else a_ws.s_regs.((i * regs) + r) <- 0;
               a_ws.s_pc.(i) <- pc + 1
           | Wait d ->
               a_ws.s_pc.(i) <- pc + 1;
               a_ws.s_wait.(i) <- d
         end);
        canon_ws a_ws;
        cid := intern a_ws
      end;
      (* Undo: action-specific words first (restoring the lengths), then
         the wait/slack base. On a dead end (failed aging) only the
         aging itself happened, so the base restore suffices. *)
      (if a = idle_bit || not ok then ()
       else if a < n then begin
         a_ws.s_len.(a) <- !u_len;
         Array.blit u_buf 0 a_ws.s_buf (3 * boff.(a)) (3 * !u_len);
         a_ws.s_mem.(!e_addr) <- !u_mem
       end
       else begin
         let i = a - n in
         (match programs.(i).(!u_pc) with
         | Store _ ->
             if mode = M_sc then a_ws.s_mem.(!e_addr) <- !u_mem
             else a_ws.s_len.(i) <- !u_len
         | Load (_, r) -> a_ws.s_regs.((i * regs) + r) <- !u_reg
         | Loadeq _ | Fence -> ()
         | Cas (_, _, _, r) ->
             a_ws.s_mem.(!e_addr) <- !u_mem;
             a_ws.s_regs.((i * regs) + r) <- !u_reg
         | Wait _ -> ());
         a_ws.s_pc.(i) <- !u_pc
       end);
      Array.blit u_wait 0 a_ws.s_wait 0 n;
      uq := 0;
      for i = 0 to n - 1 do
        let b = 3 * boff.(i) in
        for j = 0 to a_ws.s_len.(i) - 1 do
          a_ws.s_buf.(b + (3 * j) + 2) <- u_slack.(!uq);
          incr uq
        done
      done;
      Span.stop ph_expand;
      Span.items ph_expand 1;
      if not ok then !f_done.(k) <- !f_done.(k) lor (1 lsl a)
      else begin
        if !leap > 1 then incr time_leaps;
        race_walk k a !afpr !afpw !acc;
        (if a <> idle_bit then begin
           let fb = (k * sum_stride) + a in
           !f_sumr.(fb) <- !f_sumr.(fb) lor !afpr;
           !f_sumw.(fb) <- !f_sumw.(fb) lor !afpw;
           if !acc then !f_sumcc.(k) <- !f_sumcc.(k) lor (1 lsl a)
         end
         else !f_sumcc.(k) <- !f_sumcc.(k) lor (1 lsl nacts));
        let cid = !cid in
        let prev = !sleeps.(cid) in
        let cseq, cidx = cguide in
        let guided = Array.length cseq > cidx in
        if (not guided) && prev >= 0 && prev land lnot !csl = 0 then begin
          incr dedup_hits;
          summary_replay k a !afpr !afpw !acc cid;
          fold_summary_into_frame k cid;
          !f_done.(k) <- !f_done.(k) lor (1 lsl a)
        end
        else begin
          let sl = if prev >= 0 then prev land !csl else !csl in
          !f_act.(k) <- a;
          !f_afpr.(k) <- !afpr;
          !f_afpw.(k) <- !afpw;
          !f_acc.(k) <- !acc;
          open_frame cid sl !ccls cguide
        end
      end
    in
    let step () =
      let k = !sp in
      let gseq, gidx = !f_guide.(k) in
      if Array.length gseq > gidx then begin
        (* One guided action per frame; the suffix rides down with the
           child. Feasibility was checked at frame open. *)
        !f_guide.(k) <- no_guide;
        exec k gseq.(gidx) (gseq, gidx + 1)
      end
      else if !f_wut.(k) != wut_empty && Wut.pending !f_wut.(k) then begin
        Span.start ph_wut;
        let v = match Wut.take !f_wut.(k) with Some v -> v | None -> [||] in
        Span.stop ph_wut;
        let h = v.(0) in
        if !f_sleep.(k) land (1 lsl h) <> 0 then ()
          (* covered: every trace starting with a slept action is
             explored under the sibling that put it to sleep *)
        else if !f_enab.(k) land (1 lsl h) = 0 then
          (* Not replayable (should not happen for a path-derived
             sequence): fall back to full expansion. *)
          !f_todo.(k) <-
            !f_todo.(k) lor (!f_enab.(k) land lnot !f_sleep.(k) land all_acts)
        else exec k h (v, 1)
      end
      else begin
        let avail = !f_todo.(k) land lnot !f_done.(k) land lnot !f_sleep.(k) in
        if avail = 0 then close_frame ()
        else exec k (lowest_bit avail) no_guide
      end
    in
    let enter_root id sleep cls =
      let prev = !sleeps.(id) in
      if prev >= 0 && prev land lnot sleep = 0 then incr dedup_hits
      else begin
        let sl = if prev >= 0 then prev land sleep else sleep in
        open_frame id sl cls no_guide;
        while !sp >= 0 && not !aborting do
          step ()
        done;
        if !aborting then begin
          (if handoff then
             (* Every open frame becomes a seed: its completed actions
                are slept out (their subtrees are done here), and its
                in-flight action is slept too — the refused child (or
                the next collected frame) is the seed covering that
                subtree.

                Deliberately, a seed carries ONLY the sleep and class
                masks — no wakeup-tree or pending-race state crosses
                the hand-off.  That is sound because source-DPOR
                completeness is a per-tree argument: for any root
                whose slept actions each have a fully completed (or
                separately seeded) subtree, exploring the remaining
                enabled actions with fresh race detection plants
                every wakeup sequence the subtree needs, so every
                Mazurkiewicz class not already owned by a slept
                action is still reached.  The parent's outstanding
                wakeup demands only direct traces into subtrees that
                some emitted seed owns outright, so dropping them
                loses nothing.  The cost is conservatism rather than
                unsoundness: sibling seeds re-intern shared suffixes
                (states are deduplicated globally, so outcome sets
                stay exact — pinned by the forced-steal differentials
                in test_par.ml and test_scenario.ml). *)
             for k = 0 to !sp do
               let inflight =
                 if !f_act.(k) >= 0 then 1 lsl !f_act.(k) else 0
               in
               seeds_out :=
                 ( key_of_id !f_id.(k),
                   !f_sleep.(k) lor !f_done.(k) lor inflight,
                   !f_cls.(k) )
                 :: !seeds_out
             done);
          sp := -1
        end
      end
    in
    let roots =
      match init with
      | [] -> [ (intern c_ws, 0, 0) ] (* fresh scratch is all zeros *)
      | seeds ->
          List.map (fun (key, sl, cls) -> (intern_key key, sl, cls)) seeds
    in
    List.iter
      (fun (id, sl, cls) ->
        if not !aborting then enter_root id sl cls
        else if handoff then seeds_out := (key_of_id id, sl, cls) :: !seeds_out)
      roots
  in
  if dpor then run_dfs () else run_worklist ();
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
          races_detected = !races_detected;
          wut_nodes = !wut_nodes;
          source_set_hits = !source_set_hits;
          frontier_steals = 0;
          (* set by the parallel driver *)
          elapsed = Sys.time () -. t0;
        };
    },
    ( !nstates,
      !arena_growths,
      !arena_used,
      Array.length !table,
      List.rev !seeds_out ) )

(* Intra-exploration parallelism: a sequential phase 1 runs the plain
   worklist engine until the frontier holds a few seeds per domain,
   then exports the un-popped worklist as packed-key seeds. Each seed
   becomes an independent [enumerate_core] task (own arena, no shared
   mutable state) under a per-task state budget; a task that exhausts
   its budget hands its own frontier back as new seeds, and the budget
   doubles every round so the rounds terminate. Outcomes merge by set
   union and are sorted exactly like the sequential path, so the
   outcome list and completeness verdict are byte-identical to a
   sequential run — only the stats (which count work, not results)
   differ. *)
let explore_par ~mode ~addrs ~regs ~max_states ~profiler ~dpor ~task_budget pool
    programs =
  let t0 = Sys.time () in
  let d = Tbtso_par.Pool.domains pool in
  let r1, (_, _, _, _, seeds) =
    enumerate_core ~mode ~addrs ~regs ~max_states ~profiler ~dpor:false
      ~frontier_limit:(4 * d) ~handoff:true programs
  in
  if seeds = [] then r1
  else begin
    let outcomes = Hashtbl.create 64 in
    List.iter (fun o -> Hashtbl.replace outcomes o ()) r1.outcomes;
    let st = ref r1.stats in
    let total_visited = ref r1.stats.visited in
    let steals = ref 0 in
    let complete = ref r1.complete in
    let pending = ref seeds in
    let budget = ref (match task_budget with Some b -> max b 16 | None -> 4096) in
    while !pending <> [] && !complete do
      let batch = Array.of_list !pending in
      pending := [];
      steals := !steals + Array.length batch;
      let results =
        Tbtso_par.Pool.map ~chunk:1 pool
          (fun seed ->
            enumerate_core ~mode ~addrs ~regs ~max_states:!budget
              ~profiler:Span.disabled ~dpor ~init:[ seed ] ~handoff:true
              programs)
          batch
      in
      Array.iter
        (fun (r, (_, _, _, _, hand)) ->
          List.iter (fun o -> Hashtbl.replace outcomes o ()) r.outcomes;
          total_visited := !total_visited + r.stats.visited;
          let s = !st and t = r.stats in
          st :=
            {
              visited = s.visited + t.visited;
              dedup_hits = s.dedup_hits + t.dedup_hits;
              canon_hits = s.canon_hits + t.canon_hits;
              zones_merged = s.zones_merged + t.zones_merged;
              max_frontier = max s.max_frontier t.max_frontier;
              time_leaps = s.time_leaps + t.time_leaps;
              sleep_skips = s.sleep_skips + t.sleep_skips;
              dd_skips = s.dd_skips + t.dd_skips;
              di_skips = s.di_skips + t.di_skips;
              ii_skips = s.ii_skips + t.ii_skips;
              races_detected = s.races_detected + t.races_detected;
              wut_nodes = s.wut_nodes + t.wut_nodes;
              source_set_hits = s.source_set_hits + t.source_set_hits;
              frontier_steals = 0;
              elapsed = 0.;
            };
          pending := hand @ !pending)
        results;
      if !total_visited >= max_states then begin
        complete := false;
        pending := []
      end;
      budget := 2 * !budget
    done;
    let all = Hashtbl.fold (fun o () acc -> o :: acc) outcomes [] in
    {
      outcomes = List.sort compare all;
      complete = !complete;
      stats =
        {
          !st with
          frontier_steals = !steals;
          elapsed = Sys.time () -. t0;
        };
    }
  end

let explore ~mode ?(addrs = 4) ?(regs = 4) ?(max_states = default_max_states)
    ?(profiler = Span.disabled) ?(dpor = false) ?pool ?task_budget programs =
  match pool with
  | Some pool when Tbtso_par.Pool.domains pool > 1 ->
      explore_par ~mode ~addrs ~regs ~max_states ~profiler ~dpor ~task_budget
        pool programs
  | _ ->
      fst (enumerate_core ~mode ~addrs ~regs ~max_states ~profiler ~dpor programs)

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
     sleeps (dd %d, di %d, ii %d), %d races, %d wut, %d src-hits, %d steals, \
     %.3fs"
    s.visited s.dedup_hits s.canon_hits s.zones_merged s.max_frontier
    s.time_leaps s.sleep_skips s.dd_skips s.di_skips s.ii_skips
    s.races_detected s.wut_nodes s.source_set_hits s.frontier_steals s.elapsed

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
      ("races_detected", Json.Int s.races_detected);
      ("wut_nodes", Json.Int s.wut_nodes);
      ("source_set_hits", Json.Int s.source_set_hits);
      ("frontier_steals", Json.Int s.frontier_steals);
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
  Metrics.add (Metrics.counter registry "litmus.races_detected") s.races_detected;
  Metrics.add (Metrics.counter registry "litmus.wut_nodes") s.wut_nodes;
  Metrics.add
    (Metrics.counter registry "litmus.source_set_hits")
    s.source_set_hits;
  Metrics.add
    (Metrics.counter registry "litmus.frontier_steals")
    s.frontier_steals;
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
      ?(max_states = default_max_states) ?(dpor = false) ?arena_words
      ?table_slots ?on_intern programs =
    let r, (interned, arena_growths, arena_words, table_slots, _) =
      enumerate_core ~mode ~addrs ~regs ~max_states ~profiler:Span.disabled
        ~dpor ?arena_words ?table_slots ?on_intern programs
    in
    (r, { interned; arena_growths; arena_words; table_slots })

  module Wut = Wut
end
