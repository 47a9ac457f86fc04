(* The axiomatic oracle's formula: a litmus program compiled into
   clauses over order-encoded action times, in-formula Loadeq control
   flow and read-from choices. Mode timing axioms live behind
   activation literals created on first use. The encode is a fixed
   sequence of passes over one encoder record; each pass creates its
   variables and emits its clauses in program order, so the variable
   numbering and clause stream depend on the program alone. *)

module S = Tbtso_sat.Solver

type obs =
  | Ob_val of int * int * (int * S.lit) list  (* thread, reg, value -> lit *)
  | Ob_mem of int * (int * S.lit) list  (* addr, value -> lit *)

type t = {
  s : S.t;
  n : int;
  addrs : int;
  regs : int;
  h : int;
  combos : int;
  observables : obs list;
  sites : (int * int) list;
  delta_act : int -> S.lit;
  cap_act : int -> S.lit;
  fence_act : int * int -> S.lit;
}

(* Tri-valued literals let the encoder treat boundary time atoms
   (T ≤ 0, T ≤ H) and statically-known control facts (position 0 always
   executes) as constants. *)
type tri = T | F | L of S.lit

let ntri = function T -> F | F -> T | L l -> L (S.negate l)

(* A write event: the commit-time event id, the value written, the
   executed-literal of its position and — for CAS, whose write happens
   only on success — an activation literal. *)
type wrt = {
  wev : int;
  wval : int;
  wact : S.lit option;
  wex : tri;
  wthread : int;
  wpos : int;
}

(* What the passes share. [ex], [tl] and [tln] are filled in place by
   [control] and [ladders]; the rest is fixed when the record is made.
   The lazy selectors keep the record alive, so whatever only the
   build needs (the comparison literals, the writes per address, the
   control edges) stays out of it. *)
type enc = {
  s : S.t;
  progs : Litmus.instr array array;
  mutable buf : S.lit array;  (* the clause scratch, see [cpush] *)
  mutable len : int;
  mutable sat : bool;
  h : int;
  ex : tri array array;  (* ex(i,k): position k of thread i executes *)
  reach : bool array array array;
  issue : int array array;  (* event ids *)
  commit : int array array;
  tl : tri array array;  (* time ladders: tl.(e).(t - 1) ⟺ T_e ≤ t *)
  tln : tri array array;  (* their negations *)
  stores : int list array;  (* store positions per thread *)
}

let fresh e = S.pos (S.new_var e.s)

(* Clause construction goes through one reused scratch buffer: push
   tri-state literals with [cpush] ([T] marks the clause satisfied,
   [F] vanishes), commit with [cflush]. The hot constraint families
   below emit O(pairs · H) clauses, so the per-clause list building a
   naive [add_clause lits] interface implies was most of the encode's
   allocation. [cflush] hands the solver the literals in the order the
   old list pipeline did (reversed pushes — the solver re-reverses),
   keeping stored clauses, and hence search, byte-identical. *)
let cpush e = function
  | T -> e.sat <- true
  | F -> ()
  | L l ->
      if e.len = Array.length e.buf then begin
        let d = Array.make (2 * e.len) (S.pos 0) in
        (* A typed loop, not [Array.blit]: no write barrier. *)
        for k = 0 to e.len - 1 do
          d.(k) <- e.buf.(k)
        done;
        e.buf <- d
      end;
      e.buf.(e.len) <- l;
      e.len <- e.len + 1

let cflush e =
  if not e.sat then begin
    let b = e.buf and n = e.len in
    for i = 0 to (n / 2) - 1 do
      let t = b.(i) in
      b.(i) <- b.(n - 1 - i);
      b.(n - 1 - i) <- t
    done;
    S.add_lits e.s b n
  end;
  e.sat <- false;
  e.len <- 0

(* [List.iter (cpush e)] would allocate a closure per clause. *)
let rec push_all e = function
  | [] -> ()
  | l :: rest ->
      cpush e l;
      push_all e rest

let add_cl e lits =
  push_all e lits;
  cflush e

(* The literal memoised under [k], made by [make] on its first use. *)
let memo tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some l -> l
  | None ->
      let l = make () in
      Hashtbl.add tbl k l;
      l

(* Pairwise at-most-one over the literals of [(value, lit)] pairs. *)
let rec amo e = function
  | [] -> ()
  | (_, l) :: rest ->
      List.iter (fun (_, l') -> add_cl e [ L (S.negate l); L (S.negate l') ]) rest;
      amo e rest

(* A value table's pairs, made pairwise exclusive. *)
let amo_values e tbl =
  let pairs = Hashtbl.fold (fun v l acc -> (v, l) :: acc) tbl [] in
  amo e pairs;
  pairs

(* A fresh literal at every position whose instruction satisfies [p]. *)
let lits_at s progs p =
  Array.map
    (Array.map (fun op -> if p op then Some (S.pos (S.new_var s)) else None))
    progs

(* --- control flow, in-formula -------------------------------------- *)
(* One branch literal per Loadeq (true = value matched, branch taken);
   executed literals ex(i,k) are defined from them so the formula's
   executed set is exactly the control path the branch literals
   dictate. *)
let succs progs br i k =
  match progs.(i).(k) with
  | Litmus.Loadeq (_, _, skip) ->
      let b = Option.get br.(i).(k) in
      [ (k + 1 + skip, L b); (k + 1, L (S.negate b)) ]
  | _ -> [ (k + 1, T) ]

(* Reified conjunction / disjunction over tri. *)
let tri_and e a b =
  match (a, b) with
  | T, x | x, T -> x
  | F, _ | _, F -> F
  | L la, L lb ->
      if la = lb then a
      else begin
        let c = fresh e in
        add_cl e [ L (S.negate c); L la ];
        add_cl e [ L (S.negate c); L lb ];
        add_cl e [ L c; L (S.negate la); L (S.negate lb) ];
        L c
      end

let tri_or e = function
  | [] -> F
  | [ x ] -> x
  | xs when List.exists (function T -> true | F | L _ -> false) xs -> T
  | xs -> (
      match List.filter (function F -> false | T | L _ -> true) xs with
      | [] -> F
      | [ x ] -> x
      | xs ->
          let d = fresh e in
          List.iter (fun x -> add_cl e [ ntri x; L d ]) xs;
          add_cl e (L (S.negate d) :: xs);
          L d)

(* Fill [e.ex]; returns the executed control edges (i, j, k, condition),
   newest first. Po edges carry the edge condition (ex of source ∧
   branch polarity) for guarded program order. *)
let control e br =
  let n = Array.length e.progs in
  let len i = Array.length e.progs.(i) in
  let preds = Array.init n (fun i -> Array.make (len i) []) in
  for i = 0 to n - 1 do
    for j = 0 to len i - 1 do
      List.iter
        (fun (k, cond) ->
          if k < len i then preds.(i).(k) <- (j, cond) :: preds.(i).(k))
        (succs e.progs br i j)
    done
  done;
  let edges = ref [] in
  for i = 0 to n - 1 do
    for k = 1 to len i - 1 do
      let es =
        List.map (fun (j, cond) -> (j, tri_and e e.ex.(i).(j) cond)) preds.(i).(k)
      in
      e.ex.(i).(k) <- tri_or e (List.map snd es);
      List.iter
        (fun (j, c) ->
          match c with F -> () | T | L _ -> edges := (i, j, k, c) :: !edges)
        es
    done
  done;
  !edges

(* Same-thread co-occurrence: positions j ≤ k can both execute iff k
   is reachable from j in the control DAG. *)
let reach progs br =
  Array.mapi
    (fun i prog ->
      let l = Array.length prog in
      let r = Array.init l (fun _ -> Array.make l false) in
      for j = l - 1 downto 0 do
        r.(j).(j) <- true;
        List.iter
          (fun (k, _) ->
            if k < l then
              for m = 0 to l - 1 do
                if r.(k).(m) then r.(j).(m) <- true
              done)
          (succs progs br i j)
      done;
      r)
    progs

let cooccur e i j k =
  if j <= k then e.reach.(i).(j).(k) else e.reach.(i).(k).(j)

(* --- events and the horizon ---------------------------------------- *)
(* One issue event per position; one commit event per Store position
   (CAS writes memory at its own issue slot, so they alias). Events
   of unexecuted positions are phantoms: every constraint that gives
   them meaning is guarded by ex, so they float freely in the
   horizon and are ignored when a model is read off. Returns the
   issue and commit ids and each event's (thread, position, is
   commit). *)
let events progs =
  let commit = Array.map (fun p -> Array.make (Array.length p) (-1)) progs in
  let meta = ref [] and nev = ref 0 in
  let event i k is_commit =
    meta := (i, k, is_commit) :: !meta;
    incr nev;
    !nev - 1
  in
  let issue =
    Array.mapi
      (fun i ->
        Array.mapi (fun k op ->
            let x = event i k false in
            (match op with
            | Litmus.Store _ -> commit.(i).(k) <- event i k true
            | Litmus.Cas _ -> commit.(i).(k) <- x
            | _ -> ());
            x))
      progs
  in
  (issue, commit, Array.of_list (List.rev !meta))

let horizon progs =
  Array.fold_left
    (fun acc prog ->
      Array.fold_left
        (fun acc op ->
          acc + 1
          + match op with Litmus.Store _ -> 1 | Litmus.Wait d -> d | _ -> 0)
        acc prog)
    0 progs

(* Order encoding: o e t ⟺ T_e ≤ t, for t ∈ 1..H−1. The ladder
   literals and their negations are boxed once up front ([tl] / [tln]):
   every constraint family below iterates over all H time slots per
   event pair, so allocating a fresh [L _] on each [o] call dominated
   the whole encode. *)
let o e ev t = if t <= 0 then F else if t >= e.h then T else e.tl.(ev).(t - 1)

(* [no e ev t] ≡ [ntri (o e ev t)], allocation-free. *)
let no e ev t = if t <= 0 then T else if t >= e.h then F else e.tln.(ev).(t - 1)

(* Every event's rungs, then the ladder clauses T ≤ t → T ≤ t + 1.
   Each rung row is made with the immediate [F] and then filled:
   [Array.init] or [Array.map] would start a row longer than the minor
   heap's largest block from a young [L _] and force a minor
   collection per event. Variables are numbered in the same order. *)
let ladders e =
  let nev = Array.length e.tl and h = e.h in
  for ev = 0 to nev - 1 do
    let row = Array.make (max 0 (h - 1)) F and nrow = Array.make (max 0 (h - 1)) F in
    for t = 0 to h - 2 do
      let l = fresh e in
      row.(t) <- L l;
      nrow.(t) <- L (S.negate l)
    done;
    e.tl.(ev) <- row;
    e.tln.(ev) <- nrow
  done;
  for ev = 0 to nev - 1 do
    for t = 1 to h - 2 do
      cpush e (no e ev t);
      cpush e (o e ev (t + 1));
      cflush e
    done
  done

(* T_u + g ≤ T_v under the guards, as direct clauses over ladders. *)
let le_gap e ?(guards = []) u v g =
  for t = 1 to e.h do
    push_all e guards;
    cpush e (no e v t);
    cpush e (o e u (t - g));
    cflush e
  done

(* Reified strict comparison T_u < T_v, memoised in [ltc] (looked up
   by hand: it is the hottest memo, and [memo]'s closure would be
   allocated on every hit). The two clause directions force
   ¬lt(u,v) ⟺ T_v < T_u, so creating the literal for a pair also makes
   their times distinct. *)
let rec lt e ltc u v =
  if u = v then F
  else if u > v then ntri (lt e ltc v u)
  else
    match Hashtbl.find_opt ltc (u, v) with
    | Some p -> L p
    | None ->
        let p = fresh e in
        Hashtbl.add ltc (u, v) p;
        let pp = L p and np = L (S.negate p) in
        (* Each polarity of [p] is slot-1 watch of one clause per
           ladder rung: bulk-reserve both watch lists so the 2·H
           attaches below cost one allocation each instead of
           doubling through the distinctness ladder. *)
        S.reserve_watch e.s p e.h;
        S.reserve_watch e.s (S.negate p) e.h;
        for t = 1 to e.h do
          cpush e np;
          cpush e (no e v t);
          cpush e (o e u (t - 1));
          cflush e;
          cpush e pp;
          cpush e (no e u t);
          cpush e (o e v (t - 1));
          cflush e
        done;
        pp

(* One action per time slot: force distinctness for every event pair
   whose order is not already entailed when both execute (same-thread
   issues are po-ordered, same-thread commits FIFO-ordered, and an
   issue precedes any commit of a po-later-or-equal store). Phantom
   events take leftover slots — the horizon has room for every event,
   so the extra distinctness is always satisfiable. *)
let distinct e ltc meta =
  let nev = Array.length meta in
  for u = 0 to nev - 1 do
    for v = u + 1 to nev - 1 do
      let ti, ki, ci = meta.(u) and tj, kj, cj = meta.(v) in
      let ordered =
        ti = tj
        && (ci = cj
           || ((not ci) && cj && kj >= ki)
           || (ci && (not cj) && ki >= kj))
      in
      if not ordered then ignore (lt e ltc u v)
    done
  done

(* Program order along executed control edges, with wait gaps. *)
let program_order e edges =
  List.iter
    (fun (i, j, k, c) ->
      let g = match e.progs.(i).(j) with Litmus.Wait d -> d + 1 | _ -> 1 in
      le_gap e ~guards:[ ntri c ] e.issue.(i).(j) e.issue.(i).(k) g)
    edges

(* --- store-buffer base axioms (mode-independent: TSO) -------------- *)
let buffer_axioms e =
  Array.iteri
    (fun i prog ->
      let stores = e.stores.(i) and ex = e.ex.(i) in
      List.iter
        (fun k -> le_gap e ~guards:[ ntri ex.(k) ] e.issue.(i).(k) e.commit.(i).(k) 1)
        stores;
      (* FIFO: same-thread commits in program order, pairwise guarded. *)
      List.iter
        (fun ka ->
          List.iter
            (fun kb ->
              if kb > ka && cooccur e i ka kb then
                le_gap e
                  ~guards:[ ntri ex.(ka); ntri ex.(kb) ]
                  e.commit.(i).(ka) e.commit.(i).(kb) 1)
            stores)
        stores;
      (* Drain barriers: every earlier store committed before a Fence
         or Cas issues. *)
      Array.iteri
        (fun k op ->
          match op with
          | Litmus.Fence | Litmus.Cas _ ->
              List.iter
                (fun j ->
                  if j < k && cooccur e i j k then
                    le_gap e
                      ~guards:[ ntri ex.(j); ntri ex.(k) ]
                      e.commit.(i).(j) e.issue.(i).(k) 1)
                stores
          | _ -> ())
        prog)
    e.progs

(* --- mode timing axioms behind activation literals ----------------- *)
(* Δ grid: a_Δ → commit ≤ issue + Δ for every executed store. Grid
   points are created lazily and chained (a_Δ → a_Δ' for Δ < Δ', the
   semantic monotonicity) so learned clauses transfer across the
   sweep. SC is the Δ = 1 point: with one action per slot the commit
   must take the very next slot, which is observationally SC. *)
let delta_act e all_stores tbl d =
  memo tbl d (fun () ->
      let a = fresh e in
      List.iter
        (fun (i, k) ->
          le_gap e
            ~guards:[ L (S.negate a); ntri e.ex.(i).(k) ]
            e.commit.(i).(k) e.issue.(i).(k) (-d))
        all_stores;
      let lo = ref None and hi = ref None in
      Hashtbl.iter
        (fun d' a' ->
          if d' < d then (
            match !lo with
            | Some (dl, _) when dl >= d' -> ()
            | _ -> lo := Some (d', a'))
          else
            match !hi with
            | Some (dh, _) when dh <= d' -> ()
            | _ -> hi := Some (d', a'))
        tbl;
      (match !lo with
      | Some (_, al) -> S.add_clause e.s [ S.negate al; a ]
      | None -> ());
      (match !hi with
      | Some (_, ah) -> S.add_clause e.s [ S.negate a; ah ]
      | None -> ());
      a)

(* TSO[S] capacity: for every store and every c-subset of its earlier
   co-occurring stores, the subset's oldest member must have
   committed when the store issues (FIFO makes this the exact
   at-most-c-buffered condition). *)
let cap_act e all_stores tbl c =
  memo tbl c (fun () ->
      let a = fresh e in
      (if c <= 0 then
         List.iter
           (fun (i, k) -> add_cl e [ L (S.negate a); ntri e.ex.(i).(k) ])
           all_stores
       else
         let rec subsets c lst =
           if c = 0 then [ [] ]
           else
             match lst with
             | [] -> []
             | x :: rest ->
                 List.map (fun t -> x :: t) (subsets (c - 1) rest) @ subsets c rest
         in
         List.iter
           (fun (i, k) ->
             let earlier = List.filter (fun j -> j < k && cooccur e i j k) e.stores.(i) in
             List.iter
               (function
                 | [] -> ()
                 | oldest :: _ as sub ->
                     le_gap e
                       ~guards:
                         (L (S.negate a) :: ntri e.ex.(i).(k)
                         :: List.map (fun j -> ntri e.ex.(i).(j)) sub)
                       e.commit.(i).(oldest) e.issue.(i).(k) 1)
               (subsets c earlier))
           all_stores);
      a)

(* Fence-site selectors: f(i,k) → store k commits before any later
   instruction of its thread issues (a fence inserted right after the
   store). Queries pass the active selectors as assumptions; an
   unassumed selector costs nothing (its false polarity is always
   available). *)
let fence_act e sites tbl (i, k) =
  memo tbl (i, k) (fun () ->
      if not (List.mem (i, k) sites) then invalid_arg "Axiomatic: not a fence site";
      let f = fresh e in
      for k' = k + 1 to Array.length e.progs.(i) - 1 do
        if cooccur e i k k' then
          le_gap e
            ~guards:[ L (S.negate f); ntri e.ex.(i).(k); ntri e.ex.(i).(k') ]
            e.commit.(i).(k) e.issue.(i).(k') 1
      done;
      f)

(* --- reads --------------------------------------------------------- *)
(* The writes to each address, newest position first. *)
let writes e cas_s =
  let tbl = Hashtbl.create 7 in
  let add a w =
    Hashtbl.replace tbl a (w :: Option.value ~default:[] (Hashtbl.find_opt tbl a))
  in
  Array.iteri
    (fun i prog ->
      Array.iteri
        (fun k op ->
          let w wev wval wact =
            { wev; wval; wact; wex = e.ex.(i).(k); wthread = i; wpos = k }
          in
          match op with
          | Litmus.Store (a, v) -> add a (w e.commit.(i).(k) v None)
          | Litmus.Cas (a, _, d, _) -> add a (w e.issue.(i).(k) d cas_s.(i).(k))
          | _ -> ())
        prog)
    e.progs;
  tbl

(* The write takes effect: its position executes and, for a CAS, the
   CAS succeeds. *)
let live w = w.wex :: (match w.wact with Some al -> [ L al ] | None -> [])

(* [r] picks [w] as the co-latest of [ws]: every other live write is
   older than [w] or, for a read at event [x], issues after the read.
   The read's comparison is made first: that is the variable
   numbering. *)
let co_latest e ltc ~read r w ws =
  List.iter
    (fun w' ->
      if not (w'.wthread = w.wthread && w'.wpos = w.wpos) then begin
        let after = match read with Some x -> [ lt e ltc x w'.wev ] | None -> [] in
        let older = lt e ltc w'.wev w.wev in
        add_cl e ((L (S.negate r) :: List.map ntri (live w')) @ (older :: after))
      end)
    ws

(* Read-from with dynamic forwarding: an exactly-one choice among
   forwarding from the newest executed earlier same-address own store
   (still buffered at read time), the co-latest committed write, and
   the initial 0. Exclusivity of the alternatives is semantic (their
   side conditions contradict pairwise), so only the at-least-one
   clause — guarded by the read's ex — is added. *)
let encode_read e ltc writes i k a =
  let x = e.issue.(i).(k) and ex = e.ex.(i) in
  let own =
    List.filter
      (fun j ->
        j < k && cooccur e i j k
        && match e.progs.(i).(j) with Litmus.Store (a', _) -> a' = a | _ -> false)
      e.stores.(i)
  in
  let fwd_srcs =
    List.map
      (fun j ->
        let r = fresh e in
        add_cl e [ L (S.negate r); ex.(j) ];
        add_cl e [ L (S.negate r); lt e ltc x e.commit.(i).(j) ];
        List.iter
          (fun j' -> if j' > j then add_cl e [ L (S.negate r); ntri ex.(j') ])
          own;
        let v = match e.progs.(i).(j) with Litmus.Store (_, v) -> v | _ -> 0 in
        (L r, v))
      own
  in
  (* No own store may still be buffered at the read. *)
  let drained r =
    List.iter
      (fun j -> add_cl e [ L (S.negate r); ntri ex.(j); lt e ltc e.commit.(i).(j) x ])
      own
  in
  let cands =
    List.filter
      (fun w -> not (w.wthread = i && w.wpos >= k))
      (Option.value ~default:[] (Hashtbl.find_opt writes a))
  in
  let mem_srcs =
    List.map
      (fun w ->
        let r = fresh e in
        List.iter (fun c -> add_cl e [ L (S.negate r); c ]) (live w);
        add_cl e [ L (S.negate r); lt e ltc w.wev x ];
        drained r;
        co_latest e ltc ~read:(Some x) r w cands;
        (L r, w.wval))
      cands
  in
  let r0 = fresh e in
  List.iter
    (fun w ->
      add_cl e ((L (S.negate r0) :: List.map ntri (live w)) @ [ lt e ltc x w.wev ]))
    cands;
  drained r0;
  let srcs = ((L r0, 0) :: fwd_srcs) @ mem_srcs in
  add_cl e (ntri ex.(k) :: List.map fst srcs);
  srcs

(* Collapse source alternatives to per-value literals (the observable
   granularity): rf → its value, pairwise at-most-one. *)
let val_lits e srcs =
  let tbl = Hashtbl.create 7 in
  List.iter (fun (l, v) -> add_cl e [ ntri l; L (memo tbl v (fun () -> fresh e)) ]) srcs;
  amo_values e tbl

(* The read's value decides [b]: true iff it is [v0]. *)
let decide e b v0 srcs =
  List.iter (fun (l, v) -> add_cl e [ ntri l; L (if v = v0 then b else S.negate b) ]) srcs

(* Encode every read; returns each Load's per-value literals. *)
let reads e ltc writes br cas_s =
  let read_vals = Array.map (fun p -> Array.make (Array.length p) []) e.progs in
  Array.iteri
    (fun i prog ->
      Array.iteri
        (fun k op ->
          match op with
          | Litmus.Load (a, _) ->
              read_vals.(i).(k) <- val_lits e (encode_read e ltc writes i k a)
          | Litmus.Loadeq (a, v0, _) ->
              (* The read's value decides the branch literal. *)
              decide e (Option.get br.(i).(k)) v0 (encode_read e ltc writes i k a)
          | Litmus.Cas (a, x, _, _) ->
              (* Reads memory directly: the drain barrier above forces
                 any own earlier store to have committed. *)
              decide e (Option.get cas_s.(i).(k)) x (encode_read e ltc writes i k a)
          | _ -> ())
        prog)
    e.progs;
  read_vals

(* --- observables --------------------------------------------------- *)
(* Register values: the last executed program-order writer of each
   register decides it. With in-formula control flow the last writer
   is dynamic, so it is selected by last-writer literals (exactly-one
   with the no-writer case) and funnelled into per-value register
   literals; a register no instruction writes has no group. Returns the
   groups newest first. *)
let registers e ~regs cas_s read_vals =
  let observables = ref [] in
  Array.iteri
    (fun i prog ->
      let ex = e.ex.(i) in
      for r = 0 to regs - 1 do
        let writers = ref [] in
        for k = Array.length prog - 1 downto 0 do
          match prog.(k) with
          | Litmus.Load (_, r') | Litmus.Cas (_, _, _, r') ->
              if r' = r then writers := k :: !writers
          | _ -> ()
        done;
        let writers = !writers in
        if writers <> [] then begin
          let lws =
            List.map
              (fun k ->
                let lw = fresh e in
                add_cl e [ L (S.negate lw); ex.(k) ];
                List.iter
                  (fun k' -> if k' > k then add_cl e [ L (S.negate lw); ntri ex.(k') ])
                  writers;
                add_cl e
                  (L lw :: ntri ex.(k)
                  :: List.filter_map
                       (fun k' -> if k' > k then Some ex.(k') else None)
                       writers);
                (k, lw))
              writers
          in
          let lw_none = fresh e in
          List.iter (fun k -> add_cl e [ L (S.negate lw_none); ntri ex.(k) ]) writers;
          add_cl e (L lw_none :: List.map (fun k -> ex.(k)) writers);
          let tbl = Hashtbl.create 7 in
          let rv v = L (memo tbl v (fun () -> fresh e)) in
          List.iter
            (fun (k, lw) ->
              match prog.(k) with
              | Litmus.Load _ ->
                  List.iter
                    (fun (v, vl) -> add_cl e [ L (S.negate lw); L (S.negate vl); rv v ])
                    read_vals.(i).(k)
              | Litmus.Cas _ ->
                  let sl = Option.get cas_s.(i).(k) in
                  add_cl e [ L (S.negate lw); L (S.negate sl); rv 1 ];
                  add_cl e [ L (S.negate lw); L sl; rv 0 ]
              | _ -> ())
            lws;
          add_cl e [ L (S.negate lw_none); rv 0 ];
          observables := Ob_val (i, r, amo_values e tbl) :: !observables
        end
      done)
    e.progs;
  !observables

(* Final memory: the co-latest executed live write per address
   (exactly-one with the no-live-write case), added to [acc]. *)
let final_memory e ltc writes acc =
  Hashtbl.fold
    (fun a ws acc ->
      let fws =
        List.map
          (fun w ->
            let f = fresh e in
            List.iter (fun c -> add_cl e [ L (S.negate f); c ]) (live w);
            co_latest e ltc ~read:None f w ws;
            (f, w))
          ws
      in
      let m0 = fresh e in
      List.iter (fun w -> add_cl e (L (S.negate m0) :: List.map ntri (live w))) ws;
      add_cl e (L m0 :: List.map (fun (f, _) -> L f) fws);
      let srcs = List.map (fun (f, w) -> (L f, w.wval)) fws @ [ (L m0, 0) ] in
      Ob_mem (a, val_lits e srcs) :: acc)
    writes acc

(* Path combinations covered inside the single formula. *)
let combos progs =
  Array.fold_left
    (fun acc prog ->
      let l = Array.length prog in
      let np = Array.make (l + 1) 0 in
      np.(l) <- 1;
      for k = l - 1 downto 0 do
        np.(k) <-
          (match prog.(k) with
          | Litmus.Loadeq (_, _, skip) -> np.(min l (k + 1 + skip)) + np.(k + 1)
          | _ -> np.(k + 1))
      done;
      acc * np.(0))
    1 progs

let encode ~addrs ~regs programs : t =
  let s = S.create () in
  let progs = Array.of_list (List.map Array.of_list programs) in
  let br = lits_at s progs (function Litmus.Loadeq _ -> true | _ -> false) in
  let issue, commit, meta = events progs in
  let e =
    {
      s;
      progs;
      buf = Array.make 16 (S.pos 0);
      len = 0;
      sat = false;
      h = horizon progs;
      ex = Array.map (fun p -> Array.make (Array.length p) T) progs;
      reach = reach progs br;
      issue;
      commit;
      tl = Array.make (Array.length meta) [||];
      tln = Array.make (Array.length meta) [||];
      stores =
        Array.map
          (fun prog ->
            List.filter
              (fun k -> match prog.(k) with Litmus.Store _ -> true | _ -> false)
              (List.init (Array.length prog) Fun.id))
          progs;
    }
  in
  let edges = control e br in
  ladders e;
  let ltc = Hashtbl.create 97 in
  distinct e ltc meta;
  program_order e edges;
  buffer_axioms e;
  let all_stores =
    List.concat
      (List.mapi (fun i ks -> List.map (fun k -> (i, k)) ks) (Array.to_list e.stores))
  in
  let sites = List.filter (fun (i, k) -> k < Array.length progs.(i) - 1) all_stores in
  let cas_s = lits_at s progs (function Litmus.Cas _ -> true | _ -> false) in
  let writes = writes e cas_s in
  let read_vals = reads e ltc writes br cas_s in
  let observables = final_memory e ltc writes (registers e ~regs cas_s read_vals) in
  {
    s;
    n = Array.length progs;
    addrs;
    regs;
    h = e.h;
    combos = combos progs;
    observables;
    sites;
    delta_act = delta_act e all_stores (Hashtbl.create 7);
    cap_act = cap_act e all_stores (Hashtbl.create 7);
    fence_act = fence_act e sites (Hashtbl.create 7);
  }
