(* Axiomatic second oracle: compile a litmus program into one formula
   ([Encoding]), then answer mode queries (enumeration, robustness)
   incrementally against its long-lived solver. Mode timing axioms live
   behind activation literals, so a Δ-sweep or a robustness binary
   search reuses the clause database and the learned clauses of every
   earlier query. The encoding and its operational-equivalence argument
   are documented in axiomatic.mli; this file deliberately shares
   nothing with Litmus's exploration machinery beyond the AST and
   outcome types. *)

module S = Tbtso_sat.Solver
module Span = Tbtso_obs.Span

type stats = {
  paths : int;
  vars : int;
  clauses : int;
  solves : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  learned : int;
  restarts : int;
  outcomes : int;
  seeded : int;
  elapsed : float;
}

type result = { outcomes : Litmus.outcome list; complete : bool; stats : stats }

let default_max_outcomes = 65_536

(* A query's formula, as far as answer reuse cares: the mode's
   activation (none for TSO and for Δ ≥ H, the Δ grid point, or the
   TSO[S] capacity) and the sorted active fence sites. *)
type key = Top | Grid of int | Cap of int

type answer = {
  akey : key;
  afences : (int * int) list;
  aset : Litmus.outcome list;  (* sorted *)
  acomplete : bool;
}

type session = {
  enc : Encoding.t;
  mutable answers : answer list;
  mutable sc_baseline : (S.lit * Litmus.outcome list) option;
  mutable sweep : bool;
  mutable outcomes_total : int;
  mutable seeded_total : int;
  mutable elapsed : float;
}

let session ?(addrs = 4) ?(regs = 4) ?(profiler = Span.disabled) programs =
  Litmus.validate ~who:"Axiomatic.session" ~addrs ~regs programs;
  (* The whole formula build is the encode phase; items = clauses
     added. The solver's own propagate / analyze / simplify phases are
     attached through [S.set_profiler] and fill in during queries. *)
  let ph_encode = Span.phase profiler "sat.encode" in
  Span.start ph_encode;
  let t0 = Sys.time () in
  let enc = Encoding.encode ~addrs ~regs programs in
  S.set_profiler enc.s profiler;
  let sess =
    {
      enc;
      answers = [];
      sc_baseline = None;
      sweep = false;
      outcomes_total = 0;
      seeded_total = 0;
      elapsed = Sys.time () -. t0;
    }
  in
  Span.stop ph_encode;
  Span.items ph_encode (S.n_clauses enc.s);
  sess

let horizon sess = sess.enc.h
let path_combinations sess = sess.enc.combos
let fence_sites sess = sess.enc.sites

let mode_key sess = function
  | Litmus.M_sc -> if sess.enc.h > 1 then Grid 1 else Top
  | Litmus.M_tso -> Top
  | Litmus.M_tbtso d -> if d >= sess.enc.h then Top else Grid d
  | Litmus.M_tsos c -> Cap c

let key_assumptions sess = function
  | Top -> []
  | Grid d -> [ sess.enc.delta_act d ]
  | Cap c -> [ sess.enc.cap_act c ]

(* Does a query on (key, fences) include the earlier answer's formula,
   so that every outcome of the answer is an outcome of the query?
   Smaller Δ and more fences only remove executions; TSO includes every
   mode; a capacity answer says nothing about another capacity or a Δ. *)
let includes ~key ~fences a =
  List.for_all (fun f -> List.mem f a.afences) fences
  &&
  match (key, a.akey) with
  | Top, _ -> true
  | Grid d, Grid d' -> d' <= d
  | Cap c, Cap c' -> c = c'
  | _ -> false

(* The union of the included earlier answers, and whether one of them
   already is this very query answered completely. *)
let seeds sess ~key ~fences =
  let earlier = List.filter (includes ~key ~fences) sess.answers in
  match
    List.find_opt
      (fun a -> a.acomplete && a.akey = key && a.afences = fences)
      earlier
  with
  | Some a -> (a.aset, true)
  | None ->
      (List.sort_uniq compare (List.concat_map (fun a -> a.aset) earlier), false)

(* Keep an answer for later queries; it supersedes earlier answers of the
   same formula, which were its seeds. *)
let remember sess ~key ~fences (outcomes, complete) =
  sess.answers <-
    { akey = key; afences = fences; aset = outcomes; acomplete = complete }
    :: List.filter
         (fun a -> not (a.akey = key && a.afences = fences))
         sess.answers

let extract sess =
  let regs_a = Array.init sess.enc.n (fun _ -> Array.make sess.enc.regs 0) in
  let mem = Array.make sess.enc.addrs 0 in
  List.iter
    (function
      | Encoding.Ob_val (i, r, pairs) ->
          List.iter
            (fun (v, l) -> if S.lit_value sess.enc.s l then regs_a.(i).(r) <- v)
            pairs
      | Encoding.Ob_mem (a, pairs) ->
          List.iter
            (fun (v, l) -> if S.lit_value sess.enc.s l then mem.(a) <- v)
            pairs)
    sess.enc.observables;
  { Litmus.regs = regs_a; mem }

(* Forbid an outcome's observable projection under the query guard, so
   the clause retires with the query. Each observable group is
   exactly-one, so an outcome names one literal per group: the clause is
   the one a model with this outcome would block. *)
let block sess guard (o : Litmus.outcome) =
  S.add_clause sess.enc.s
    (S.negate guard
    :: List.concat_map
         (fun ob ->
           let v, pairs =
             match ob with
             | Encoding.Ob_val (i, r, pairs) -> (o.regs.(i).(r), pairs)
             | Encoding.Ob_mem (a, pairs) -> (o.mem.(a), pairs)
           in
           List.filter_map
             (fun (v', l) -> if v' = v then Some (S.negate l) else None)
             pairs)
         sess.enc.observables)

(* Enumerate under [guard :: assumptions], starting from [seeds], which
   the caller blocked: every solve finds a new outcome or closes the
   query. Returns the sorted outcomes and completeness. *)
let enumerate_guarded sess ~assumptions ~guard ~max_outcomes seeds =
  let found = Hashtbl.create 64 in
  List.iter (fun o -> Hashtbl.replace found o ()) seeds;
  let complete = ref true in
  let continue_ = ref true in
  let assumptions = guard :: assumptions in
  while !continue_ do
    if not (S.solve ~assumptions sess.enc.s) then continue_ := false
    else begin
      let o = extract sess in
      Hashtbl.replace found o ();
      if Hashtbl.length found >= max_outcomes then begin
        complete := false;
        continue_ := false
      end
      else block sess guard o
    end
  done;
  ( List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) found []),
    !complete )

let rec take k = function x :: r when k > 0 -> x :: take (k - 1) r | _ -> []

(* A query's answer: the seeds alone when they already fill the budget,
   else the seeds blocked under the guard and then either the cached
   set of an identical complete query or an enumeration that starts
   from them. Also returns how many outcomes came from earlier
   answers. *)
let answer sess ~key ~fences ~guard ~assumptions ~max_outcomes =
  let seeded, exact = seeds sess ~key ~fences in
  let cap = max 1 max_outcomes in
  let n = List.length seeded in
  let outcomes, complete =
    if n >= cap then (take cap seeded, false)
    else begin
      List.iter (block sess guard) seeded;
      if exact then (seeded, true)
      else enumerate_guarded sess ~assumptions ~guard ~max_outcomes seeded
    end
  in
  remember sess ~key ~fences (outcomes, complete);
  (outcomes, complete, min n cap)

let stats_of sess ~outcomes ~seeded ~elapsed =
  let st = S.stats sess.enc.s in
  {
    paths = sess.enc.combos;
    vars = S.n_vars sess.enc.s;
    clauses = S.n_clauses sess.enc.s;
    solves = st.S.solves;
    conflicts = st.S.conflicts;
    decisions = st.S.decisions;
    propagations = st.S.propagations;
    learned = st.S.learned;
    restarts = st.S.restarts;
    outcomes;
    seeded;
    elapsed;
  }

let session_stats sess =
  stats_of sess ~outcomes:sess.outcomes_total ~seeded:sess.seeded_total
    ~elapsed:sess.elapsed

(* One query's share of the work counters: differences against the
   solver's counters at the start of the query. [vars] / [clauses] /
   [learned] describe the session's formula, so they stay snapshots. *)
let query_stats sess (before : S.stats) ~outcomes ~seeded ~elapsed =
  let st = stats_of sess ~outcomes ~seeded ~elapsed in
  {
    st with
    solves = st.solves - before.S.solves;
    conflicts = st.conflicts - before.S.conflicts;
    decisions = st.decisions - before.S.decisions;
    propagations = st.propagations - before.S.propagations;
    restarts = st.restarts - before.S.restarts;
  }

(* The SC outcome set is the robustness baseline: its blocking clauses
   stay behind a guard literal that is never retired and that later
   containment queries re-assume. An SC set some query already
   answered is blocked as it stands, with no solve. *)
let sc_baseline sess =
  match sess.sc_baseline with
  | Some b -> b
  | None ->
      let t0 = Sys.time () in
      let q = S.pos (S.new_var sess.enc.s) in
      let key = mode_key sess Litmus.M_sc in
      let outcomes, complete, seeded =
        answer sess ~key ~fences:[] ~guard:q
          ~assumptions:(key_assumptions sess key)
          ~max_outcomes:default_max_outcomes
      in
      if not complete then
        failwith "Axiomatic: SC baseline outcome budget exhausted";
      sess.sc_baseline <- Some (q, outcomes);
      sess.outcomes_total <- sess.outcomes_total + List.length outcomes;
      sess.seeded_total <- sess.seeded_total + seeded;
      sess.elapsed <- sess.elapsed +. (Sys.time () -. t0);
      (q, outcomes)

let sc_outcomes sess = snd (sc_baseline sess)

let sweep_on_retire sess = sess.sweep <- true

(* Retire the query: its blocking clauses (and any learned clause that
   resolved against them) become permanently satisfied and are
   reclaimed; mode-independent learned clauses survive for the next
   query. *)
let retire sess q = S.retire ~sweep:sess.sweep sess.enc.s q

let enumerate_session sess ?(fences = []) ?(max_outcomes = default_max_outcomes)
    mode =
  let t0 = Sys.time () in
  let before = S.stats sess.enc.s in
  let fence_lits = List.map sess.enc.fence_act fences in
  (* Every query owns a guard, cached or not, so the formula's size
     after a sequence of queries does not depend on which were cached. *)
  let q = S.new_guard sess.enc.s in
  let key = mode_key sess mode in
  let outcomes, complete, seeded =
    answer sess ~key
      ~fences:(List.sort_uniq compare fences)
      ~guard:q
      ~assumptions:(key_assumptions sess key @ fence_lits)
      ~max_outcomes
  in
  retire sess q;
  let n = List.length outcomes in
  sess.outcomes_total <- sess.outcomes_total + n;
  sess.seeded_total <- sess.seeded_total + seeded;
  let dt = Sys.time () -. t0 in
  sess.elapsed <- sess.elapsed +. dt;
  {
    outcomes;
    complete;
    stats = query_stats sess before ~outcomes:n ~seeded ~elapsed:dt;
  }

let robust sess ?(fences = []) mode =
  let t0 = Sys.time () in
  let q_sc, _ = sc_baseline sess in
  let assumptions =
    (q_sc :: key_assumptions sess (mode_key sess mode))
    @ List.map sess.enc.fence_act fences
  in
  let r =
    if S.solve ~assumptions sess.enc.s then `Witness (extract sess) else `Robust
  in
  sess.elapsed <- sess.elapsed +. (Sys.time () -. t0);
  r

let explore ~mode ?(addrs = 4) ?(regs = 4)
    ?(max_outcomes = default_max_outcomes) ?profiler programs =
  let sess = session ~addrs ~regs ?profiler programs in
  let r = enumerate_session sess ~max_outcomes mode in
  { r with stats = { r.stats with elapsed = sess.elapsed } }

let enumerate ~mode ?addrs ?regs ?max_outcomes programs =
  let r = explore ~mode ?addrs ?regs ?max_outcomes programs in
  if not r.complete then
    failwith "Axiomatic.enumerate: outcome budget exhausted";
  r.outcomes

let pp_stats fmt s =
  Format.fprintf fmt
    "%d paths, %d vars, %d clauses, %d solves, %d conflicts, %d decisions, \
     %d learned, %d restarts, %d outcomes (%d seeded), %.3fs"
    s.paths s.vars s.clauses s.solves s.conflicts s.decisions s.learned
    s.restarts s.outcomes s.seeded s.elapsed

(* Every integer stats field, in JSON order; the registry counters are
   the same names under [sat.]. *)
let int_fields =
  [
    ("paths", fun s -> s.paths);
    ("vars", fun s -> s.vars);
    ("clauses", fun s -> s.clauses);
    ("solves", fun s -> s.solves);
    ("conflicts", fun s -> s.conflicts);
    ("decisions", fun s -> s.decisions);
    ("propagations", fun s -> s.propagations);
    ("learned", fun s -> s.learned);
    ("restarts", fun s -> s.restarts);
    ("outcomes", fun s -> s.outcomes);
    ("seeded", fun s -> s.seeded);
  ]

let stats_json s =
  let open Tbtso_obs in
  Json.obj
    (List.map (fun (k, f) -> (k, Json.Int (f s))) int_fields
    @ [ ("elapsed_s", Json.Float s.elapsed) ])

let record_stats registry s =
  let open Tbtso_obs in
  List.iter
    (fun (k, f) -> Metrics.add (Metrics.counter registry ("sat." ^ k)) (f s))
    int_fields;
  Metrics.add (Metrics.counter registry "sat.explorations") 1;
  let elapsed = Metrics.gauge registry "sat.elapsed_s" in
  Metrics.set elapsed (Metrics.gauge_value elapsed +. s.elapsed)
