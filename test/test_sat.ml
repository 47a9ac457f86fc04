(* Unit and property tests for the CDCL solver that backs the axiomatic
   litmus oracle. The solver is validated against a brute-force model
   enumerator on small random formulas (decision, model counting via
   blocking clauses, solving under assumptions) plus pigeonhole UNSAT
   instances and a learned-clause entailment invariant. *)

module S = Tbtso_sat.Solver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A formula as a list of clauses over variables [0, nvars); a literal is
   [(v, sign)] with [sign = true] for positive. *)
type cnf = { nvars : int; clauses : (int * bool) list list }

let to_lit (v, sign) = if sign then S.pos v else S.neg v

let solver_of cnf =
  let s = S.create () in
  for _ = 1 to cnf.nvars do
    ignore (S.new_var s)
  done;
  List.iter (fun c -> S.add_clause s (List.map to_lit c)) cnf.clauses;
  s

(* --- brute force reference --- *)

let eval_clause asn c = List.exists (fun (v, sign) -> asn.(v) = sign) c

let eval cnf asn = List.for_all (eval_clause asn) cnf.clauses

(* All satisfying assignments, as bool arrays, in lexicographic order. *)
let brute_models ?(fixed = []) cnf =
  let models = ref [] in
  let asn = Array.make (max 1 cnf.nvars) false in
  for bits = 0 to (1 lsl cnf.nvars) - 1 do
    for v = 0 to cnf.nvars - 1 do
      asn.(v) <- bits land (1 lsl v) <> 0
    done;
    if
      List.for_all (fun (v, sign) -> asn.(v) = sign) fixed
      && eval cnf asn
    then models := Array.copy asn :: !models
  done;
  List.rev !models

(* --- pigeonhole --- *)

(* PHP(n+1, n): n+1 pigeons in n holes, someone shares. Var p*n + h means
   pigeon p sits in hole h. *)
let pigeonhole n =
  let var p h = (p * n) + h in
  let at_least =
    List.init (n + 1) (fun p -> List.init n (fun h -> (var p h, true)))
  in
  let no_share = ref [] in
  for h = 0 to n - 1 do
    for p = 0 to n do
      for q = p + 1 to n do
        no_share := [ (var p h, false); (var q h, false) ] :: !no_share
      done
    done
  done;
  { nvars = (n + 1) * n; clauses = at_least @ !no_share }

let test_pigeonhole () =
  List.iter
    (fun n ->
      let s = solver_of (pigeonhole n) in
      check_bool (Printf.sprintf "PHP(%d,%d) unsat" (n + 1) n) false
        (S.solve s);
      check_bool "root unsat sticks" false (S.ok s);
      check_bool "resolve still unsat" false (S.solve s);
      let st = S.stats s in
      check_bool "refutation required conflicts" true (st.S.conflicts > 0))
    [ 2; 3; 4; 5 ]

let test_trivial () =
  (* Empty formula is SAT; empty clause is UNSAT; unit clauses fix the
     model; duplicate/tautological clauses are harmless. *)
  let s = S.create () in
  check_bool "empty formula" true (S.solve s);
  let v = S.new_var s in
  S.add_clause s [ S.pos v; S.neg v ];
  S.add_clause s [ S.neg v; S.neg v ];
  check_bool "tautology + duplicate lits" true (S.solve s);
  check_bool "unit forced false" false (S.value s v);
  S.add_clause s [ S.pos v ];
  check_bool "contradicting units" false (S.solve s);
  let s = S.create () in
  S.add_clause s [];
  check_bool "empty clause" false (S.solve s)

(* --- random 3-SAT vs brute force --- *)

let cnf_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 8 in
    let* nclauses = int_range 0 (4 * nvars) in
    let lit = pair (int_range 0 (nvars - 1)) bool in
    let clause = list_size (int_range 1 3) lit in
    let+ clauses = list_repeat nclauses clause in
    { nvars; clauses })

let cnf_print cnf =
  Printf.sprintf "nvars=%d %s" cnf.nvars
    (String.concat " "
       (List.map
          (fun c ->
            "("
            ^ String.concat "|"
                (List.map
                   (fun (v, s) -> (if s then "" else "~") ^ string_of_int v)
                   c)
            ^ ")")
          cnf.clauses))

let cnf_arb = QCheck.make ~print:cnf_print cnf_gen

let model_of_solver cnf s =
  Array.init cnf.nvars (fun v -> S.value s v)

let prop_decision =
  QCheck.Test.make ~count:500 ~name:"solver sat iff brute-force sat" cnf_arb
    (fun cnf ->
      let s = solver_of cnf in
      let sat = S.solve s in
      let models = brute_models cnf in
      if sat <> (models <> []) then false
      else if sat then eval cnf (model_of_solver cnf s)
      else true)

(* Enumerate every model by re-solving with blocking clauses; the solver's
   model set must equal the brute-force set exactly. *)
let enumerate_models cnf s =
  let models = ref [] in
  while S.solve s do
    let m = model_of_solver cnf s in
    models := m :: !models;
    S.add_clause s
      (List.init cnf.nvars (fun v ->
           if m.(v) then S.neg v else S.pos v))
  done;
  List.rev !models

let prop_model_enumeration =
  QCheck.Test.make ~count:300 ~name:"blocking-clause enumeration = brute force"
    cnf_arb (fun cnf ->
      QCheck.assume (cnf.nvars <= 6);
      let s = solver_of cnf in
      let got = List.sort compare (enumerate_models cnf s) in
      let want = List.sort compare (brute_models cnf) in
      got = want)

let prop_assumptions =
  QCheck.Test.make ~count:300
    ~name:"solve-under-assumptions (both polarities) = brute force with fixed lit"
    (QCheck.pair cnf_arb QCheck.small_nat)
    (fun (cnf, vraw) ->
      let v = vraw mod cnf.nvars in
      let s = solver_of cnf in
      let q fixed assumptions =
        let sat = S.solve ~assumptions s in
        sat = (brute_models ~fixed cnf <> [])
      in
      (* Same solver instance answers all queries: the two assumption
         polarities, then the unconstrained formula again. *)
      q [ (v, true) ] [ S.pos v ]
      && q [ (v, false) ] [ S.neg v ]
      && q [] []
      && q [ (v, true) ] [ S.pos v ])

(* --- learned-clause invariant --- *)

(* Every learned clause must be entailed by the original formula: adding
   its negation (as unit clauses) to a fresh solver over the same formula
   must be UNSAT. *)
let entailed cnf lits =
  let s = solver_of cnf in
  List.iter (fun l -> S.add_clause s [ S.negate l ]) lits;
  not (S.solve s)

let prop_learned_entailed =
  QCheck.Test.make ~count:150 ~name:"learned clauses entailed by formula"
    cnf_arb (fun cnf ->
      let s = solver_of cnf in
      ignore (S.solve s);
      ignore (enumerate_models cnf (solver_of cnf));
      List.for_all (entailed cnf) (S.learned_clauses s))

let test_learned_pigeonhole () =
  let cnf = pigeonhole 3 in
  let s = solver_of cnf in
  check_bool "unsat" false (S.solve s);
  let learned = S.learned_clauses s in
  check_int "learned count matches stats" (List.length learned)
    (S.stats s).S.learned;
  List.iter
    (fun c -> check_bool "learned clause entailed" true (entailed cnf c))
    learned

let test_incremental_growth () =
  (* add_clause between solves: constrain an 8-var formula one clause at a
     time down to a single model, then to UNSAT. *)
  let n = 8 in
  let s = S.create () in
  let vs = Array.init n (fun _ -> S.new_var s) in
  check_bool "free formula sat" true (S.solve s);
  for v = 0 to n - 1 do
    S.add_clause s [ (if v mod 2 = 0 then S.pos vs.(v) else S.neg vs.(v)) ];
    check_bool "still sat" true (S.solve s)
  done;
  for v = 0 to n - 1 do
    check_bool "pinned value" (v mod 2 = 0) (S.value s vs.(v))
  done;
  S.add_clause s [ S.neg vs.(0); S.pos vs.(1) ];
  check_bool "now unsat" false (S.solve s)

(* --- incremental session vs from-scratch axiomatic sweeps --- *)

module Ax = Tsim.Axiomatic
module L = Tsim.Litmus

(* The formula a query is answered from, as answer reuse sees it: SC is
   the Δ = 1 grid point, and a Δ at or past the horizon is plain TSO. *)
let formula h = function
  | L.M_sc -> if h > 1 then `Grid 1 else `Tso
  | L.M_tso -> `Tso
  | L.M_tbtso d -> if d >= h then `Tso else `Grid d
  | L.M_tsos c -> `Cap c

(* The exact solve count of a complete query: none for a repeat of an
   answered formula, else one per outcome the seeds did not hold plus
   the closing UNSAT one. *)
let solve_identity ~repeat (st : Ax.stats) =
  st.Ax.solves = if repeat then 0 else st.Ax.outcomes - st.Ax.seeded + 1

(* One long-lived session answering every mode × Δ query must produce
   exactly the outcome sets of a fresh solver per query, and the
   retained learned clauses must make each program's sweep cheaper than
   the sum of its from-scratch solves. *)
let test_session_vs_scratch () =
  let x = 0 and y = 1 and z = 2 in
  let flag w =
    [ [ L.Store (x, 1); L.Load (y, 0) ];
      [ L.Store (y, 1); L.Fence; L.Wait w; L.Load (x, 0) ] ]
  in
  let small = L.M_sc :: L.M_tso :: List.init 8 (fun i -> L.M_tbtso (i + 1)) in
  let grid =
    List.map (fun d -> L.M_tbtso d) [ 4; 8; 16; 32; 64; 128; 256; 512 ]
  in
  let programs =
    [
      ("sb", [ [ L.Store (x, 1); L.Load (y, 0) ];
               [ L.Store (y, 1); L.Load (x, 0) ] ], small);
      ("flag", flag 4, small);
      (* Loadeq exercises the in-formula branch encoding. *)
      ("spin", [ [ L.Store (x, 1) ];
                 [ L.Loadeq (x, 1, 1); L.Store (y, 1); L.Load (x, 1) ] ], small);
      (* The flag protocols over the paper-scale Δ grid. *)
      ("flag wait=4 grid", flag 4, grid);
      ("flag wait=64 grid", flag 64, grid);
      ("flag3 wait=4 grid",
       flag 4 @ [ [ L.Store (z, 1); L.Load (x, 2) ] ], grid);
    ]
  in
  List.iter
    (fun (name, prog, modes) ->
      let sess = Ax.session prog in
      let scratch = ref 0 in
      let answered = ref [] in
      List.iter
        (fun mode ->
          let key = formula (Ax.horizon sess) mode in
          let repeat = List.mem key !answered in
          answered := key :: !answered;
          let ir = Ax.enumerate_session sess mode in
          check_bool
            (Printf.sprintf "%s %s: solves = outcomes − seeded + 1 (0 if repeat)"
               name (Tsim.Litmus_parse.mode_id mode))
            true
            (solve_identity ~repeat ir.Ax.stats);
          let sr = Ax.explore ~mode prog in
          check_bool (name ^ " both complete") true
            (ir.Ax.complete && sr.Ax.complete);
          check_bool
            (Printf.sprintf "%s %s: incremental = scratch outcome set" name
               (Tsim.Litmus_parse.mode_id mode))
            true
            (ir.Ax.outcomes = sr.Ax.outcomes);
          scratch := !scratch + sr.Ax.stats.Ax.conflicts)
        modes;
      let st = Ax.session_stats sess in
      (* Over the session: one solve per unseeded outcome plus a closing
         UNSAT per distinct formula, on one clause database. *)
      check_int (name ^ " solves = outcomes − seeded + formulas")
        (st.Ax.outcomes - st.Ax.seeded
        + List.length (List.sort_uniq compare !answered))
        st.Ax.solves;
      check_bool
        (Printf.sprintf "%s: strictly fewer conflicts (%d vs scratch %d)" name
           st.Ax.conflicts !scratch)
        true
        (st.Ax.conflicts < !scratch))
    programs

(* --- answer reuse and guard retirement --- *)

type query =
  | Enum of L.mode * int * int option  (* mode, fence-site mask, budget *)
  | Robust of L.mode * int
  | Sc_outcomes

let print_query = function
  | Enum (m, f, k) ->
      Printf.sprintf "enum %s fences=%#x%s" (Tsim.Litmus_parse.mode_id m) f
        (match k with Some k -> Printf.sprintf " max=%d" k | None -> "")
  | Robust (m, f) ->
      Printf.sprintf "robust %s fences=%#x" (Tsim.Litmus_parse.mode_id m) f
  | Sc_outcomes -> "sc_outcomes"

(* Modes in random order, so ascending and descending Δ both occur. *)
let mode_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return L.M_sc);
        (1, return L.M_tso);
        (1, map (fun c -> L.M_tsos c) (int_range 1 2));
        (4, map (fun d -> L.M_tbtso d) (int_range 1 8));
      ])

let query_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun m f k -> Enum (m, f, k))
            mode_gen (int_bound 15)
            (frequency [ (3, return None); (1, map Option.some (int_range 1 4)) ])
        );
        (2, map2 (fun m f -> Robust (m, f)) mode_gen (int_bound 15));
        (1, return Sc_outcomes);
      ])

let session_arb =
  QCheck.make
    ~print:(fun (p, qs) ->
      Programs.print_program p ^ "\n"
      ^ String.concat "\n" (List.map print_query qs))
    QCheck.Gen.(pair Programs.program_gen3 (list_size (int_range 4 12) query_gen))

let pick_fences sess mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Ax.fence_sites sess)

(* The retirement twin: [b] retires by the full sweep, [a] by
   [Solver.retire]; the formula and every work counter must agree after
   every query. *)
let twin_agrees what a b =
  let sa = Ax.session_stats a and sb = Ax.session_stats b in
  List.for_all
    (fun (field, f) ->
      f sa = f sb
      ||
      (Printf.eprintf "%s: %s %d (retire) vs %d (sweep)\n" what field (f sa)
         (f sb);
       false))
    [
      ("vars", fun (st : Ax.stats) -> st.Ax.vars);
      ("clauses", fun st -> st.Ax.clauses);
      ("learned", fun st -> st.Ax.learned);
      ("solves", fun st -> st.Ax.solves);
      ("conflicts", fun st -> st.Ax.conflicts);
      ("decisions", fun st -> st.Ax.decisions);
      ("propagations", fun st -> st.Ax.propagations);
    ]

let sweeping_session p =
  let sess = Ax.session p in
  Ax.sweep_on_retire sess;
  sess

let prop_session_answers_fresh =
  QCheck.Test.make ~count:60
    ~name:"a session's answers ≡ fresh sessions', sweep twin in lockstep"
    session_arb (fun (p, queries) ->
      let sess = Ax.session p and twin = sweeping_session p in
      let fresh ?max_outcomes ~fences mode =
        let f = Ax.session p in
        Ax.enumerate_session f ~fences:(pick_fences f fences) ?max_outcomes mode
      in
      let sc = (fresh ~fences:0 L.M_sc).Ax.outcomes in
      List.for_all
        (fun q ->
          let ok =
            match q with
            | Enum (mode, mask, max_outcomes) ->
                let fences = pick_fences sess mask in
                let r = Ax.enumerate_session sess ~fences ?max_outcomes mode in
                let r' = Ax.enumerate_session twin ~fences ?max_outcomes mode in
                let f = fresh ?max_outcomes ~fences:mask mode in
                r.Ax.outcomes = r'.Ax.outcomes
                && r.Ax.complete = f.Ax.complete
                &&
                if f.Ax.complete then r.Ax.outcomes = f.Ax.outcomes
                else
                  (* A budget-cut answer is some budget-sized subset. *)
                  let full = (fresh ~fences:mask mode).Ax.outcomes in
                  List.length r.Ax.outcomes = List.length f.Ax.outcomes
                  && List.for_all (fun o -> List.mem o full) r.Ax.outcomes
            | Robust (mode, mask) -> (
                let fences = pick_fences sess mask in
                let v = Ax.robust sess ~fences mode in
                let full = (fresh ~fences:mask mode).Ax.outcomes in
                v = Ax.robust twin ~fences mode
                &&
                match v with
                | `Robust -> full = sc
                | `Witness w -> List.mem w full && not (List.mem w sc))
            | Sc_outcomes -> Ax.sc_outcomes sess = sc && Ax.sc_outcomes twin = sc
          in
          ok && twin_agrees (print_query q) sess twin)
        queries)

let flag w =
  [ [ L.Store (0, 1); L.Load (1, 0) ];
    [ L.Store (1, 1); L.Fence; L.Wait w; L.Load (0, 0) ] ]

(* Both corpora, [litmus/] and [litmus/gen/], as (file name, program). *)
let corpus () =
  List.map
    (fun path ->
      let t = Tsim.Litmus_parse.parse (Programs.read_file path) in
      (Filename.basename path, t.Tsim.Litmus_parse.program))
    (Programs.corpus_paths () @ Programs.gen_corpus_paths ())

let test_corpus_both_orders () =
  (* Every answer of a shared session equals a fresh session's over both
     corpora, with the modes ascending, descending and interleaved, and
     with no fence or every fence site: Δ-, capacity- and fence-seeding
     all get to run in both directions. The flag protocol adds programs
     whose outcome set changes inside the Δ grid. *)
  let modes =
    [ L.M_sc; L.M_tso; L.M_tsos 1; L.M_tsos 2; L.M_tbtso 1; L.M_tbtso 2;
      L.M_tbtso 4; L.M_tbtso 8; L.M_tbtso 64 ]
  in
  let orders =
    [ ("ascending", modes); ("descending", List.rev modes);
      ("interleaved",
       List.filteri (fun i _ -> i mod 2 = 1) modes
       @ List.rev (List.filteri (fun i _ -> i mod 2 = 0) modes)) ]
  in
  let programs =
    corpus ()
    @ List.map (fun w -> (Printf.sprintf "flag wait=%d" w, flag w)) [ 1; 3; 6 ]
  in
  check_bool "corpus found" true (List.length programs > 3);
  List.iter
    (fun (name, p) ->
      let all = Ax.fence_sites (Ax.session p) in
      let fresh = Hashtbl.create 32 in
      let fresh_answer fences mode =
        match Hashtbl.find_opt fresh (fences, mode) with
        | Some r -> r
        | None ->
            let r = Ax.enumerate_session (Ax.session p) ~fences mode in
            Hashtbl.add fresh (fences, mode) r;
            r
      in
      List.iter
        (fun (order, modes) ->
          let sess = Ax.session p in
          List.iter
            (fun (fences, mode) ->
              let r = Ax.enumerate_session sess ~fences mode in
              let f = fresh_answer fences mode in
              check_bool
                (Printf.sprintf "%s, %s, %s%s: shared ≡ fresh" name order
                   (Tsim.Litmus_parse.mode_id mode)
                   (if fences = [] then "" else " fenced"))
                true
                (r.Ax.complete && f.Ax.complete && r.Ax.outcomes = f.Ax.outcomes))
            (List.concat_map (fun m -> [ ([], m); (all, m) ]) modes
            @ List.map (fun m -> ([], m)) (List.rev modes)))
        orders)
    programs

let test_retirement_twin () =
  (* The flag protocols over the paper's Δ grid, both ways round, and
     the corpus under the CI modes: sweeping after each query and
     retiring by index must leave identical formulas and work. *)
  let grid = List.map (fun d -> L.M_tbtso d) [ 4; 8; 16; 32; 64; 128; 256; 512 ] in
  let flag_runs =
    List.concat_map
      (fun (name, p) ->
        [ (name ^ " ascending", p, grid @ Programs.sat_corpus_modes);
          (name ^ " descending", p, List.rev (grid @ Programs.sat_corpus_modes)) ])
      [ ("flag wait=4", flag 4); ("flag wait=64", flag 64);
        ("flag3 wait=4", flag 4 @ [ [ L.Store (2, 1); L.Load (0, 2) ] ]) ]
  in
  let corpus_runs =
    List.map (fun (name, p) -> (name, p, Programs.sat_corpus_modes)) (corpus ())
  in
  check_bool "corpus found" true (corpus_runs <> []);
  List.iter
    (fun (name, p, modes) ->
      let a = Ax.session p and b = sweeping_session p in
      List.iter
        (fun mode ->
          let what = name ^ " " ^ Tsim.Litmus_parse.mode_id mode in
          let ra = Ax.enumerate_session a mode
          and rb = Ax.enumerate_session b mode in
          check_bool (what ^ ": same answer") true (ra.Ax.outcomes = rb.Ax.outcomes);
          check_bool (what ^ ": same formula and work") true (twin_agrees what a b))
        modes)
    (flag_runs @ corpus_runs)

let test_corpus_search_pinned () =
  (* The SAT oracle's formula and search, summed over both corpora per
     mode: one shared session per file answers the CI modes in
     ascending order, as [Litmus_fanout] does. [vars] and [clauses]
     snapshot the session's formula after the query; the rest are the
     query's own work. A reordered variable numbering or clause stream
     moves the search, so it moves at least one column. Columns: vars,
     clauses, solves, conflicts, decisions, propagations. *)
  let programs = corpus () in
  check_int "corpus files" 23 (List.length programs);
  let sums = Hashtbl.create 8 in
  List.iter
    (fun (_, p) ->
      let sess = Ax.session p in
      List.iter
        (fun mode ->
          let st = (Ax.enumerate_session sess mode).Ax.stats in
          let acc =
            Option.value ~default:[ 0; 0; 0; 0; 0; 0 ] (Hashtbl.find_opt sums mode)
          in
          Hashtbl.replace sums mode
            (List.map2 ( + ) acc
               [ st.Ax.vars; st.Ax.clauses; st.Ax.solves; st.Ax.conflicts;
                 st.Ax.decisions; st.Ax.propagations ]))
        Programs.sat_corpus_modes)
    programs;
  List.iter
    (fun (mode, expected) ->
      Alcotest.(check (list int))
        (Tsim.Litmus_parse.mode_id mode)
        expected (Hashtbl.find sums mode))
    [
      (L.M_sc, [ 3439; 12876; 113; 271; 981; 21206 ]);
      (L.M_tso, [ 3462; 12877; 42; 92; 264; 5876 ]);
      (L.M_tbtso 1, [ 3485; 12901; 0; 0; 0; 23 ]);
      (L.M_tbtso 4, [ 3528; 13190; 21; 54; 50; 2912 ]);
      (L.M_tbtso 64, [ 3552; 13222; 1; 2; 1; 394 ]);
    ]

let test_long_session_flat () =
  (* 300 distinct queries on one session, in a scrambled order: TSO or
     TBTSO[2] under one of the 256 fence subsets of two four-store
     threads. Retired guards must leave nothing behind: the mean
     propagations of the last 100 queries stay within 1.5× those of the
     first 100 (seeding makes later queries cheaper), and from query 100
     on, once every activation literal exists, the live clauses grow by
     exactly the one retirement unit per query. *)
  let thread a b =
    [ L.Store (0, 1); L.Store (1, a); L.Store (2, 1); L.Store (3, b);
      L.Load (b mod 4, 0) ]
  in
  let p = [ thread 1 2; thread 2 1 ] in
  let sess = Ax.session ~addrs:4 p in
  let sites = Ax.fence_sites sess in
  check_int "eight fence sites" 8 (List.length sites);
  let stats =
    List.init 300 (fun i ->
        let k = i * 167 mod 512 in
        let mode = if k land 1 = 0 then L.M_tso else L.M_tbtso 2 in
        let fences = List.filteri (fun j _ -> (k lsr 1) land (1 lsl j) <> 0) sites in
        (Ax.enumerate_session sess ~fences mode).Ax.stats)
  in
  check_bool "distinct formulas: every query solves" true
    (List.for_all (fun (st : Ax.stats) -> st.Ax.solves > 0) stats);
  let mean l =
    float (List.fold_left (fun a (st : Ax.stats) -> a + st.Ax.propagations) 0 l)
    /. float (List.length l)
  in
  let first = mean (List.filteri (fun i _ -> i < 100) stats)
  and last = mean (List.filteri (fun i _ -> i >= 200) stats) in
  check_bool
    (Printf.sprintf "propagations per query flat: first 100 %.0f, last 100 %.0f"
       first last)
    true
    (last <= 1.5 *. first);
  let clauses i = (List.nth stats i).Ax.clauses in
  check_int "one live clause per retired query" 200 (clauses 299 - clauses 99)

let test_new_var_keeps_watches () =
  (* Growing the watch array past the minor heap's largest block (512 to
     1,024 literals) keeps every existing watch list and forces no minor
     collection: the new slots start from an old shared value, and only
     the new literals get fresh lists. *)
  let s = S.create () in
  let vs = Array.init 200 (fun _ -> S.new_var s) in
  for i = 0 to 198 do
    S.add_clause s [ S.pos vs.(i); S.neg vs.(i + 1) ]
  done;
  let lits = List.concat_map (fun v -> [ S.pos v; S.neg v ]) (Array.to_list vs) in
  let before = List.map (S.watch_list s) lits in
  Gc.minor ();
  let m0 = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 300 do
    ignore (S.new_var s : int)
  done;
  let m1 = (Gc.quick_stat ()).Gc.minor_collections in
  check_int "minor collections during 300 new_var" 0 (m1 - m0);
  check_bool "every watch list kept" true
    (List.for_all2 (fun l w -> S.watch_list s l == w) lits before);
  check_bool "still satisfiable" true (S.solve s)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial formulas" `Quick test_trivial;
          Alcotest.test_case "pigeonhole UNSAT" `Quick test_pigeonhole;
          Alcotest.test_case "learned clauses of PHP(4,3)" `Quick
            test_learned_pigeonhole;
          Alcotest.test_case "incremental clause addition" `Quick
            test_incremental_growth;
          Alcotest.test_case "axiomatic session vs from-scratch sweep" `Quick
            test_session_vs_scratch;
          Alcotest.test_case "corpus answers ≡ fresh, in every mode order"
            `Quick test_corpus_both_orders;
          Alcotest.test_case "retirement twin: index vs sweep" `Quick
            test_retirement_twin;
          Alcotest.test_case "corpus search pinned" `Quick
            test_corpus_search_pinned;
          Alcotest.test_case "300-query session stays flat" `Quick
            test_long_session_flat;
          Alcotest.test_case "new_var keeps watch lists, no minor GC" `Quick
            test_new_var_keeps_watches;
        ] );
      qsuite "differential"
        [
          prop_decision;
          prop_model_enumeration;
          prop_assumptions;
          prop_learned_entailed;
          prop_session_answers_fresh;
        ];
    ]
