(* Checker throughput benchmark: states/second of the exhaustive litmus
   explorer, and before-vs-after timings of the scaled explorer against
   the retained naive reference enumerator at paper-scale Δ.

   The workloads are the programs the repo's claims rest on: SB, MP and
   the Section 3 flag protocol (2- and 3-thread forms), at
   Δ ∈ {4, 100, 500}. The reference enumerator is skipped where it is
   known not to terminate within the state budget.

   Usage: dune exec bench/checker_bench.exe -- [--quick] [--json PATH] [-j N]
   --quick drops the Δ = 500 tier and the slower reference diffs (the
   CI configuration); --json writes every case as a machine-readable
   record; -j fans the independent cases over N domains (0 = auto) —
   the report and JSON are identical to -j 1 up to the timing fields.

   --delta-sweep replaces the throughput run with the Δ-independence
   sweep: explored-state counts for the flag protocols over a geometric
   Δ grid (the EXPERIMENTS.md "Δ-independence" table; --json emits a
   tbtso-delta-sweep/1 document). With --gate the process exits 1
   unless every swept program's state count at Δ = 64 is within 2× of
   its count at Δ = 4 — the CI regression gate for the zone
   abstraction. A budget-cut gate point makes the gate inconclusive
   (exit 2) rather than a verdict: a truncated count says nothing
   about the true ratio.

   --sat-sweep runs the SAT second oracle over the same flag programs
   and Δ grid, cross-checking its outcome set against the explorer at
   every point and reporting how the encoding (vars, clauses) and the
   solver work (solves, conflicts) scale with Δ (the EXPERIMENTS.md
   "Second oracle" table; --json emits a tbtso-sat-sweep/1 document).
   With --gate the process exits 1 on any oracle disagreement.

   --incr-sweep compares the incremental SAT session (one formula, the
   Δ grid as activation-literal assumptions, learned clauses retained
   across points) against a fresh solver per Δ on the fixed flag
   programs (the EXPERIMENTS.md "Incremental sweep" table; --json
   emits a tbtso-incr-sweep/1 document). With --gate the process
   exits 1 unless, for every program, the per-point outcome sets are
   identical and the session's total conflicts are strictly fewer
   than the sum over the from-scratch solves.

   --scenario-sweep times both oracles over the generated algorithm
   scenarios (Tsim.Scenario.registry), one point per declared polarity
   expectation (the EXPERIMENTS.md "Algorithm scenarios" table; --json
   emits a tbtso-scenario-sweep/1 document). Reporting only — no
   --gate; polarity verdicts are gated by `tbtso-litmus scenarios
   check` in CI.

   --trajectory [--label L] measures the performance trajectory — the
   EXPERIMENTS.md "Performance trajectory" table: explorer states/s,
   solver propagations/s, GC pressure and the per-phase wall-time
   breakdown over the pinned Trajectory corpus (--json emits a
   tbtso-trajectory/1 document, e.g. the committed BENCH_seed.json).
   With --compare BASELINE.json each throughput floor of the baseline
   is checked against the fresh measurement; with --gate the process
   exits 1 when a floor is violated (fresh < tolerance x baseline;
   --tolerance, default 0.5) and 2 — inconclusive, like the
   delta-sweep gate — when either measurement was budget-cut, the
   corpus fingerprints differ, or the baseline cannot be read. *)

open Tsim
open Litmus
module Json = Tbtso_obs.Json
module Pool = Tbtso_par.Pool

let x = 0
let y = 1
let z = 2

let sb = [ [ Store (x, 1); Load (y, 0) ]; [ Store (y, 1); Load (x, 0) ] ]
let mp = [ [ Store (x, 1); Store (y, 1) ]; [ Load (y, 0); Load (x, 1) ] ]

let flag d =
  [
    [ Store (x, 1); Load (y, 0) ];
    [ Store (y, 1); Fence; Wait d; Load (x, 0) ];
  ]

let flag3 d =
  [
    [ Store (x, 1); Load (y, 0) ];
    [ Store (y, 1); Fence; Wait d; Load (x, 0) ];
    [ Store (z, 1); Load (x, 2) ];
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let pf fmt = Printf.printf fmt

type case = {
  name : string;
  mode : Litmus.mode;
  reference : bool;  (* also diff against the naive reference enumerator *)
  program : Litmus.instr list list;
}

type case_result = {
  r : Litmus.result;
  dt : float;
  refr : (Litmus.outcome list option * float) option;
      (* reference outcomes (None = over budget) and its wall time *)
}

(* The exploration work, run inside a pool worker: the explorer builds
   all its state per call, so cases are independent. *)
let exec_case c =
  let r, dt = time (fun () -> explore ~mode:c.mode c.program) in
  let refr =
    if c.reference then
      Some
        (time (fun () ->
             try Some (enumerate_reference ~mode:c.mode c.program)
             with Failure _ -> None))
    else None
  in
  { r; dt; refr }

let records : Json.t list ref = ref []

(* Reporting, run sequentially in case order so the output is identical
   whatever the pool size. *)
let print_case c res =
  let rate =
    if res.dt > 0.0 then float_of_int res.r.stats.visited /. res.dt else infinity
  in
  pf "%-28s %9d states %s %8.3fs %12.0f st/s" c.name res.r.stats.visited
    (if res.r.complete then " " else "!")
    res.dt rate;
  let ref_fields = ref [] in
  (match res.refr with
  | None -> ()
  | Some (Some outs, rdt) ->
      let agree = outs = res.r.outcomes in
      ref_fields :=
        [ ("ref_seconds", Json.Float rdt); ("ref_agree", Json.Bool agree) ];
      pf "   ref %8.3fs (%5.1fx)%s" rdt
        (if res.dt > 0.0 then rdt /. res.dt else infinity)
        (if agree then "" else "  OUTCOME MISMATCH!")
  | Some (None, rdt) ->
      ref_fields :=
        [ ("ref_seconds", Json.Float rdt); ("ref_over_budget", Json.Bool true) ];
      pf "   ref >budget after %.1fs" rdt);
  pf "\n%!";
  records :=
    Json.obj
      ([
         ("name", Json.String c.name);
         ("mode", Json.String (Litmus_parse.mode_id c.mode));
         ("complete", Json.Bool res.r.complete);
         ("wall_seconds", Json.Float res.dt);
         ("states_per_sec", Json.Float (if Float.is_finite rate then rate else 0.0));
         ("stats", stats_json res.r.stats);
       ]
      @ !ref_fields)
    :: !records

(* --- Δ-independence sweep (--delta-sweep) --- *)

let sweep_deltas = [ 4; 8; 16; 32; 64; 128; 256; 512 ]

(* The wait ≈ Δ races from ROADMAP: two corpus-pinned fixed waits plus
   the fully coupled wait = Δ form. Each function takes the swept Δ. *)
let sweep_programs =
  [
    ("flag wait=4 (tbtso_flag.litmus)", fun _ -> flag 4);
    ("flag wait=64 (tbtso_flag_wait_eq_delta.litmus)", fun _ -> flag 64);
    ("flag wait=delta (coupled race)", fun d -> flag d);
  ]

let gate_lo = 4
let gate_hi = 64
let gate_factor = 2.0

let run_delta_sweep ~gate ~json_path ~domains =
  pf "Δ-independence sweep: explored states per Δ (flag protocols)\n";
  pf "(gate: states at Δ=%d must be ≤ %.0fx states at Δ=%d)\n\n" gate_hi
    gate_factor gate_lo;
  let cases =
    List.concat_map
      (fun (name, prog) ->
        List.map (fun d -> (name, prog, d)) sweep_deltas)
      sweep_programs
  in
  let results =
    Pool.with_pool ~domains (fun pool ->
        Pool.map_list pool
          (fun (_, prog, d) ->
            time (fun () -> explore ~mode:(M_tbtso d) (prog d)))
          cases)
  in
  let rows = List.combine cases results in
  let result_of name d =
    let _, ((r : Litmus.result), _) =
      List.find (fun ((n, _, d'), _) -> n = name && d' = d) rows
    in
    r
  in
  let sweep_records =
    List.map
      (fun (name, _) ->
        pf "%s\n" name;
        let points =
          List.map
            (fun d ->
              let (_, ((r : Litmus.result), dt)) =
                List.find (fun ((n, _, d'), _) -> n = name && d' = d) rows
              in
              pf "  Δ = %4d  %7d states  %8.3fs%s\n" d r.stats.visited dt
                (if r.complete then "" else "  (budget cut!)");
              Json.obj
                [
                  ("delta", Json.Int d);
                  ("states", Json.Int r.stats.visited);
                  ("wall_seconds", Json.Float dt);
                  ("complete", Json.Bool r.complete);
                  ("stats", stats_json r.stats);
                ])
            sweep_deltas
        in
        let lo = result_of name gate_lo and hi = result_of name gate_hi in
        (* A budget-cut gate point undercounts its true state space, so
           the ratio would be meaningless (and could pass vacuously):
           report the gate as inconclusive instead of a verdict. *)
        let complete = lo.complete && hi.complete in
        let ratio =
          float_of_int hi.stats.visited /. float_of_int lo.stats.visited
        in
        let verdict =
          if not complete then `Inconclusive
          else if ratio <= gate_factor then `Pass
          else `Fail
        in
        (if complete then
           pf "  Δ=%d/Δ=%d ratio: %.2fx  %s\n\n" gate_hi gate_lo ratio
             (if verdict = `Pass then "(gate ok)" else "(GATE EXCEEDED)")
         else
           pf "  Δ=%d/Δ=%d ratio: INCONCLUSIVE (gate point budget-cut)\n\n"
             gate_hi gate_lo);
        ( verdict,
          Json.obj
            [
              ("program", Json.String name);
              ("points", Json.List points);
              ("gate_ratio", if complete then Json.Float ratio else Json.Null);
              ("gate_complete", Json.Bool complete);
              ("gate_pass", if complete then Json.Bool (verdict = `Pass) else Json.Null);
            ] ))
      sweep_programs
  in
  let any v = List.exists (fun (w, _) -> w = v) sweep_records in
  let all_pass = List.for_all (fun (v, _) -> v = `Pass) sweep_records in
  (match json_path with
  | None -> ()
  | Some path ->
      Json.write_file path
        (Json.obj
           [
             ("schema", Json.String "tbtso-delta-sweep/1");
             ("domains", Json.Int domains);
             ("gate_lo_delta", Json.Int gate_lo);
             ("gate_hi_delta", Json.Int gate_hi);
             ("gate_factor", Json.Float gate_factor);
             ("gate_complete", Json.Bool (not (any `Inconclusive)));
             ("gate_pass", Json.Bool all_pass);
             ("programs", Json.List (List.map snd sweep_records));
           ]);
      pf "(wrote %s)\n" path);
  if gate then
    if any `Fail then (
      prerr_endline "delta-sweep gate failed: state count not flat in Δ";
      exit 1)
    else if any `Inconclusive then (
      prerr_endline
        "delta-sweep gate inconclusive: a gate point hit the state budget";
      exit 2)

(* --- SAT-oracle sweep (--sat-sweep) --- *)

let run_sat_sweep ~gate ~json_path ~domains =
  pf "SAT second-oracle sweep: encoding size and agreement per Δ\n";
  pf "(every point cross-checks the axiomatic outcome set against the \
      explorer)\n\n";
  let cases =
    List.concat_map
      (fun (name, prog) -> List.map (fun d -> (name, prog, d)) sweep_deltas)
      sweep_programs
  in
  let results =
    Pool.with_pool ~domains (fun pool ->
        Pool.map_list pool
          (fun (_, prog, d) ->
            let p = prog d in
            let mode = M_tbtso d in
            let sat, sat_dt = time (fun () -> Axiomatic.explore ~mode p) in
            let op, op_dt = time (fun () -> explore ~mode p) in
            (sat, sat_dt, op, op_dt))
          cases)
  in
  let rows = List.combine cases results in
  let sweep_records =
    List.map
      (fun (name, _) ->
        pf "%s\n" name;
        let agree_all = ref true in
        let points =
          List.map
            (fun d ->
              let _, (sat, sat_dt, (op : Litmus.result), op_dt) =
                List.find (fun ((n, _, d'), _) -> n = name && d' = d) rows
              in
              let s = sat.Axiomatic.stats in
              let agree =
                sat.Axiomatic.complete && op.complete
                && sat.Axiomatic.outcomes = op.outcomes
              in
              if not agree then agree_all := false;
              pf
                "  Δ = %4d  %6d vars %7d clauses %5d conflicts  sat \
                 %7.3fs  explorer %7.3fs  %s\n"
                d s.Axiomatic.vars s.Axiomatic.clauses s.Axiomatic.conflicts
                sat_dt op_dt
                (if agree then "agree" else "ORACLE DISAGREEMENT!");
              Json.obj
                [
                  ("delta", Json.Int d);
                  ("agree", Json.Bool agree);
                  ("sat_wall_seconds", Json.Float sat_dt);
                  ("explorer_wall_seconds", Json.Float op_dt);
                  ("outcomes", Json.Int (List.length sat.Axiomatic.outcomes));
                  ("sat_stats", Axiomatic.stats_json s);
                ])
            sweep_deltas
        in
        pf "\n";
        ( !agree_all,
          Json.obj
            [
              ("program", Json.String name);
              ("points", Json.List points);
              ("agree", Json.Bool !agree_all);
            ] ))
      sweep_programs
  in
  let all_agree = List.for_all fst sweep_records in
  pf "oracles %s over the whole sweep\n"
    (if all_agree then "AGREE" else "DISAGREE");
  (match json_path with
  | None -> ()
  | Some path ->
      Json.write_file path
        (Json.obj
           [
             ("schema", Json.String "tbtso-sat-sweep/1");
             ("domains", Json.Int domains);
             ("agree", Json.Bool all_agree);
             ("programs", Json.List (List.map snd sweep_records));
           ]);
      pf "(wrote %s)\n" path);
  if gate && not all_agree then (
    prerr_endline "sat-sweep gate failed: the oracles disagree";
    exit 1)

(* --- incremental-vs-scratch SAT sweep (--incr-sweep) --- *)

(* Fixed programs only: the coupled wait = Δ form changes its program
   per point, so a single retained formula cannot serve it. *)
let incr_programs =
  [
    ("flag wait=4 (tbtso_flag.litmus)", flag 4);
    ("flag wait=64 (tbtso_flag_wait_eq_delta.litmus)", flag 64);
    ("flag3 wait=4 (3-thread)", flag3 4);
  ]

let run_incr_sweep ~gate ~json_path ~domains =
  pf "Incremental SAT Δ-sweep: one retained session vs fresh solver per Δ\n";
  pf "(gate: equal outcome sets at every Δ and strictly fewer total \
      conflicts)\n\n";
  let one (_, prog) =
    let sess = Axiomatic.session prog in
    let points =
      List.map
        (fun d ->
          let before = (Axiomatic.session_stats sess).Axiomatic.conflicts in
          let (ir : Axiomatic.result), idt =
            time (fun () ->
                Axiomatic.enumerate_session sess (M_tbtso d))
          in
          let after = (Axiomatic.session_stats sess).Axiomatic.conflicts in
          let (sr : Axiomatic.result), sdt =
            time (fun () -> Axiomatic.explore ~mode:(M_tbtso d) prog)
          in
          (d, ir, after - before, idt, sr, sdt))
        sweep_deltas
    in
    (points, Axiomatic.session_stats sess)
  in
  let results =
    Pool.with_pool ~domains (fun pool -> Pool.map_list pool one incr_programs)
  in
  let sweep_records =
    List.map2
      (fun (name, _) (points, sess_stats) ->
        pf "%s (H = formula horizon; conflicts are per point)\n" name;
        let agree_all = ref true in
        let scratch_total = ref 0 in
        let point_records =
          List.map
            (fun (d, (ir : Axiomatic.result), iconf, idt,
                  (sr : Axiomatic.result), sdt) ->
              let agree =
                ir.Axiomatic.complete && sr.Axiomatic.complete
                && ir.Axiomatic.outcomes = sr.Axiomatic.outcomes
              in
              if not agree then agree_all := false;
              scratch_total := !scratch_total + sr.Axiomatic.stats.Axiomatic.conflicts;
              pf
                "  Δ = %4d  %2d outcomes  incr %4d conflicts %7.3fs   \
                 scratch %4d conflicts %7.3fs  %s\n"
                d
                (List.length ir.Axiomatic.outcomes)
                iconf idt sr.Axiomatic.stats.Axiomatic.conflicts sdt
                (if agree then "agree" else "OUTCOME MISMATCH!");
              Json.obj
                [
                  ("delta", Json.Int d);
                  ("agree", Json.Bool agree);
                  ("outcomes", Json.Int (List.length ir.Axiomatic.outcomes));
                  ("incr_conflicts", Json.Int iconf);
                  ("incr_wall_seconds", Json.Float idt);
                  ("scratch_conflicts",
                   Json.Int sr.Axiomatic.stats.Axiomatic.conflicts);
                  ("scratch_wall_seconds", Json.Float sdt);
                ])
            points
        in
        let incr_total = sess_stats.Axiomatic.conflicts in
        let fewer = incr_total < !scratch_total in
        let pass = !agree_all && fewer in
        pf "  totals: incr %d conflicts vs scratch %d  %s\n\n" incr_total
          !scratch_total
          (if pass then "(gate ok)"
           else if not !agree_all then "(OUTCOME MISMATCH)"
           else "(NOT FEWER CONFLICTS)");
        ( pass,
          Json.obj
            [
              ("program", Json.String name);
              ("points", Json.List point_records);
              ("incr_total_conflicts", Json.Int incr_total);
              ("scratch_total_conflicts", Json.Int !scratch_total);
              ("outcomes_agree", Json.Bool !agree_all);
              ("incr_strictly_fewer", Json.Bool fewer);
              ("gate_pass", Json.Bool pass);
              ("incr_session_stats", Axiomatic.stats_json sess_stats);
            ] ))
      incr_programs results
  in
  let all_pass = List.for_all fst sweep_records in
  pf "incremental sweep %s over every program\n"
    (if all_pass then "WINS" else "FAILED THE GATE");
  (match json_path with
  | None -> ()
  | Some path ->
      Json.write_file path
        (Json.obj
           [
             ("schema", Json.String "tbtso-incr-sweep/1");
             ("domains", Json.Int domains);
             ("gate_pass", Json.Bool all_pass);
             ("programs", Json.List (List.map snd sweep_records));
           ]);
      pf "(wrote %s)\n" path);
  if gate && not all_pass then (
    prerr_endline
      "incr-sweep gate failed: incremental enumeration must match the \
       from-scratch outcome sets with strictly fewer total conflicts";
    exit 1)

(* --- algorithm-scenario sweep (--scenario-sweep) --- *)

(* Times both oracles over the generated scenario registry, one point
   per declared polarity expectation. Reporting only, no gate — the
   polarity verdicts are gated by `tbtso-litmus scenarios check` in CI;
   this sweep tracks how expensive those verdicts are and still flags
   an outcome-set disagreement should one appear. *)
let run_scenario_sweep ~json_path ~domains =
  pf "Algorithm-scenario sweep: both oracles over the generated registry\n";
  pf "(timing only; polarity gating lives in `tbtso-litmus scenarios \
      check`)\n\n";
  let cases =
    List.concat_map
      (fun (s : Scenario.t) ->
        List.map (fun (mode, exp) -> (s, mode, exp)) s.Scenario.expect)
      Scenario.registry
  in
  let results =
    Pool.with_pool ~domains (fun pool ->
        Pool.map_list pool
          (fun ((s : Scenario.t), mode, _) ->
            let p = Scenario.program s in
            let op, op_dt = time (fun () -> explore ~mode p) in
            let sat, sat_dt = time (fun () -> Axiomatic.explore ~mode p) in
            (op, op_dt, sat, sat_dt))
          cases)
  in
  let rows = List.combine cases results in
  let agree_all = ref true in
  let scenario_records =
    List.map
      (fun (s : Scenario.t) ->
        pf "%s (%s)\n" s.Scenario.name s.Scenario.algorithm;
        let points =
          List.map
            (fun (mode, expected) ->
              let _, ((op : Litmus.result), op_dt, sat, sat_dt) =
                List.find
                  (fun (((s' : Scenario.t), m, _), _) ->
                    s'.Scenario.name = s.Scenario.name && m = mode)
                  rows
              in
              let agree =
                op.complete && sat.Axiomatic.complete
                && op.outcomes = sat.Axiomatic.outcomes
              in
              if not agree then agree_all := false;
              pf
                "  %-9s expect %-11s  %6d states  explorer %7.3fs  sat \
                 %7.3fs  %s\n"
                (Litmus_parse.mode_id mode)
                (Scenario.polarity_name expected)
                op.stats.visited op_dt sat_dt
                (if agree then "agree" else "ORACLE DISAGREEMENT!");
              Json.obj
                [
                  ("mode", Json.String (Litmus_parse.mode_id mode));
                  ( "expected",
                    Json.String (Scenario.polarity_name expected) );
                  ("agree", Json.Bool agree);
                  ("states", Json.Int op.stats.visited);
                  ("outcomes", Json.Int (List.length op.outcomes));
                  ("explorer_wall_seconds", Json.Float op_dt);
                  ("sat_wall_seconds", Json.Float sat_dt);
                  ("explorer_stats", stats_json op.stats);
                  ("sat_stats", Axiomatic.stats_json sat.Axiomatic.stats);
                ])
            s.Scenario.expect
        in
        pf "\n";
        Json.obj
          [
            ("scenario", Json.String s.Scenario.name);
            ("algorithm", Json.String s.Scenario.algorithm);
            ("points", Json.List points);
          ])
      Scenario.registry
  in
  pf "oracles %s over the whole sweep\n"
    (if !agree_all then "AGREE" else "DISAGREE");
  match json_path with
  | None -> ()
  | Some path ->
      Json.write_file path
        (Json.obj
           [
             ("schema", Json.String "tbtso-scenario-sweep/1");
             ("domains", Json.Int domains);
             ("agree", Json.Bool !agree_all);
             ("scenarios", Json.List scenario_records);
           ]);
      pf "(wrote %s)\n" path

(* --- performance trajectory (--trajectory) --- *)

let run_trajectory ~quick ~label ~compare_path ~gate ~tolerance ~json_path =
  pf "Performance trajectory: explorer and SAT throughput over the pinned \
      corpus\n\n";
  let fresh = Trajectory.measure ~quick ~label () in
  Format.printf "%a%!" Trajectory.pp fresh;
  (match json_path with
  | None -> ()
  | Some path ->
      Json.write_file path (Trajectory.to_json fresh);
      pf "(wrote %s)\n" path);
  match compare_path with
  | None -> ()
  | Some path -> (
      let baseline =
        match Trajectory.of_json (Json.of_string (In_channel.with_open_text path In_channel.input_all)) with
        | Ok b -> Ok b
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | exception Sys_error e -> Error e
        | exception Json.Parse_error { pos; message } ->
            Error (Printf.sprintf "%s: parse error at %d: %s" path pos message)
      in
      match baseline with
      | Error e ->
          Printf.eprintf "trajectory gate inconclusive: %s\n" e;
          if gate then exit 2
      | Ok baseline -> (
          pf "\ncomparing against baseline %S (tolerance %.2f):\n"
            baseline.Trajectory.label tolerance;
          let print_checks checks =
            List.iter
              (fun (c : Trajectory.check) ->
                pf "  %-28s baseline %12.1f  fresh %12.1f  %s %12.1f  %s\n"
                  c.Trajectory.key c.Trajectory.baseline c.Trajectory.fresh
                  (match c.Trajectory.direction with
                  | Trajectory.Floor -> "floor  "
                  | Trajectory.Ceiling -> "ceiling")
                  c.Trajectory.bound
                  (if c.Trajectory.pass then "ok" else "REGRESSION"))
              checks
          in
          match Trajectory.compare_floors ~tolerance ~baseline ~fresh () with
          | Trajectory.Pass checks ->
              print_checks checks;
              pf "trajectory gate: every floor and ceiling holds\n"
          | Trajectory.Fail checks ->
              print_checks checks;
              prerr_endline
                "trajectory gate failed: a baseline floor or ceiling was \
                 breached";
              if gate then exit 1
          | Trajectory.Inconclusive why ->
              pf "trajectory gate: INCONCLUSIVE (%s)\n" why;
              if gate then (
                Printf.eprintf "trajectory gate inconclusive: %s\n" why;
                exit 2)))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let find_val flag =
    let rec find = function
      | f :: p :: _ when f = flag -> Some p
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let json_path = find_val "--json" in
  let jobs =
    match find_val "-j" with
    | None -> 1
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> n
        | Some _ | None ->
            prerr_endline "-j expects a non-negative integer (0 = auto)";
            exit 2)
  in
  let domains = if jobs = 0 then Pool.default_domains () else jobs in
  if List.mem "--delta-sweep" args then (
    run_delta_sweep ~gate:(List.mem "--gate" args) ~json_path ~domains;
    exit 0);
  if List.mem "--sat-sweep" args then (
    run_sat_sweep ~gate:(List.mem "--gate" args) ~json_path ~domains;
    exit 0);
  if List.mem "--incr-sweep" args then (
    run_incr_sweep ~gate:(List.mem "--gate" args) ~json_path ~domains;
    exit 0);
  if List.mem "--scenario-sweep" args then (
    run_scenario_sweep ~json_path ~domains;
    exit 0);
  if List.mem "--trajectory" args then (
    let tolerance =
      match find_val "--tolerance" with
      | None -> Trajectory.default_tolerance
      | Some v -> (
          match float_of_string_opt v with
          | Some f when f > 0.0 -> f
          | Some _ | None ->
              prerr_endline "--tolerance expects a positive float";
              exit 2)
    in
    run_trajectory ~quick
      ~label:(Option.value ~default:"local" (find_val "--label"))
      ~compare_path:(find_val "--compare")
      ~gate:(List.mem "--gate" args) ~tolerance ~json_path;
    exit 0);
  pf "Checker throughput (states/s), explorer vs reference enumerator\n";
  pf "('!' marks an exploration cut off by the state budget; %d domain%s)\n\n"
    domains
    (if domains = 1 then "" else "s");
  let deltas = if quick then [ 4; 100 ] else [ 4; 100; 500 ] in
  let ref_budget = if quick then 4 else 100 in
  let delta_section delta =
    ( Printf.sprintf "-- Δ = %d --" delta,
      [
        { name = "SB sc"; mode = M_sc; reference = true; program = sb };
        { name = "SB tso"; mode = M_tso; reference = true; program = sb };
        {
          name = Printf.sprintf "SB tbtso:%d" delta;
          mode = M_tbtso delta;
          reference = delta <= ref_budget;
          program = sb;
        };
        {
          name = Printf.sprintf "MP tbtso:%d" delta;
          mode = M_tbtso delta;
          reference = delta <= ref_budget;
          program = mp;
        };
        {
          name = Printf.sprintf "flag(Δ) tbtso:%d" delta;
          mode = M_tbtso delta;
          reference = delta <= ref_budget;
          program = flag delta;
        };
        {
          name = Printf.sprintf "flag3(Δ) tbtso:%d" delta;
          mode = M_tbtso delta;
          (* the 3-thread flag at Δ=100 takes the reference ~20 s; only
             diff it at toy scale *)
          reference = delta <= 4;
          program = flag3 delta;
        };
      ] )
  in
  let sections =
    List.map delta_section deltas
    @ [
        ( "-- pathological waits --",
          [
            {
              name = "wait 1M (quiet)";
              mode = M_tso;
              reference = false;
              program = [ [ Wait 1_000_000 ] ];
            };
            {
              name = "wait 1M vs racing SB";
              mode = M_tbtso 4;
              reference = false;
              program =
                [
                  [ Wait 1_000_000; Store (x, 1); Load (y, 0) ];
                  [ Store (y, 1); Load (x, 0) ];
                ];
            };
          ] );
      ]
  in
  let cases = List.concat_map snd sections in
  let total, wall =
    time (fun () ->
        Pool.with_pool ~domains (fun pool -> Pool.map_list pool exec_case cases))
  in
  (* Zip results back onto the sections for in-order reporting. *)
  let rest = ref total in
  List.iteri
    (fun i (title, section_cases) ->
      pf "%s\n" title;
      List.iter
        (fun c ->
          match !rest with
          | res :: tl ->
              rest := tl;
              print_case c res
          | [] -> assert false)
        section_cases;
      if i < List.length sections - 1 then pf "\n")
    sections;
  pf "\ntotal wall time: %.3f s (%d domain%s)\n" wall domains
    (if domains = 1 then "" else "s");
  match json_path with
  | None -> ()
  | Some path ->
      Json.write_file path
        (Json.obj
           [
             ("schema", Json.String "tbtso-checker-bench/1");
             ("quick", Json.Bool quick);
             ("domains", Json.Int domains);
             ("wall_seconds", Json.Float wall);
             ("cases", Json.List (List.rev !records));
           ]);
      pf "(wrote %s)\n" path
