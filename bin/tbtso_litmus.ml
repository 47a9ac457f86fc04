(* tbtso-litmus: exhaustively check litmus-test files under SC, TSO and
   TBTSO[Δ].

   Usage:
     tbtso_litmus check FILE... [--mode sc,tso,tbtso:4] [--max-states N]
                                [--json PATH] [--profile PATH] [-j N]
     tbtso_litmus demo

   See Tsim.Litmus_parse for the file format; sample files live in
   litmus/. *)

open Tsim
module Json = Tbtso_obs.Json
module Pool = Tbtso_par.Pool

let mode_name = Litmus_parse.mode_name

let report_one (v : Litmus_fanout.verdict) =
  let outcomes =
    match (v.result, v.sat) with
    | Some r, _ -> r.Litmus_parse.outcome_count
    | None, Some sc -> sc.Litmus_fanout.sat_outcome_count
    | None, None -> 0
  in
  Printf.printf "  %-12s %4d outcomes   %s\n" (mode_name v.task.mode) outcomes
    (Litmus_fanout.verdict_string v);
  (match v.result with
  | Some r ->
      Format.printf "  %-12s [%a]@." "" Litmus.pp_stats r.Litmus_parse.stats
  | None -> ());
  (match v.sat with
  | Some sc ->
      Format.printf "  %-12s [sat: %a]@." "" Axiomatic.pp_stats
        sc.Litmus_fanout.sat_stats
  | None -> ());
  (match v.robustness with
  | Some rc ->
      if rc.Litmus_fanout.robust_holds then
        Printf.printf "  %-12s robust (outcome set = SC)\n" ""
      else (
        Printf.printf "  %-12s NOT robust (outcome beyond SC)\n" "";
        match rc.Litmus_fanout.robust_witness with
        | Some o -> Format.printf "  %-12s beyond-SC %a@." "" Litmus.pp_outcome o
        | None -> ())
  | None -> ());
  match Litmus_fanout.disagreement_witness v with
  | Some o ->
      Format.printf "  %-12s witness %a@." ""
        Litmus.pp_outcome o
  | None -> ()

let report_verdicts verdicts =
  let last_path = ref None in
  List.iter
    (fun (v : Litmus_fanout.verdict) ->
      if !last_path <> Some v.task.path then begin
        if !last_path <> None then print_newline ();
        Printf.printf "%s (%s):\n" v.task.test.Litmus_parse.name v.task.path;
        last_path := Some v.task.path
      end;
      report_one v)
    verdicts;
  if verdicts <> [] then print_newline ()

let demo_text =
  "name: store-buffering demo\n\
   thread\n\
  \  store x 1\n\
  \  load y -> r0\n\
   thread\n\
  \  store y 1\n\
  \  fence\n\
  \  wait 4\n\
  \  load x -> r1\n\
   exists 0:r0 = 0 /\\ 1:r1 = 0\n"

open Cmdliner

let mode_conv =
  Arg.conv
    (Litmus_parse.mode_of_string, fun fmt m -> Format.pp_print_string fmt (mode_name m))

let modes_arg =
  let doc = "Memory models to check: sc, tso, or tbtso:N (comma-separated)." in
  Arg.(
    value
    & opt (list mode_conv) [ Litmus.M_sc; Litmus.M_tso; Litmus.M_tbtso 4 ]
    & info [ "m"; "mode" ] ~docv:"MODES" ~doc)

let files_arg =
  let doc = "Litmus files to check." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)

let max_states_arg =
  let doc =
    "State budget per (file, mode) exploration; exceeding it reports an \
     inconclusive verdict instead of an answer."
  in
  Arg.(
    value
    & opt int Litmus.default_max_states
    & info [ "max-states" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Also write the verdicts as JSON (schema tbtso-litmus/5, or tbtso-sat/5 \
     when $(b,--oracle) sat or both adds SAT-oracle fields): one record per \
     (file, mode) pair with holds/complete/outcomes and the full exploration \
     statistics, plus aggregate checker metrics (total states, peak frontier, \
     zone-canonicalization hits and merges, sleep-set skips, time-leap \
     count, states/second, and the sat.* solver counters when the SAT \
     oracle ran). PATH '-' writes the JSON to stdout and suppresses the \
     human-readable report."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let profile_arg =
  let doc =
    "Profile the run: every hot phase (explorer expand/canon/intern/sleep, \
     SAT encode/propagate/analyze/simplify, adviser searches, pool chunks) \
     is timed with the monotonic clock, a per-phase table (total time, \
     calls, items, items/s) is printed after the report, and the span \
     timeline is written to $(docv) as a Chrome trace_event file — open it \
     in Perfetto (ui.perfetto.dev), one track per domain. Profiling never \
     changes verdicts, outcome sets or exploration statistics; with the \
     flag absent the instrumentation is disabled and costs one branch per \
     phase section."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"PATH" ~doc)

(* The profile surface shared by check and advise: a recording profiler
   iff requested, the phase table on stdout, the span timeline as a
   Chrome trace. *)
let profiler_of = function
  | None -> Tbtso_obs.Span.disabled
  | Some _ -> Tbtso_obs.Span.create ()

let write_profile ~quiet profile profiler =
  match profile with
  | None -> ()
  | Some path ->
      if not quiet then
        Format.printf "%a%!" Tbtso_obs.Span.pp_phase_table profiler;
      let oc = open_out path in
      let w = Tbtso_obs.Chrome.to_channel oc in
      Tbtso_obs.Span.to_chrome profiler ~pid:(Unix.getpid ()) w;
      Tbtso_obs.Chrome.close w;
      close_out oc;
      if not quiet then
        Printf.printf "(wrote %s; open in https://ui.perfetto.dev)\n" path

let oracle_arg =
  let doc =
    "Which oracle answers each (file, mode) check: $(b,explorer) (the \
     operational state-space explorer, default), $(b,sat) (the axiomatic \
     CDCL/SAT outcome enumeration), or $(b,both), which runs the two \
     structurally independent oracles and cross-checks their exact outcome \
     sets — any mismatch is reported as ORACLE DISAGREEMENT with a \
     minimized witness outcome and exits 3."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("explorer", Litmus_fanout.Explorer);
             ("sat", Litmus_fanout.Sat);
             ("both", Litmus_fanout.Both);
           ])
        Litmus_fanout.Explorer
    & info [ "oracle" ] ~docv:"ORACLE" ~doc)

let robust_arg =
  let doc =
    "Additionally decide SC-robustness of each (file, mode) pair: is the \
     mode's exact outcome set equal to the SC set? Answered by one \
     incremental SAT containment query against a retained SC baseline (no \
     second enumeration) and reported per record (with a beyond-SC witness \
     outcome when not robust). All modes of one file share a single SAT \
     session — the encode and the SC baseline are built once per file and \
     each further mode costs only its containment query. Advisory: never \
     changes the verdict or exit code. See $(b,tbtso-litmus advise) for \
     the full minimal-Δ / minimal-fence-set search."
  in
  Arg.(value & flag & info [ "robust" ] ~doc)

let jobs_arg =
  let doc =
    "Fan the files out over $(docv) domains (0 picks one per core, capped \
     at 8); a file's modes run in order on one domain, sharing one SAT \
     session, so a single file gains nothing from more than one domain. \
     Verdicts, report and JSON are identical to a sequential run — \
     results are delivered in submission order — except for wall-clock \
     stats fields and the $(b,par.*) pool metrics in the JSON totals."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let check_exits =
  Cmd.Exit.info 1
    ~doc:
      "some $(b,forall) invariant was VIOLATED (a complete exploration found \
       a counterexample outcome)."
  :: Cmd.Exit.info 2
       ~doc:
         "some check was INCONCLUSIVE: the state budget was exceeded before \
          a definitive verdict (raise $(b,--max-states)). A violation \
          anywhere in the run dominates and exits 1."
  :: Cmd.Exit.info 3
       ~doc:
         "the two oracles of $(b,--oracle both) DISAGREED on some exact \
          outcome set (one of them is provably wrong — a minimized witness \
          outcome is printed), or a litmus file could not be read or \
          parsed, or an option value was invalid."
  :: Cmd.Exit.defaults

let check_cmd =
  let run modes max_states json jobs oracle robust profile files =
    if max_states < 1 then begin
      Printf.eprintf "--max-states must be at least 1\n";
      3
    end
    else if jobs < 0 then begin
      Printf.eprintf "-j must be non-negative (0 = auto)\n";
      3
    end
    else begin
      let quiet = json = Some "-" in
      let registry = Tbtso_obs.Metrics.create () in
      let profiler = profiler_of profile in
      try
        let tasks = Litmus_fanout.load ~modes files in
        let domains = if jobs = 0 then Pool.default_domains () else jobs in
        let verdicts =
          if domains <= 1 then
            Litmus_fanout.check ~max_states ~oracle ~robust ~profiler tasks
          else
            Pool.with_pool ~domains ~profiler (fun pool ->
                let vs =
                  Litmus_fanout.check ~pool ~max_states ~oracle ~robust
                    ~profiler tasks
                in
                Pool.record_metrics pool registry;
                vs)
        in
        List.iter
          (fun (v : Litmus_fanout.verdict) ->
            (match v.result with
            | Some r -> Litmus.record_stats registry r.Litmus_parse.stats
            | None -> ());
            match v.sat with
            | Some sc ->
                Axiomatic.record_stats registry sc.Litmus_fanout.sat_stats
            | None -> ())
          verdicts;
        if not quiet then report_verdicts verdicts;
        write_profile ~quiet profile profiler;
        (match json with
        | None -> ()
        | Some "-" ->
            Json.write_line stdout (Litmus_fanout.json_doc ~registry verdicts)
        | Some path ->
            Json.write_file path (Litmus_fanout.json_doc ~registry verdicts));
        Litmus_fanout.exit_code verdicts
      with
      | Litmus_parse.Parse_error { line; message } ->
          Printf.eprintf "parse error at line %d: %s\n" line message;
          3
      | Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          3
    end
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Exhaustively enumerate every interleaving and store-buffer drain \
         schedule of each litmus file under each requested memory model, \
         and report whether its $(b,exists)/$(b,forall) condition holds.";
      `P
        "The exit status encodes the worst verdict of the whole run so CI \
         can gate on it directly: 0 all definitive and satisfied, 1 some \
         invariant violated, 2 some check inconclusive under the state \
         budget, 3 operational error.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~exits:check_exits ~man
       ~doc:"Exhaustively check litmus files under the chosen memory models")
    Term.(
      const run $ modes_arg $ max_states_arg $ json_arg $ jobs_arg $ oracle_arg
      $ robust_arg $ profile_arg $ files_arg)

let report_advice (r : Adviser.report) =
  Printf.printf "%s (%s):\n" r.Adviser.name r.Adviser.file;
  Printf.printf "  horizon H=%d, %d SC outcome%s\n" r.Adviser.horizon
    r.Adviser.sc_count
    (if r.Adviser.sc_count = 1 then "" else "s");
  Printf.printf "  verdict: %s\n" (Adviser.verdict_string r.Adviser.verdict);
  (match r.Adviser.witness with
  | Some o -> Format.printf "  beyond-SC witness %a@." Litmus.pp_outcome o
  | None -> ());
  (match r.Adviser.fence with
  | Some advice -> Printf.printf "  fences: %s\n" (Adviser.fence_string advice)
  | None -> ());
  (match r.Adviser.confirmation with
  | Some Adviser.Confirmed -> Printf.printf "  explorer: confirmed\n"
  | Some (Adviser.Mismatch m) -> Printf.printf "  explorer: MISMATCH — %s\n" m
  | Some (Adviser.Inconclusive m) ->
      Printf.printf "  explorer: inconclusive — %s\n" m
  | None -> ());
  Format.printf "  [sat: %a]@." Axiomatic.pp_stats r.Adviser.stats;
  print_newline ()

let fences_arg =
  let doc =
    "Also search for a minimal-by-inclusion set of store-fence sites that \
     restores SC-robustness under plain TSO (greedy monotone elimination \
     over the session's fence-site selector literals)."
  in
  Arg.(value & flag & info [ "fences" ] ~doc)

let verify_arg =
  let doc =
    "Cross-check each verdict against the operational explorer: the outcome \
     set must equal SC at the reported max-robust Δ and differ at the \
     minimal unsafe Δ. A contradiction exits 3; an exhausted explorer \
     budget exits 2 (raise $(b,--max-states))."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let advise_exits =
  Cmd.Exit.info 2
    ~doc:
      "some $(b,--verify) cross-check was inconclusive: the explorer hit \
       its state budget before confirming the verdict (raise \
       $(b,--max-states))."
  :: Cmd.Exit.info 3
       ~doc:
         "the explorer CONTRADICTED an adviser verdict under $(b,--verify) \
          (one oracle is provably wrong), or a litmus file could not be \
          read or parsed, or an option value was invalid."
  :: Cmd.Exit.defaults

let advise_cmd =
  let run fences verify max_states json jobs profile files =
    if max_states < 1 then begin
      Printf.eprintf "--max-states must be at least 1\n";
      3
    end
    else if jobs < 0 then begin
      Printf.eprintf "-j must be non-negative (0 = auto)\n";
      3
    end
    else begin
      let quiet = json = Some "-" in
      let registry = Tbtso_obs.Metrics.create () in
      let profiler = profiler_of profile in
      try
        let tests =
          List.map
            (fun (t : Litmus_fanout.task) -> (t.path, t.test))
            (Litmus_fanout.load ~modes:[ Litmus.M_sc ] files)
        in
        let one (file, test) =
          Tbtso_obs.Span.with_span profiler (Filename.basename file)
          @@ fun () -> Adviser.advise ~fences ~verify ~max_states ~profiler ~file test
        in
        let domains = if jobs = 0 then Pool.default_domains () else jobs in
        let reports =
          if domains <= 1 then List.map one tests
          else
            Pool.with_pool ~domains ~profiler (fun pool ->
                let rs = Pool.map_list pool one tests in
                Pool.record_metrics pool registry;
                rs)
        in
        List.iter
          (fun (r : Adviser.report) ->
            Axiomatic.record_stats registry r.Adviser.stats)
          reports;
        if not quiet then List.iter report_advice reports;
        write_profile ~quiet profile profiler;
        (match json with
        | None -> ()
        | Some "-" ->
            Json.write_line stdout (Adviser.json_doc ~registry reports)
        | Some path ->
            Json.write_file path (Adviser.json_doc ~registry reports));
        Adviser.exit_code reports
      with
      | Litmus_parse.Parse_error { line; message } ->
          Printf.eprintf "parse error at line %d: %s\n" line message;
          3
      | Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          3
    end
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "For each litmus file, find the robustness threshold: the largest Δ \
         at which the TBTSO[Δ] outcome set still equals the SC set, and the \
         smallest Δ at which an outcome beyond SC appears — the paper's \
         criterion for dropping hot-path fences on hardware that honours a \
         temporal drain bound.";
      `P
        "The search is incremental: one SAT formula per file encodes every \
         Loadeq path and every mode behind activation literals, so the \
         minimal-Δ binary search, the SC baseline and the optional \
         minimal-fence-set search ($(b,--fences)) all share one solver and \
         its learned clauses.";
      `P
        "With $(b,--json), results are written as a tbtso-advise/2 document: \
         per file the verdict (robust always/bounded/never), the Δ \
         thresholds, an optional beyond-SC witness outcome, the fence \
         sites, the $(b,--verify) confirmation, and cumulative solver \
         statistics.";
    ]
  in
  Cmd.v
    (Cmd.info "advise" ~exits:advise_exits ~man
       ~doc:
         "Find each file's minimal unsafe Δ (and optionally a minimal fence \
          set)")
    Term.(
      const run $ fences_arg $ verify_arg $ max_states_arg $ json_arg
      $ jobs_arg $ profile_arg $ files_arg)

(* --- scenarios: the lib/core client-window registry ------------------ *)

let pass_cell (m : Scenario.mode_report) =
  if m.Scenario.verdict.Litmus_fanout.disagree <> None then "DISAGREE"
  else
    match m.Scenario.pass with
    | Some true -> "ok"
    | Some false -> "MISMATCH"
    | None -> "INCONCLUSIVE"

let report_scenario (r : Scenario.report) =
  Printf.printf "%s (lib/core/%s):\n" r.Scenario.scenario.Scenario.name
    r.Scenario.scenario.Scenario.algorithm;
  List.iter
    (fun (m : Scenario.mode_report) ->
      let v = m.Scenario.verdict in
      let work =
        match (v.Litmus_fanout.result, v.Litmus_fanout.sat) with
        | Some cr, _ ->
            Printf.sprintf "%d states" cr.Litmus_parse.stats.Litmus.visited
        | None, Some sc ->
            Printf.sprintf "%d sat outcomes" sc.Litmus_fanout.sat_outcome_count
        | None, None -> "no oracle"
      in
      Printf.printf "  %-12s expected %-11s  found %-11s  %-12s (%s)\n"
        (mode_name v.Litmus_fanout.task.Litmus_fanout.mode)
        (Scenario.polarity_name m.Scenario.expected)
        (match m.Scenario.reachable with
        | Some true -> "reachable"
        | Some false -> "unreachable"
        | None -> "undecided")
        (pass_cell m) work;
      match Litmus_fanout.disagreement_witness v with
      | Some o -> Format.printf "  %-12s witness %a@." "" Litmus.pp_outcome o
      | None -> ())
    r.Scenario.modes;
  print_newline ()

let scenario_oracle_arg =
  let doc =
    "Which oracle answers each (scenario, mode) check: $(b,explorer), \
     $(b,sat), or $(b,both) (default — the registry's polarity claims are \
     only machine-checked end to end when the two independent oracles \
     cross-check each point)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("explorer", Litmus_fanout.Explorer);
             ("sat", Litmus_fanout.Sat);
             ("both", Litmus_fanout.Both);
           ])
        Litmus_fanout.Both
    & info [ "oracle" ] ~docv:"ORACLE" ~doc)

let scenario_action_arg =
  let doc =
    "$(b,list) the curated registry; $(b,emit) the scenarios as litmus \
     files into $(b,--dir); or $(b,check) every scenario's per-mode \
     polarity expectations with the chosen oracle(s)."
  in
  Arg.(
    required
    & pos 0 (some (enum [ ("list", `List); ("emit", `Emit); ("check", `Check) ])) None
    & info [] ~docv:"ACTION" ~doc)

let scenario_names_arg =
  let doc = "Restrict to these curated scenario names (default: all)." in
  Arg.(value & pos_right 0 string [] & info [] ~docv:"NAME" ~doc)

let scenario_dir_arg =
  let doc = "Directory $(b,emit) writes the generated litmus files into." in
  Arg.(value & opt string "litmus/gen" & info [ "dir" ] ~docv:"DIR" ~doc)

let scenarios_exits =
  Cmd.Exit.info 1
    ~doc:
      "some machine-checked polarity expectation FAILED: a definitive \
       verdict contradicted the registry (a fence-freedom claim is wrong, \
       or the model changed)."
  :: Cmd.Exit.info 2
       ~doc:
         "some (scenario, mode) check was INCONCLUSIVE under the state \
          budget (raise $(b,--max-states)). A mismatch anywhere dominates \
          and exits 1."
  :: Cmd.Exit.info 3
       ~doc:
         "the two oracles of $(b,--oracle both) DISAGREED on some exact \
          outcome set (one of them is provably wrong), or a scenario name \
          was unknown, or an option value was invalid."
  :: Cmd.Exit.defaults

let scenarios_cmd =
  let run action names dir max_states json jobs oracle profile =
    let selected =
      match names with
      | [] -> Ok Scenario.registry
      | names ->
          List.fold_right
            (fun n acc ->
              match (Scenario.find n, acc) with
              | _, (Error _ as e) -> e
              | Some s, Ok l -> Ok (s :: l)
              | None, Ok _ -> Error n)
            names (Ok [])
    in
    match selected with
    | Error n ->
        Printf.eprintf "unknown scenario %S (see `scenarios list`)\n" n;
        3
    | Ok scenarios -> (
        match action with
        | `List ->
            List.iter
              (fun (s : Scenario.t) ->
                Printf.printf "%-24s %-18s %d threads   %s\n"
                  s.Scenario.name
                  ("lib/core/" ^ s.Scenario.algorithm)
                  (List.length s.Scenario.threads)
                  (String.concat " "
                     (List.map
                        (fun (m, p) ->
                          Printf.sprintf "%s=%s" (Litmus_parse.mode_id m)
                            (Scenario.polarity_name p))
                        s.Scenario.expect)))
              scenarios;
            0
        | `Emit ->
            let paths = Scenario.emit ~dir scenarios in
            List.iter (fun p -> Printf.printf "wrote %s\n" p) paths;
            0
        | `Check ->
            if max_states < 1 then begin
              Printf.eprintf "--max-states must be at least 1\n";
              3
            end
            else if jobs < 0 then begin
              Printf.eprintf "-j must be non-negative (0 = auto)\n";
              3
            end
            else begin
              let quiet = json = Some "-" in
              let registry = Tbtso_obs.Metrics.create () in
              let profiler = profiler_of profile in
              let check () =
                Scenario.check ~max_states ~oracle ~profiler scenarios
              in
              let domains = if jobs = 0 then Pool.default_domains () else jobs in
              let reports =
                if domains <= 1 then check ()
                else
                  Pool.with_pool ~domains ~profiler (fun pool ->
                      let rs =
                        Scenario.check ~pool ~max_states ~oracle ~profiler
                          scenarios
                      in
                      Pool.record_metrics pool registry;
                      rs)
              in
              List.iter
                (fun (r : Scenario.report) ->
                  List.iter
                    (fun (m : Scenario.mode_report) ->
                      let v = m.Scenario.verdict in
                      (match v.Litmus_fanout.result with
                      | Some cr ->
                          Litmus.record_stats registry cr.Litmus_parse.stats
                      | None -> ());
                      match v.Litmus_fanout.sat with
                      | Some sc ->
                          Axiomatic.record_stats registry
                            sc.Litmus_fanout.sat_stats
                      | None -> ())
                    r.Scenario.modes)
                reports;
              if not quiet then List.iter report_scenario reports;
              write_profile ~quiet profile profiler;
              (match json with
              | None -> ()
              | Some "-" ->
                  Json.write_line stdout (Scenario.json_doc ~registry reports)
              | Some path ->
                  Json.write_file path (Scenario.json_doc ~registry reports));
              Scenario.exit_code reports
            end)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The curated scenario registry (Tsim.Scenario) compiles bounded \
         client windows of the lib/core algorithms — FFHP protect/validate \
         vs retire/scan, FFBL revoke/acquire and the echo cut, the flag \
         principle, an RCU grace period, safepoint-style bias revocation — \
         into litmus programs whose exists condition is the algorithm's \
         safety violation.";
      `P
        "Each scenario carries per-mode polarity expectations: the paper's \
         claim that the fence-free window is safe under SC and TBTSO[Δ] up \
         to its wait bound while the violation IS reachable under unbounded \
         TSO. $(b,check) verifies the whole grid and exits non-zero on any \
         failure; $(b,emit) regenerates litmus/gen/ so the ordinary corpus \
         machinery (check, advise, CI) picks the same programs up.";
      `P
        "With $(b,--json), results are written as a tbtso-scenario/4 \
         document: per scenario and mode the expectation, the oracles' \
         combined reachability answer, pass/fail, and the full per-task \
         check record (explorer stats, SAT stats, oracle agreement).";
    ]
  in
  Cmd.v
    (Cmd.info "scenarios" ~exits:scenarios_exits ~man
       ~doc:"List, emit or check the lib/core algorithm scenario registry")
    Term.(
      const run $ scenario_action_arg $ scenario_names_arg $ scenario_dir_arg
      $ max_states_arg $ json_arg $ jobs_arg $ scenario_oracle_arg
      $ profile_arg)

let demo_cmd =
  let run () =
    print_string demo_text;
    print_newline ();
    let t = Litmus_parse.parse demo_text in
    let verdicts =
      Litmus_fanout.check
        (List.map
           (fun mode -> { Litmus_fanout.path = "<demo>"; test = t; mode })
           [ Litmus.M_sc; Litmus.M_tso; Litmus.M_tbtso 4 ])
    in
    List.iter report_one verdicts;
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the built-in store-buffering demonstration")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "tbtso-litmus" ~version:"1.0"
      ~doc:"Exhaustive litmus-test checking under SC, TSO and TBTSO[Δ]"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ check_cmd; advise_cmd; scenarios_cmd; demo_cmd ]))
