(* Scenario-compiler tests: DSL lowering, the curated registry's
   machine-checked polarity grid (both oracles), the qcheck
   random-client generator, and freshness of the committed litmus/gen
   corpus against the registry. *)

open Tsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- DSL lowering: each op compiles to its documented window -------- *)

let pp_instr fmt (i : Litmus.instr) =
  Format.pp_print_string fmt
    (match i with
    | Litmus.Store (a, v) -> Printf.sprintf "store[%d]=%d" a v
    | Litmus.Load (a, r) -> Printf.sprintf "r%d=load[%d]" r a
    | Litmus.Loadeq (a, v, s) -> Printf.sprintf "loadeq[%d]=%d skip %d" a v s
    | Litmus.Fence -> "fence"
    | Litmus.Wait n -> Printf.sprintf "wait %d" n
    | Litmus.Cas (a, e, d, r) -> Printf.sprintf "r%d=cas[%d] %d->%d" r a e d)

let test_lowering () =
  let eq name op window =
    Alcotest.(check (list (testable pp_instr ( = ))))
      name window (Scenario.lower op)
  in
  (* raw ops map one-to-one *)
  eq "store" (Scenario.Store (2, 7)) [ Litmus.Store (2, 7) ];
  eq "load" (Scenario.Load (3, 1)) [ Litmus.Load (3, 1) ];
  eq "loadeq" (Scenario.Loadeq (0, 2, 3)) [ Litmus.Loadeq (0, 2, 3) ];
  eq "fence" Scenario.Fence [ Litmus.Fence ];
  eq "wait" (Scenario.Wait 5) [ Litmus.Wait 5 ];
  eq "cas" (Scenario.Cas (1, 0, 1, 2)) [ Litmus.Cas (1, 0, 1, 2) ];
  (* FFHP: slot = x, hazard = y, object = z; protect is fence-free, the
     retire is fenced (atomic unlink), the scan ages past the horizon
     and frees only when the hazard pointer is clear. *)
  eq "hp_protect" Scenario.Hp_protect [ Litmus.Store (1, 1) ];
  eq "hp_validate" (Scenario.Hp_validate 2) [ Litmus.Load (0, 2) ];
  eq "hp_access" (Scenario.Hp_access 1) [ Litmus.Load (2, 1) ];
  eq "hp_retire" Scenario.Hp_retire [ Litmus.Store (0, 1); Litmus.Fence ];
  eq "hp_scan_free" (Scenario.Hp_scan_free 4)
    [ Litmus.Wait 4; Litmus.Loadeq (1, 1, 1); Litmus.Store (2, 1) ];
  (* FFBL: owner = x, non-owner = y, data = z, lock = w. *)
  eq "bl_owner_lock" (Scenario.Bl_owner_lock 0)
    [ Litmus.Store (0, 1); Litmus.Load (1, 0) ];
  eq "bl_owner_unlock" Scenario.Bl_owner_unlock [ Litmus.Store (0, 0) ];
  eq "bl_nonowner_lock" (Scenario.Bl_nonowner_lock (4, 0, 1))
    [
      Litmus.Cas (3, 0, 1, 0);
      Litmus.Store (1, 1);
      Litmus.Fence;
      Litmus.Wait 4;
      Litmus.Load (0, 1);
    ];
  eq "bl_owner_echo" (Scenario.Bl_owner_echo 0)
    [ Litmus.Store (2, 1); Litmus.Load (1, 0); Litmus.Store (0, 2) ];
  eq "bl_nonowner_echo_lock" (Scenario.Bl_nonowner_echo_lock (4, 0, 1))
    [
      Litmus.Store (1, 1);
      Litmus.Fence;
      Litmus.Load (0, 0);
      Litmus.Loadeq (0, 2, 1);
      Litmus.Wait 4;
      Litmus.Load (2, 1);
    ];
  (* flag principle *)
  eq "fl_raise" (Scenario.Fl_raise 2) [ Litmus.Store (2, 1) ];
  eq "fl_raise_bounded" (Scenario.Fl_raise_bounded (1, 4))
    [ Litmus.Store (1, 1); Litmus.Fence; Litmus.Wait 4 ];
  eq "fl_check" (Scenario.Fl_check (0, 3)) [ Litmus.Load (0, 3) ];
  (* RCU: presence = x, slot = y, object = z. *)
  eq "rcu_read_lock" Scenario.Rcu_read_lock [ Litmus.Store (0, 1) ];
  eq "rcu_deref" (Scenario.Rcu_deref 0) [ Litmus.Load (1, 0) ];
  eq "rcu_access" (Scenario.Rcu_access 1) [ Litmus.Load (2, 1) ];
  eq "rcu_read_unlock" Scenario.Rcu_read_unlock [ Litmus.Store (0, 0) ];
  eq "rcu_remove" Scenario.Rcu_remove [ Litmus.Store (1, 1); Litmus.Fence ];
  eq "rcu_sync_free" (Scenario.Rcu_sync_free 4)
    [ Litmus.Wait 4; Litmus.Loadeq (0, 1, 1); Litmus.Store (2, 1) ];
  (* safepoint revocation: bias = x, revoke = y. *)
  eq "sp_owner_enter" (Scenario.Sp_owner_enter 0)
    [ Litmus.Store (0, 1); Litmus.Load (1, 0) ];
  eq "sp_owner_exit" Scenario.Sp_owner_exit [ Litmus.Store (0, 0) ];
  eq "sp_revoke_request" Scenario.Sp_revoke_request
    [ Litmus.Store (1, 1); Litmus.Fence ];
  eq "sp_revoke_wait" (Scenario.Sp_revoke_wait 8) [ Litmus.Wait 8 ];
  eq "sp_revoke_check" (Scenario.Sp_revoke_check 1) [ Litmus.Load (0, 1) ]

(* --- registry structure --------------------------------------------- *)

let test_registry_well_formed () =
  List.iter
    (fun s ->
      match Scenario.well_formed s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "registry scenario ill-formed: %s" m)
    Scenario.registry;
  (* the acceptance floor: at least 4 distinct lib/core algorithms, each
     with a fence-free window safe under TBTSO and reachable under TSO *)
  let algorithms =
    List.sort_uniq compare
      (List.map (fun s -> s.Scenario.algorithm) Scenario.registry)
  in
  check_bool "≥ 4 distinct algorithms" true (List.length algorithms >= 4);
  List.iter
    (fun algo ->
      let central s =
        s.Scenario.algorithm = algo
        && List.mem (Litmus.M_tso, Scenario.Reachable) s.Scenario.expect
        && List.exists
             (fun (m, p) ->
               match (m, p) with
               | Litmus.M_tbtso _, Scenario.Unreachable -> true
               | _ -> false)
             s.Scenario.expect
      in
      check_bool
        (algo ^ " has a TBTSO-safe / TSO-reachable scenario")
        true
        (List.exists central Scenario.registry))
    algorithms

let test_registry_render_roundtrip () =
  List.iter
    (fun s ->
      let parsed = Litmus_parse.parse (Scenario.render s) in
      check_bool (s.Scenario.name ^ " round-trips") true
        (parsed = Scenario.to_litmus s))
    Scenario.registry

let test_well_formed_rejects () =
  let base = List.hd Scenario.registry in
  let bad name s = check_bool name true (Result.is_error (Scenario.well_formed s)) in
  bad "no threads" { base with Scenario.threads = [] };
  bad "five threads"
    { base with Scenario.threads = List.init 5 (fun _ -> [ Scenario.Fence ]) };
  bad "register out of range"
    { base with Scenario.threads = [ [ Scenario.Load (0, 4) ] ] };
  bad "address out of range"
    { base with Scenario.threads = [ [ Scenario.Store (4, 1) ] ] };
  bad "negative wait" { base with Scenario.threads = [ [ Scenario.Wait (-1) ] ] };
  bad "condition thread out of range"
    { base with Scenario.condition = [ Litmus_parse.Reg_eq (3, 0, 0) ] };
  bad "empty condition" { base with Scenario.condition = [] };
  bad "expectations on forall"
    { base with Scenario.quantifier = Litmus_parse.Forall }

(* --- the machine-checked polarity grid (the paper's central claim) --- *)

let test_registry_polarity_both_oracles () =
  let reports =
    Scenario.check ~oracle:Litmus_fanout.Both Scenario.registry
  in
  List.iter
    (fun (r : Scenario.report) ->
      match Scenario.severity r with
      | `Ok -> ()
      | sev ->
          Alcotest.failf "scenario %s: %s" r.Scenario.scenario.Scenario.name
            (match sev with
            | `Mismatch -> "polarity expectation failed"
            | `Inconclusive -> "inconclusive under default budget"
            | `Disagree -> "oracles disagree"
            | `Ok -> assert false))
    reports;
  check_int "exit code" 0 (Scenario.exit_code reports)

let test_refutes_misspecified_predicate () =
  (* A deliberately wrong claim — the fence-free flag window marked
     unreachable under unbounded TSO — must come back as a mismatch with
     exit code 1, proving the gate can actually fail. *)
  let s =
    match Scenario.find "flag_principle" with
    | Some s -> { s with Scenario.expect = [ (Litmus.M_tso, Scenario.Unreachable) ] }
    | None -> Alcotest.fail "flag_principle not in registry"
  in
  let reports = Scenario.check ~oracle:Litmus_fanout.Both [ s ] in
  check_bool "mismatch detected" true
    (match reports with [ r ] -> Scenario.severity r = `Mismatch | _ -> false);
  check_int "exit code 1" 1 (Scenario.exit_code reports);
  (* ...and a wrong safety predicate (protection dropped from the FFHP
     window) flips the TBTSO verdict from safe to violated. *)
  let unprotected =
    match Scenario.find "ffhp_refute_unprotected" with
    | Some s -> s
    | None -> Alcotest.fail "ffhp_refute_unprotected not in registry"
  in
  let t = Scenario.to_litmus unprotected in
  let r = Litmus_parse.check t ~mode:(Litmus.M_tbtso 4) in
  check_bool "unprotected FFHP violated under TBTSO[4]" true
    (r.Litmus_parse.complete && r.Litmus_parse.holds)

let test_check_explorer_only_and_pooled () =
  (* Explorer-only and pooled runs reach the same per-mode verdicts as
     the cross-checked sequential run. *)
  let subset =
    List.filter
      (fun s ->
        List.mem s.Scenario.name [ "ffhp_retire_scan"; "ffbl_revoke_acquire" ])
      Scenario.registry
  in
  let passes reports =
    List.map
      (fun (r : Scenario.report) ->
        List.map (fun m -> m.Scenario.pass) r.Scenario.modes)
      reports
  in
  let seq = Scenario.check ~oracle:Litmus_fanout.Explorer subset in
  let pooled =
    Tbtso_par.Pool.with_pool ~domains:2 (fun pool ->
        Scenario.check ~pool ~oracle:Litmus_fanout.Explorer subset)
  in
  check_bool "pooled ≡ sequential" true (passes seq = passes pooled);
  List.iter
    (fun (r : Scenario.report) ->
      check_bool "explorer-only ok" true (Scenario.severity r = `Ok))
    seq

(* The --json document names its schema; version 2 dropped the four
   source-DPOR counters from the embedded check records. *)
let test_json_schema () =
  let subset = List.filter (fun s -> s.Scenario.name = "flag_principle") Scenario.registry in
  let reports = Scenario.check ~oracle:Litmus_fanout.Explorer subset in
  let doc = Scenario.json_doc ~registry:(Tbtso_obs.Metrics.create ()) reports in
  check_bool "schema tbtso-scenario/4" true
    (Tbtso_obs.Json.member "schema" doc = Some (Tbtso_obs.Json.String "tbtso-scenario/4"));
  let text = Tbtso_obs.Json.to_string doc in
  List.iter
    (fun field ->
      let needle = Printf.sprintf "\"%s\"" field in
      let n = String.length needle in
      let rec absent i =
        i + n > String.length text || (String.sub text i n <> needle && absent (i + 1))
      in
      check_bool (field ^ " absent") true (absent 0))
    [ "races_detected"; "wut_nodes"; "source_set_hits"; "frontier_steals" ]

(* --- freshness of the committed litmus/gen corpus ------------------- *)

let gen_dir () =
  List.find_opt
    (fun dir -> Sys.file_exists dir && Sys.is_directory dir)
    [ "../litmus/gen"; "litmus/gen" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_gen_corpus_fresh () =
  match gen_dir () with
  | None -> Alcotest.skip ()
  | Some dir ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".litmus")
        |> List.sort compare
      in
      check_int "one file per registry scenario"
        (List.length Scenario.registry)
        (List.length files);
      List.iter
        (fun s ->
          let path = Filename.concat dir (Scenario.file_name s) in
          check_bool (Scenario.file_name s ^ " exists") true
            (Sys.file_exists path);
          check_bool
            (Scenario.file_name s ^ " is fresh (re-run `scenarios emit`)")
            true
            (read_file path = Scenario.render s))
        Scenario.registry

(* --- qcheck random-client generator --------------------------------- *)

(* Random client windows over the full DSL. Args are kept small (waits
   in 1-2, 1-2 ops per thread) so that the oracle-agreement property —
   which explores every mode × Δ ∈ {1,4,8} with BOTH oracles — stays
   affordable; the lowered windows still reach ~12 instructions across
   3 threads with fences, waits, loadeq branches and cas. *)
let op_gen =
  QCheck.Gen.(
    let reg = int_bound 3 in
    let wait = int_range 1 2 in
    frequency
      [
        (3, map2 (fun a v -> Scenario.Store (a, 1 + v)) (int_bound 3) (int_bound 1));
        (3, map2 (fun a r -> Scenario.Load (a, r)) (int_bound 3) reg);
        (1, map2 (fun a s -> Scenario.Loadeq (a, 1, 1 + s)) (int_bound 3) (int_bound 1));
        (1, return Scenario.Fence);
        (1, map (fun d -> Scenario.Wait d) wait);
        (1, map2 (fun a r -> Scenario.Cas (a, 0, 1, r)) (int_bound 3) reg);
        (1, return Scenario.Hp_protect);
        (1, map (fun r -> Scenario.Hp_validate r) reg);
        (1, map (fun r -> Scenario.Hp_access r) reg);
        (1, return Scenario.Hp_retire);
        (1, map (fun d -> Scenario.Hp_scan_free d) wait);
        (1, map (fun r -> Scenario.Bl_owner_lock r) reg);
        (1, return Scenario.Bl_owner_unlock);
        (1, map3 (fun d rl r -> Scenario.Bl_nonowner_lock (d, rl, r)) wait reg reg);
        (1, map (fun r -> Scenario.Bl_owner_echo r) reg);
        ( 1,
          map3
            (fun d re rd -> Scenario.Bl_nonowner_echo_lock (d, re, rd))
            wait reg reg );
        (1, map (fun f -> Scenario.Fl_raise f) (int_bound 3));
        (1, map2 (fun f d -> Scenario.Fl_raise_bounded (f, d)) (int_bound 3) wait);
        (1, map2 (fun f r -> Scenario.Fl_check (f, r)) (int_bound 3) reg);
        (1, return Scenario.Rcu_read_lock);
        (1, map (fun r -> Scenario.Rcu_deref r) reg);
        (1, map (fun r -> Scenario.Rcu_access r) reg);
        (1, return Scenario.Rcu_read_unlock);
        (1, return Scenario.Rcu_remove);
        (1, map (fun d -> Scenario.Rcu_sync_free d) wait);
        (1, map (fun r -> Scenario.Sp_owner_enter r) reg);
        (1, return Scenario.Sp_owner_exit);
        (1, return Scenario.Sp_revoke_request);
        (1, map (fun d -> Scenario.Sp_revoke_wait d) wait);
        (1, map (fun r -> Scenario.Sp_revoke_check r) reg);
      ])

let scenario_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun n ->
    list_repeat n (list_size (int_range 1 2) op_gen) >>= fun threads ->
    let nthreads = List.length threads in
    map2
      (fun t r ->
        {
          Scenario.name = "qcheck_client";
          algorithm = "random";
          descr = [];
          threads;
          quantifier = Litmus_parse.Exists;
          condition = [ Litmus_parse.Reg_eq (t mod nthreads, r, 0) ];
          expect = [];
        })
      (int_bound (nthreads - 1))
      (int_bound 3))

let scenario_arb =
  QCheck.make ~print:Scenario.render scenario_gen

let prop_random_scenarios_well_formed =
  QCheck.Test.make ~name:"random scenarios are well-formed and round-trip"
    ~count:200 scenario_arb (fun s ->
      Scenario.well_formed s = Ok ()
      && Litmus_parse.parse (Scenario.render s) = Scenario.to_litmus s)

let prop_random_scenarios_oracles_agree =
  (* The generator's soundness floor: on every random client window the
     two independent oracles produce the same exact outcome set in every
     mode, Δ swept over {1, 4, 8}. *)
  QCheck.Test.make ~name:"oracles agree on random scenarios (modes × Δ ∈ {1,4,8})"
    ~count:30 scenario_arb (fun s ->
      let p = Scenario.program s in
      List.for_all
        (fun mode -> Axiomatic.enumerate ~mode p = Litmus.enumerate ~mode p)
        [
          Litmus.M_sc;
          Litmus.M_tso;
          Litmus.M_tbtso 1;
          Litmus.M_tbtso 4;
          Litmus.M_tbtso 8;
        ])

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "scenario"
    [
      ( "dsl",
        [
          Alcotest.test_case "lowering windows" `Quick test_lowering;
          Alcotest.test_case "well_formed rejections" `Quick
            test_well_formed_rejects;
        ] );
      ( "registry",
        [
          Alcotest.test_case "well-formed, ≥ 4 algorithms" `Quick
            test_registry_well_formed;
          Alcotest.test_case "render round-trips" `Quick
            test_registry_render_roundtrip;
          Alcotest.test_case "polarity grid, both oracles" `Quick
            test_registry_polarity_both_oracles;
          Alcotest.test_case "mis-specified predicate refuted" `Quick
            test_refutes_misspecified_predicate;
          Alcotest.test_case "explorer-only ≡ pooled" `Quick
            test_check_explorer_only_and_pooled;
          Alcotest.test_case "litmus/gen corpus is fresh" `Quick
            test_gen_corpus_fresh;
          Alcotest.test_case "json schema" `Quick test_json_schema;
        ] );
      qsuite "generator"
        [ prop_random_scenarios_well_formed; prop_random_scenarios_oracles_agree ];
    ]
