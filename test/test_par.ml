(* Worker-pool tests: ordering, stress, exception propagation, metrics,
   and the driver-level guarantee that a pooled litmus run is
   byte-identical to the sequential one. *)

open Tsim
module Pool = Tbtso_par.Pool
module Json = Tbtso_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Stress: many trivial tasks, several pool sizes --- *)

let test_stress () =
  let n = 10_000 in
  let xs = Array.init n (fun i -> i) in
  let expected = Array.map (fun i -> (i * 7) + 1) xs in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let got = Pool.map pool (fun i -> (i * 7) + 1) xs in
          check_bool
            (Printf.sprintf "10k tasks, %d domains" domains)
            true (got = expected);
          (* Pool is reusable after a map. *)
          let again = Pool.map pool (fun i -> i - 1) xs in
          check_bool
            (Printf.sprintf "10k tasks again, %d domains" domains)
            true
            (again = Array.map (fun i -> i - 1) xs);
          let tasks = List.fold_left (fun a w -> a + w.Pool.tasks) 0 (Pool.stats pool) in
          check_int
            (Printf.sprintf "every task accounted, %d domains" domains)
            (2 * n) tasks))
    [ 1; 2; 4 ]

(* --- Deterministic ordering, whatever the chunking --- *)

let prop_ordering =
  QCheck.Test.make ~name:"results land in submission order" ~count:50
    QCheck.(pair (list small_nat) (int_range 1 64))
    (fun (xs, chunk) ->
      Pool.with_pool ~domains:3 (fun pool ->
          let f x = (x * x) - x in
          Pool.map_list ~chunk pool f xs = List.map f xs))

(* --- Exception propagation --- *)

exception Boom of int

let test_exception () =
  Pool.with_pool ~domains:4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map ~chunk:1 pool
               (fun i -> if i = 57 then raise (Boom i) else i)
               (Array.init 100 (fun i -> i)));
          None
        with Boom i -> Some i
      in
      check_bool "first task exception re-raised" true (raised = Some 57);
      (* Fail-fast cancelled the submission; the pool survives and runs
         the next one. *)
      let ok = Pool.map pool succ (Array.init 100 (fun i -> i)) in
      check_bool "pool usable after exception" true
        (ok = Array.init 100 (fun i -> i + 1)))

let test_shutdown_rejects () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  check_bool "map after shutdown raises" true
    (try
       ignore (Pool.map pool succ [| 1 |]);
       false
     with Invalid_argument _ -> true)

(* --- Metrics export --- *)

let test_metrics () =
  Pool.with_pool ~domains:2 (fun pool ->
      ignore (Pool.map pool succ (Array.init 500 (fun i -> i)));
      let registry = Tbtso_obs.Metrics.create () in
      Pool.record_metrics pool registry;
      check_int "par.tasks counts every task" 500
        (Tbtso_obs.Metrics.counter_value
           (Tbtso_obs.Metrics.counter registry "par.tasks"));
      check_bool "par.domains gauge" true
        (Tbtso_obs.Metrics.gauge_value
           (Tbtso_obs.Metrics.gauge registry "par.domains")
        = 2.0);
      match Tbtso_obs.Metrics.to_json registry with
      | Json.Obj fields -> check_bool "counters section" true (List.mem_assoc "counters" fields)
      | _ -> Alcotest.fail "metrics JSON not an object")

(* --- Driver-level determinism: seq vs par litmus runs --- *)

let litmus_dir () =
  (* dune runtest runs in _build/default/test; the corpus is a declared
     dependency one level up. *)
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ "../litmus"; "litmus" ]

(* The hand-written corpus, then the generated one in litmus/gen. *)
let corpus () =
  let files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".litmus")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  match litmus_dir () with
  | None -> []
  | Some dir ->
      let gen = Filename.concat dir "gen" in
      files dir @ if Sys.file_exists gen then files gen else []

(* Strip the fields that legitimately differ between two runs of the
   same checks: wall-clock-valued stats and the [par.*] pool metrics
   (present only in pooled runs). Everything else must match exactly. *)
let rec scrub (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if
               k = "elapsed_s" || k = "states_per_sec"
               || k = "litmus.elapsed_s"
               || k = "litmus.peak_states_per_sec"
               || k = "sat.elapsed_s"
               || String.starts_with ~prefix:"par." k
             then None
             else Some (k, scrub v))
           fields)
  | Json.List l -> Json.List (List.map scrub l)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _) as v -> v

let run_corpus ?pool ?oracle paths =
  let modes = [ Litmus.M_sc; Litmus.M_tso; Litmus.M_tbtso 4 ] in
  let tasks = Litmus_fanout.load ~modes paths in
  let verdicts = Litmus_fanout.check ?pool ?oracle tasks in
  let registry = Tbtso_obs.Metrics.create () in
  (match pool with Some p -> Pool.record_metrics p registry | None -> ());
  List.iter
    (fun (v : Litmus_fanout.verdict) ->
      (match v.result with
      | Some r -> Litmus.record_stats registry r.Litmus_parse.stats
      | None -> ());
      match v.sat with
      | Some sc -> Axiomatic.record_stats registry sc.Litmus_fanout.sat_stats
      | None -> ())
    verdicts;
  (verdicts, Litmus_fanout.json_doc ~registry verdicts)

let test_seq_vs_par_json () =
  match corpus () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      check_bool "whole corpus present" true (List.length paths >= 6);
      let seq_verdicts, seq_doc = run_corpus paths in
      let par_verdicts, par_doc =
        Pool.with_pool ~domains:4 (fun pool -> run_corpus ~pool paths)
      in
      check_int "same verdict count" (List.length seq_verdicts)
        (List.length par_verdicts);
      List.iter2
        (fun s p ->
          Alcotest.(check string)
            "same verdict"
            (Litmus_fanout.verdict_string s)
            (Litmus_fanout.verdict_string p))
        seq_verdicts par_verdicts;
      check_int "same exit code"
        (Litmus_fanout.exit_code seq_verdicts)
        (Litmus_fanout.exit_code par_verdicts);
      (match seq_doc with
      | Json.Obj fields ->
          check_bool "explorer runs use schema tbtso-litmus/5" true
            (List.assoc_opt "schema" fields = Some (Json.String "tbtso-litmus/5"))
      | _ -> Alcotest.fail "json_doc not an object");
      Alcotest.(check string)
        "JSON byte-identical up to time/pool fields"
        (Json.to_string (scrub seq_doc))
        (Json.to_string (scrub par_doc))

let test_exit_codes () =
  let verdict text mode =
    let test = Litmus_parse.parse text in
    Litmus_fanout.check [ { Litmus_fanout.path = "<inline>"; test; mode } ]
  in
  let holds = verdict "thread\n store x 1\nforall x = 1\n" Litmus.M_tso in
  check_int "forall holds exits 0" 0 (Litmus_fanout.exit_code holds);
  let violated = verdict "thread\n store x 1\nforall x = 2\n" Litmus.M_tso in
  check_int "violated exits 1" 1 (Litmus_fanout.exit_code violated);
  let inconclusive =
    let test =
      Litmus_parse.parse
        "thread\n store x 1\n load y -> r0\nthread\n store y 1\n load x -> r1\n\
         exists 0:r0 = 0 /\\ 1:r1 = 0\n"
    in
    Litmus_fanout.check ~max_states:5
      [ { Litmus_fanout.path = "<inline>"; test; mode = Litmus.M_tso } ]
  in
  check_int "inconclusive exits 2" 2 (Litmus_fanout.exit_code inconclusive);
  check_int "violation dominates inconclusive" 1
    (Litmus_fanout.exit_code (inconclusive @ violated));
  (* A partial exploration that already found an exists witness is
     definitive, not inconclusive. *)
  let witness_found =
    List.filter
      (fun (v : Litmus_fanout.verdict) ->
        match v.result with Some r -> r.Litmus_parse.holds | None -> false)
      inconclusive
  in
  check_int "partial witness stays definitive" 0
    (Litmus_fanout.exit_code witness_found)

(* --- Oracle cross-check: --oracle both over the corpus, and the
   dominant exit-3 disagreement path --- *)

let test_oracle_both_corpus () =
  match corpus () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      let seq_verdicts, seq_doc =
        run_corpus ~oracle:Litmus_fanout.Both paths
      in
      let _, par_doc =
        Pool.with_pool ~domains:2 (fun pool ->
            run_corpus ~pool ~oracle:Litmus_fanout.Both paths)
      in
      List.iter
        (fun (v : Litmus_fanout.verdict) ->
          check_bool "oracles agree on corpus" true (v.disagree = None);
          check_bool "both oracles ran" true (v.result <> None && v.sat <> None))
        seq_verdicts;
      check_int "agreement over corpus exits 0" 0
        (Litmus_fanout.exit_code seq_verdicts);
      (match seq_doc with
      | Json.Obj fields ->
          check_bool "sat runs use schema tbtso-sat/5" true
            (List.assoc_opt "schema" fields = Some (Json.String "tbtso-sat/5"))
      | _ -> Alcotest.fail "json_doc not an object");
      (* Each file's modes share one SAT session, so the per-verdict
         sat.stats depend on the order of the file's queries; -j 2 runs
         a file's modes in that same order on one domain. *)
      Alcotest.(check string)
        "both-oracle JSON byte-identical seq vs par"
        (Json.to_string (scrub seq_doc))
        (Json.to_string (scrub par_doc))

(* --- Fewer files than domains: -j 2 on a single task --- *)

(* A file never splits across domains, so a pool with more domains than
   files leaves some idle; verdicts must be indistinguishable from the
   sequential run. *)
let test_fewer_files_than_domains () =
  match corpus () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      let heavy =
        match
          List.filter (fun p -> Filename.basename p = "iriw.litmus") paths
        with
        | [] -> [ List.hd paths ]
        | l -> l
      in
      let tasks = Litmus_fanout.load ~modes:[ Litmus.M_tbtso 8 ] heavy in
      let seq = Litmus_fanout.check tasks in
      let par =
        Pool.with_pool ~domains:2 (fun pool ->
            Litmus_fanout.check ~pool tasks)
      in
      List.iter2
        (fun (s : Litmus_fanout.verdict) (p : Litmus_fanout.verdict) ->
          Alcotest.(check string)
            "same verdict"
            (Litmus_fanout.verdict_string s)
            (Litmus_fanout.verdict_string p);
          match (s.result, p.result) with
          | Some rs, Some rp ->
              check_int "same outcome count" rs.Litmus_parse.outcome_count
                rp.Litmus_parse.outcome_count;
              check_bool "same holds" true
                (rs.Litmus_parse.holds = rp.Litmus_parse.holds);
              check_bool "same complete" true
                (rs.Litmus_parse.complete = rp.Litmus_parse.complete)
          | _ -> Alcotest.fail "explorer did not run on both sides")
        seq par

let test_disagreement_exits_3 () =
  (* Fabricate a disagreement verdict (the real oracles agree — that is
     the whole point — so the exit-3 path is pinned on a constructed
     witness set). *)
  let test = Litmus_parse.parse "thread\n store x 1\nforall x = 1\n" in
  let agreeing =
    Litmus_fanout.check ~oracle:Litmus_fanout.Both
      [ { Litmus_fanout.path = "<inline>"; test; mode = Litmus.M_tso } ]
  in
  let v = List.hd agreeing in
  check_bool "real oracles agree" true (v.Litmus_fanout.disagree = None);
  let o1 : Litmus.outcome = { regs = [| [| 0; 0; 0; 0 |] |]; mem = [| 9; 0; 0; 0 |] } in
  let o2 : Litmus.outcome = { regs = [| [| 0; 0; 0; 0 |] |]; mem = [| 7; 0; 0; 0 |] } in
  let bad = { v with Litmus_fanout.disagree = Some [ o2; o1 ] } in
  check_bool "disagreement severity dominates" true
    (Litmus_fanout.severity bad = `Disagree);
  check_int "disagreement exits 3" 3 (Litmus_fanout.exit_code [ bad ]);
  check_int "disagreement dominates violation" 3
    (Litmus_fanout.exit_code
       (bad
       :: Litmus_fanout.check
            [
              {
                Litmus_fanout.path = "<inline>";
                test = Litmus_parse.parse "thread\n store x 1\nforall x = 2\n";
                mode = Litmus.M_tso;
              };
            ]));
  check_bool "witness is the head of the sorted set" true
    (Litmus_fanout.disagreement_witness bad = Some o2);
  check_bool "verdict string names the disagreement" true
    (Litmus_fanout.verdict_string bad
    = "ORACLE DISAGREEMENT (2 outcomes differ)");
  match Litmus_fanout.record bad with
  | Json.Obj fields ->
      check_bool "record flags oracles_agree=false" true
        (List.assoc_opt "oracles_agree" fields = Some (Json.Bool false))
  | _ -> Alcotest.fail "record not an object"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "10k-task stress, 1/2/4 domains" `Quick test_stress;
          Alcotest.test_case "exception propagation + fail-fast" `Quick test_exception;
          Alcotest.test_case "shutdown is final" `Quick test_shutdown_rejects;
          Alcotest.test_case "metrics export" `Quick test_metrics;
        ] );
      qsuite "ordering" [ prop_ordering ];
      ( "fanout",
        [
          Alcotest.test_case "seq vs par corpus JSON byte-equality" `Quick
            test_seq_vs_par_json;
          Alcotest.test_case "exit-code gate" `Quick test_exit_codes;
          Alcotest.test_case "--oracle both agrees over the corpus" `Quick
            test_oracle_both_corpus;
          Alcotest.test_case "oracle disagreement exits 3" `Quick
            test_disagreement_exits_3;
          Alcotest.test_case "fewer files than domains" `Quick
            test_fewer_files_than_domains;
        ] );
    ]
