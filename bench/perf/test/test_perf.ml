(* Self-test of the benchmark: metric names, determinism, the traced
   drivers against the library drivers, failure accounting and the
   verdicts of compare. *)

open Tsim
open Perfbench
module Json = Tbtso_obs.Json

let spec_path = ref ""

let names_units metrics = List.map (fun (name, _, unit) -> (name, unit)) metrics

let spec_list key f =
  match Json.member key (Json.of_string (Compare.read_file !spec_path)) with
  | Some (Json.List xs) -> List.map f xs
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let string_field key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> Alcotest.fail ("no " ^ key)

let spec_metrics key = spec_list key (fun m -> (string_field "name" m, string_field "unit" m))

let pair = Alcotest.(list (pair string string))

(* BENCHMARK.json names every workload, and every workload, untraced and
   traced, succeeds and prints exactly the metrics BENCHMARK.json names,
   with their units; end-to-end values are never zero. *)
let test_metrics () =
  let e2e = spec_metrics "end_to_end" and layers = spec_metrics "per_layer" in
  Alcotest.(check (list string))
    "workloads = BENCHMARK.json"
    (spec_list "workloads" (string_field "name"))
    (List.map (fun (w : Workload.t) -> w.name) Workload.all);
  Alcotest.check pair "end_to_end table = BENCHMARK.json" e2e Workload.end_to_end;
  Alcotest.check pair "per_layer table = BENCHMARK.json" layers Workload.per_layer;
  List.iter
    (fun (w : Workload.t) ->
      let r = Workload.run ~scale:Workload.Tiny w ~seed:1 ~seconds:0 ~trace:false in
      Alcotest.(check bool) (w.name ^ " correct") true r.correct;
      Alcotest.check pair (w.name ^ " end-to-end metrics") e2e (names_units r.metrics);
      List.iter
        (fun (name, v, _) ->
          if not (Float.is_finite v && v > 0.) then
            Alcotest.failf "%s %s = %g, expected a positive number" w.name name v)
        r.metrics;
      let t = Workload.run ~scale:Workload.Tiny w ~seed:1 ~seconds:0 ~trace:true in
      Alcotest.(check bool) (w.name ^ " traced correct") true t.correct;
      Alcotest.check pair (w.name ^ " per-layer metrics") layers (names_units t.metrics))
    Workload.all

(* A workload's golden cells (seed 1, golden length). *)
let golden_cells ?scale name =
  match Option.bind (Workload.find name) (Workload.golden_cells ?scale) with
  | Some (_, cells) -> cells
  | None -> Alcotest.fail ("no simulator workload " ^ name)

(* Same seed, same inputs, same results: cell digests and the oracles'
   outcome sets. *)
let test_deterministic () =
  List.iter
    (fun name ->
      List.iter
        (fun (c : Cells.t) ->
          Alcotest.(check string) c.id (Cells.digest (Cells.run c)) (Cells.digest (Cells.run c)))
        (golden_cells ~scale:Workload.Tiny name))
    [ "ht_read"; "ht_update"; "lock_spin" ];
  let texts () = Workload.render_windows (Workload.tally ()) ~seed:7 4 in
  let a = texts () and b = texts () in
  Alcotest.(check (array string)) "windows" a b;
  Array.iteri
    (fun i text ->
      let sigs () = List.map Workload.signature (Workload.check_request ~id:"t" text) in
      if sigs () <> sigs () then Alcotest.failf "request %d: verdicts differ between runs" i)
    a

(* The traced drivers rebuild Hashtable_bench.run and Lock_bench.run.
   The RCU cell has a reclaimer thread and the FFBL[os] cell an
   interrupt hook that lib/ installs outside the wrapped bodies. *)
let test_traced_drivers () =
  List.iter
    (fun (workload, id) ->
      let c = List.find (fun (c : Cells.t) -> c.id = id) (golden_cells workload) in
      let a = Traced.sim () in
      let traced = Traced.cell a Tbtso_obs.Span.disabled c in
      Alcotest.(check string) id (Cells.describe (Cells.run c)) (Cells.describe traced);
      Alcotest.(check bool) "effects counted" true (a.effects > 0);
      Alcotest.(check bool) "stepped ticks within simulated ticks" true
        (a.stepped > 0 && a.stepped <= a.sim_ticks);
      Alcotest.(check bool) "body and machine time split" true (a.body_ns > 0 && a.machine_ns > 0))
    [ ("ht_update", "RCU/n=4"); ("lock_spin", "owner-frequent/nonowner-rare/FFBL[os 4ms]") ]

(* A raising cell, a disagreement and a budget cut each count as one
   failed operation; a definite verdict does not. *)
let test_failure_accounting () =
  let tally = Workload.tally () in
  (match Workload.attempt tally ~id:"raises" (fun () -> raise (Machine.Deadlock "test")) with
  | None -> ()
  | Some _ -> Alcotest.fail "a raising cell returned");
  let test =
    Litmus_parse.parse
      "thread\n  store x 1\n  load y -> r0\nthread\n  store y 1\n  load x -> r0\n\
       exists 0:r0 = 0 /\\ 1:r0 = 0\n"
  in
  let tasks = [ { Litmus_fanout.path = "sb"; test; mode = Litmus.M_tso } ] in
  let ok = Litmus_fanout.check ~oracle:Litmus_fanout.Both tasks in
  let disagree =
    List.map
      (fun (v : Litmus_fanout.verdict) ->
        let o = { Litmus.regs = [| [| 9 |] |]; mem = [||] } in
        { v with disagree = Some [ o ] })
      ok
  in
  let cut = Litmus_fanout.check ~max_states:1 ~oracle:Litmus_fanout.Both tasks in
  Alcotest.(check bool) "budget cut is inconclusive" true
    (List.exists (fun v -> Litmus_fanout.severity v = `Inconclusive) cut);
  Workload.count_request tally ~id:"ok" ok;
  Workload.count_request tally ~id:"disagree" disagree;
  Workload.count_request tally ~id:"cut" cut;
  Alcotest.(check (pair int int)) "attempted, failed" (4, 3) (tally.attempted, tally.failed)

(* compare's verdicts on a lower-is-better metric with a 10 % bound. A
   wide spread leaves a row unresolved unless one side wins every
   comparison of runs. *)
let test_compare () =
  let m = { Compare.name = "t"; unit = "s"; lower_is_better = true; bound = 0.1 } in
  let verdict parent change = Compare.verdict_name (Compare.judge m ~parent ~change).verdict in
  let steady = [ 1.0; 1.01; 0.99; 1.0; 1.02 ] and wide = [ 1.0; 1.5; 0.7; 1.3; 0.8 ] in
  Alcotest.(check string) "steady, same" "same" (verdict steady [ 1.02; 1.0; 1.01; 0.99; 1.0 ]);
  Alcotest.(check string)
    "steady, 20 % worse" "REGRESSION"
    (verdict steady (List.map (fun x -> x *. 1.2) steady));
  Alcotest.(check string) "wide, overlapping" "unresolved" (verdict wide [ 1.1; 1.4; 0.8; 1.2; 0.9 ]);
  Alcotest.(check string)
    "wide, every run worse" "REGRESSION"
    (verdict wide (List.map (fun x -> x +. 1.0) wide))

let () =
  spec_path := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perf"
    [
      ( "perf",
        [
          Alcotest.test_case "every workload emits every metric" `Quick test_metrics;
          Alcotest.test_case "same seed, same results" `Quick test_deterministic;
          Alcotest.test_case "traced drivers match the library" `Quick test_traced_drivers;
          Alcotest.test_case "failure accounting" `Quick test_failure_accounting;
          Alcotest.test_case "compare verdicts" `Quick test_compare;
        ] );
    ]
