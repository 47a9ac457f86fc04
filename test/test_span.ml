(* Tests for the span profiler: span nesting and per-domain merge
   (including across the pool's worker domains), phase accumulators,
   Chrome export, and the differential guarantee that profiling never
   changes what the engines compute. *)

open Tsim
module Span = Tbtso_obs.Span
module Json = Tbtso_obs.Json
module Chrome = Tbtso_obs.Chrome
module Pool = Tbtso_par.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Timeline spans                                                      *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let p = Span.create () in
  let v =
    Span.with_span p "outer" (fun () ->
        Span.count p "widgets" 3;
        Span.with_span p "inner" (fun () ->
            Span.count p "widgets" 7;
            Span.count p "gadgets" 1);
        Span.count p "widgets" 2;
        42)
  in
  check_int "with_span returns the body's value" 42 v;
  match Span.spans p with
  | [ outer; inner ] ->
      check_string "outer name" "outer" outer.Span.sp_name;
      check_string "inner name" "inner" inner.Span.sp_name;
      check_int "outer depth" 0 outer.Span.sp_depth;
      check_int "inner depth" 1 inner.Span.sp_depth;
      check_bool "outer closed" true (outer.Span.sp_dur_ns >= 0);
      check_bool "inner within outer" true
        (inner.Span.sp_start_ns >= outer.Span.sp_start_ns
        && inner.Span.sp_start_ns + inner.Span.sp_dur_ns
           <= outer.Span.sp_start_ns + outer.Span.sp_dur_ns);
      (* Counters attach to the innermost open span; sorted by name. *)
      check_bool "outer counters" true
        (outer.Span.sp_counters = [ ("widgets", 5) ]);
      check_bool "inner counters" true
        (inner.Span.sp_counters = [ ("gadgets", 1); ("widgets", 7) ])
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_exception () =
  let p = Span.create () in
  (try
     Span.with_span p "raiser" (fun () ->
         Span.with_span p "deep" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_bool "spans closed on exception exit" true
    (List.for_all (fun s -> s.Span.sp_dur_ns >= 0) (Span.spans p));
  check_int "both recorded" 2 (List.length (Span.spans p))

let test_span_disabled () =
  let p = Span.disabled in
  check_bool "disabled" true (not (Span.enabled p));
  check_int "still transparent" 9 (Span.with_span p "x" (fun () -> 9));
  Span.count p "c" 1;
  let ph = Span.phase p "ph" in
  Span.start ph;
  Span.items ph 5;
  Span.stop ph;
  check_bool "no spans" true (Span.spans p = []);
  check_bool "no phases" true (Span.phase_totals p = [])

let test_phase_totals () =
  let p = Span.create () in
  let a = Span.phase p "alpha" and b = Span.phase p "beta" in
  for _ = 1 to 3 do
    Span.start a;
    Span.items a 10;
    Span.stop a
  done;
  Span.start b;
  Span.stop b;
  check_int "find-or-create aliases" 2 (List.length (Span.phase_totals p));
  let alpha =
    List.find (fun t -> t.Span.pt_name = "alpha") (Span.phase_totals p)
  in
  check_int "calls" 3 alpha.Span.pt_calls;
  check_int "items" 30 alpha.Span.pt_items;
  check_bool "time accumulated" true (alpha.Span.pt_ns >= 0);
  Span.reset p;
  check_bool "reset drops totals" true (Span.phase_totals p = [])

(* Worker domains record into their own buffers; the profiler merges
   them at read time — this is the lib/par cross-domain contract. *)
let test_cross_domain_merge () =
  let p = Span.create () in
  let tags =
    Pool.with_pool ~domains:2 ~profiler:p (fun pool ->
        Pool.map_list ~chunk:1 pool
          (fun i ->
            Span.with_span p (Printf.sprintf "task%d" i) (fun () ->
                Span.count p "n" i;
                (* Per-domain phase handles must be acquired on the
                   domain that uses them. *)
                let ph = Span.phase p "task.work" in
                Span.start ph;
                Span.items ph 1;
                Span.stop ph;
                (Domain.self () :> int)))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ])
  in
  let spans = Span.spans p in
  let named prefix =
    List.filter
      (fun s ->
        String.length s.Span.sp_name >= String.length prefix
        && String.sub s.Span.sp_name 0 (String.length prefix) = prefix)
      spans
  in
  check_int "every task span merged" 8 (List.length (named "task"));
  check_int "every chunk span merged" 8 (List.length (named "pool.chunk"));
  check_bool "all closed" true
    (List.for_all (fun s -> s.Span.sp_dur_ns >= 0) spans);
  check_bool "task spans nest inside chunk spans" true
    (List.for_all (fun s -> s.Span.sp_depth = 1) (named "task"));
  (* The "n" counters land on the task spans, one per task. *)
  let counted =
    List.filter_map
      (fun s -> List.assoc_opt "n" s.Span.sp_counters)
      (named "task")
  in
  check_int "counter sum across domains" 28 (List.fold_left ( + ) 0 counted);
  (* Phase totals merge the per-domain accumulators. *)
  let work =
    List.find (fun t -> t.Span.pt_name = "task.work") (Span.phase_totals p)
  in
  check_int "phase calls merged" 8 work.Span.pt_calls;
  check_int "phase items merged" 8 work.Span.pt_items;
  ignore tags;
  (* Which pool domain ran which chunk is scheduling-dependent (the
     caller may drain the whole queue before a worker wakes), so the
     guaranteed-cross-domain half of the test spawns a domain
     directly: its buffer must merge into the same profiler. *)
  let d =
    Domain.spawn (fun () ->
        Span.with_span p "spawned" (fun () -> Span.count p "n" 100);
        let ph = Span.phase p "task.work" in
        Span.start ph;
        Span.items ph 1;
        Span.stop ph)
  in
  Domain.join d;
  let spawned =
    List.find (fun s -> s.Span.sp_name = "spawned") (Span.spans p)
  in
  check_bool "spawned domain's span merged" true
    (spawned.Span.sp_counters = [ ("n", 100) ]
    && spawned.Span.sp_domain <> (Domain.self () :> int));
  let work =
    List.find (fun t -> t.Span.pt_name = "task.work") (Span.phase_totals p)
  in
  check_int "phase totals merge the spawned domain" 9 work.Span.pt_calls

let test_chrome_export () =
  let p = Span.create () in
  Span.with_span p "closed" (fun () -> Span.count p "k" 2);
  let path = Filename.temp_file "tbtso_span" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Export from inside an open span: it must come out as a "B"
         (unterminated) event, the closed one as an "X". *)
      Span.with_span p "open" (fun () ->
          let oc = open_out path in
          let w = Chrome.to_channel oc in
          Span.to_chrome p ~pid:7 w;
          Chrome.close w;
          close_out oc);
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.member "traceEvents" (Json.of_string text) with
      | Some (Json.List evs) ->
          let ph name =
            List.filter_map
              (fun e ->
                match (Json.member "name" e, Json.member "ph" e) with
                | Some (Json.String n), Some (Json.String p) when n = name ->
                    Some p
                | _ -> None)
              evs
          in
          check_bool "closed span is an X event" true (ph "closed" = [ "X" ]);
          check_bool "open span is a B event" true (ph "open" = [ "B" ]);
          let closed =
            List.find
              (fun e -> Json.member "name" e = Some (Json.String "closed"))
              evs
          in
          check_bool "counters exported as args" true
            (match Json.member "args" closed with
            | Some a -> Json.member "k" a = Some (Json.Int 2)
            | None -> false)
      | _ -> Alcotest.fail "not a trace_event document")

(* ------------------------------------------------------------------ *)
(* Differential: profiling never changes what the engines compute      *)
(* ------------------------------------------------------------------ *)

let diff_program =
  [
    [ Litmus.Store (0, 1); Litmus.Load (1, 0) ];
    [ Litmus.Store (1, 1); Litmus.Fence; Litmus.Wait 4; Litmus.Load (0, 0) ];
  ]

let test_profiler_differential () =
  List.iter
    (fun mode ->
      let plain = Litmus.explore ~mode diff_program in
      let off = Litmus.explore ~mode ~profiler:Span.disabled diff_program in
      let on = Litmus.explore ~mode ~profiler:(Span.create ()) diff_program in
      check_bool "explorer outcomes identical" true
        (plain.Litmus.outcomes = off.Litmus.outcomes
        && off.Litmus.outcomes = on.Litmus.outcomes);
      (* Every exploration statistic — not just the outcome set — must
         be identical up to wall time: the instrumentation wraps the
         phases, it must never perturb the search. *)
      let untimed (s : Litmus.stats) = { s with Litmus.elapsed = 0.0 } in
      check_bool "explorer stats identical" true
        (untimed plain.Litmus.stats = untimed off.Litmus.stats
        && untimed off.Litmus.stats = untimed on.Litmus.stats);
      let sat_plain = Axiomatic.explore ~mode diff_program in
      let sat_on =
        Axiomatic.explore ~mode ~profiler:(Span.create ()) diff_program
      in
      check_bool "sat outcomes identical" true
        (sat_plain.Axiomatic.outcomes = sat_on.Axiomatic.outcomes);
      check_int "sat conflicts identical"
        sat_plain.Axiomatic.stats.Axiomatic.conflicts
        sat_on.Axiomatic.stats.Axiomatic.conflicts;
      check_int "sat propagations identical"
        sat_plain.Axiomatic.stats.Axiomatic.propagations
        sat_on.Axiomatic.stats.Axiomatic.propagations)
    [ Litmus.M_sc; Litmus.M_tso; Litmus.M_tbtso 4 ]

let () =
  Alcotest.run "span"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and counters" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "disabled is inert" `Quick test_span_disabled;
          Alcotest.test_case "phase totals" `Quick test_phase_totals;
          Alcotest.test_case "cross-domain merge via pool" `Quick
            test_cross_domain_merge;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
        ] );
      ( "differential",
        [
          Alcotest.test_case "profiling changes nothing" `Quick
            test_profiler_differential;
        ] );
    ]
