(* The benchmark's workloads: set-up, the timed loop, the golden check,
   and the traced run that gives the per-layer numbers. *)

open Tsim
module Span = Tbtso_obs.Span
module Json = Tbtso_obs.Json

type kind =
  | Sim of {
      cells : run_ticks:int -> seed:int -> Cells.t list;
      run_ticks : int;  (** Cell length in the timed runs. *)
      golden_ticks : int;  (** Cell length of the golden digests. *)
    }
  | Check

type t = { name : string; kind : kind }

(* Cell lengths are chosen so that a round takes about a second: a run
   of BENCHMARK.json's 20 s holds ten rounds or more. *)
let all =
  [
    {
      name = "ht_read";
      kind = Sim { cells = Cells.ht_read; run_ticks = 150_000; golden_ticks = 40_000 };
    };
    {
      name = "ht_update";
      kind = Sim { cells = Cells.ht_update; run_ticks = 200_000; golden_ticks = 40_000 };
    };
    {
      name = "lock_spin";
      kind = Sim { cells = Cells.lock_spin; run_ticks = 2_000_000; golden_ticks = 250_000 };
    };
    { name = "litmus_sleep"; kind = Check };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Metric names and units, in the order they are printed. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("item_ms", "ms"); ("heap_mb_p50", "MiB") ]

let per_layer =
  [
    ("machine.self_s", "s");
    ("machine.effects", "count");
    ("machine.ns_per_effect", "ns");
    ("machine.minor_words_per_effect", "words");
    ("machine.sim_ticks", "ticks");
    ("machine.ticks_stepped", "count");
    ("machine.ff_share", "share");
    ("machine.ns_per_stepped_tick", "ns");
    ("machine.setup_s", "s");
    ("machine.grace_s", "s");
    ("machine.teardown_s", "s");
    ("machine.loads", "count");
    ("machine.stores", "count");
    ("machine.rmws", "count");
    ("machine.fences", "count");
    ("machine.cache_misses", "count");
    ("machine.drains", "count");
    ("machine.forced_drains", "count");
    ("body.self_s", "s");
    ("body.ns_per_op", "ns");
    ("body.minor_words_per_op", "words");
    ("heap.allocs", "count");
    ("heap.frees", "count");
    ("heap.peak_words", "words");
    ("sim.ops", "count");
    ("sim.fences_per_op", "1/op");
    ("sim.rmws_per_op", "1/op");
    ("sim.misses_per_op", "1/op");
    ("parse.s", "s");
    ("explore.s", "s");
    ("explore.states", "count");
    ("explore.states_per_s", "1/s");
    ("explore.minor_words_per_state", "words");
    ("explore.dedup_share", "share");
    ("explore.sleep_skips", "count");
    ("explore.zones_merged", "count");
    ("explore.expand_s", "s");
    ("explore.canon_s", "s");
    ("explore.intern_s", "s");
    ("explore.sleep_s", "s");
    ("sat.s", "s");
    ("sat.encode_s", "s");
    ("sat.propagate_s", "s");
    ("sat.analyze_s", "s");
    ("sat.simplify_s", "s");
    ("sat.propagations", "count");
    ("sat.conflicts", "count");
    ("sat.props_per_s", "1/s");
    ("items", "count");
    ("item_ms_p98", "ms");
    ("item_ms_max", "ms");
    ("trace.overhead_share", "share");
  ]

(* Sizes. [Tiny] is the self-test's: two cells of golden length (and
   only their golden digests), a few requests. *)

type scale = Full | Tiny

let windows_for = function Full -> 10_000 | Tiny -> 8

let setup_repeats = function Full -> 3 | Tiny -> 1

(* Requests in a traced run; the same number are replayed untraced. *)
let traced_requests scale ~seconds =
  match scale with Full -> max 50 (truncate (100. *. seconds)) | Tiny -> 3

let sized scale cells =
  match scale with Full -> cells | Tiny -> List.filteri (fun i _ -> i < 2) cells

(* Round [r] of a run with seed [seed] simulates the cells with seed
   [1000 * seed + r], so that a run averages over as many draws of the
   simulator's random choices as it runs cells: how long a cell takes
   depends on them (a lock_spin cell stopped inside a spin-wait steps
   through its whole grace period), and identical rounds would only
   repeat one draw. *)
let sim_cells scale ~cells ~run_ticks ~golden_ticks ~seed round =
  sized scale
    (cells
       ~run_ticks:(match scale with Full -> run_ticks | Tiny -> golden_ticks)
       ~seed:((1000 * seed) + round))

let modes = [ Litmus.M_sc; Litmus.M_tso; Litmus.M_tbtso 4; Litmus.M_tbtso 8 ]

(* ---------------------------------------------------------------- *)
(* Failure accounting                                                *)
(* ---------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let fail tally what =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "FAILED %s\n%!" what

(* A cell fails when it raises: Thread_failure, Use_after_free, Deadlock,
   Out_of_memory, or anything else. *)
let attempt tally ~id f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      fail tally (Printf.sprintf "%s: %s" id (Printexc.to_string e));
      None

(* A request fails when an oracle disagreement or a budget cut leaves
   any of its modes without a definite verdict. *)
let request_ok verdicts =
  List.for_all
    (fun v ->
      match Litmus_fanout.severity v with
      | `Disagree | `Inconclusive -> false
      | `Ok | `Violated -> true)
    verdicts

let count_request tally ~id verdicts =
  tally.attempted <- tally.attempted + 1;
  if not (request_ok verdicts) then
    fail tally
      (Printf.sprintf "%s: %s" id
         (String.concat ", "
            (List.map
               (fun (v : Litmus_fanout.verdict) ->
                 Litmus_parse.mode_id v.task.mode ^ " " ^ Litmus_fanout.verdict_string v)
               verdicts)))

(* The user path of [tbtso-litmus check --oracle both]: parse the file,
   then check it under every mode with both oracles. *)
let check_request ~id text =
  let test = Litmus_parse.parse text in
  Litmus_fanout.check ~oracle:Litmus_fanout.Both
    (List.map (fun mode -> { Litmus_fanout.path = id; test; mode }) modes)

(* What a replay must reproduce of a verdict: both oracles' answers and
   the explorer's (deterministic) state count. *)
let signature (v : Litmus_fanout.verdict) =
  ( Litmus_parse.mode_id v.task.mode,
    Option.map
      (fun (r : Litmus_parse.check_result) ->
        (r.holds, r.outcome_count, r.complete, r.stats.visited))
      v.result,
    Option.map
      (fun (s : Litmus_fanout.sat_check) -> (s.sat_holds, s.sat_outcome_count, s.sat_complete))
      v.sat,
    v.disagree )

(* ---------------------------------------------------------------- *)
(* Golden digests                                                    *)
(* ---------------------------------------------------------------- *)

let golden_cells ?(scale = Full) w =
  match w.kind with
  | Sim { cells; golden_ticks; _ } ->
      Some (golden_ticks, sized scale (cells ~run_ticks:golden_ticks ~seed:1))
  | Check -> None

(* Re-run the workload's golden cells and compare their digests with
   golden.json; every mismatch is a failed cell. *)
let check_golden ?scale tally w =
  match golden_cells ?scale w with
  | None -> ()
  | Some (ticks, cells) -> (
      match Golden.expected w.name with
      | None -> fail tally (w.name ^ ": no golden digests")
      | Some (gticks, _) when gticks <> ticks ->
          fail tally
            (Printf.sprintf "%s: golden digests are for run_ticks %d, cells run %d" w.name gticks
               ticks)
      | Some (_, digests) ->
          List.iter
            (fun (c : Cells.t) ->
              match attempt tally ~id:c.id (fun () -> Cells.run c) with
              | None -> ()
              | Some o -> (
                  match List.assoc_opt c.id digests with
                  | Some d when d = Cells.digest o -> ()
                  | Some _ | None ->
                      fail tally
                        (Printf.sprintf "%s %s: golden digest mismatch: %s" w.name c.id
                           (Cells.describe o))))
            cells)

(* ---------------------------------------------------------------- *)
(* Set-up                                                            *)
(* ---------------------------------------------------------------- *)

let now_s () = float_of_int (Span.now_ns ()) /. 1e9

let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

let ns_to_s ns = fi ns /. 1e9

type input = Cells of (int -> Cells.t list)  (** Cells of each round. *) | Requests of string array

(* The windows as litmus file text; only the text stays live. *)
let render_windows tally ~seed n =
  Gen.windows ~seed n (fun w ->
      (match Scenario.well_formed w with
      | Ok () -> ()
      | Error msg -> fail tally ("generated window is malformed: " ^ msg));
      Scenario.render w)

(* Input generation and one untimed warm-up item. For the simulator
   workloads the warm-up is the golden check, which is the same work in
   every run: a round at seed 1 and a tenth of the length (the cells'
   time at other seeds varies too much to time a set-up by). *)
let setup_once scale w tally ~seed =
  match w.kind with
  | Sim { cells; run_ticks; golden_ticks } ->
      check_golden ~scale tally w;
      Cells (sim_cells scale ~cells ~run_ticks ~golden_ticks ~seed)
  | Check ->
      let texts = render_windows tally ~seed (windows_for scale) in
      ignore (check_request ~id:"warm-up" texts.(0));
      Requests texts

(* Set up [setup_repeats] times, each from a compacted heap so that the
   time does not depend on where the collector is; the median time is
   [setup_s]. Every repetition checks the golden digests again. *)
let setup scale w tally ~seed =
  let rec go k times =
    Gc.compact ();
    let t0 = now_s () in
    let input = setup_once scale w tally ~seed in
    let times = (now_s () -. t0) :: times in
    if k <= 1 then (input, Stats.median times) else go (k - 1) times
  in
  go (setup_repeats scale) []

(* ---------------------------------------------------------------- *)
(* Timed run                                                         *)
(* ---------------------------------------------------------------- *)

type timed = {
  ops : int;  (** Simulated operations, or requests. *)
  elapsed : float;
  item_ms : float list;  (** Host time of each round, or each request. *)
  typical_ms : float;  (** Host time of a typical item. *)
  ops_per_s : float;
  heap_words : float list;  (** Major heap at the end of each major GC cycle. *)
}

(* Items until [seconds] have passed (at least one): an item is one
   round over the cells, or one request, in order, wrapping around. The
   heap is sampled when a major GC cycle ends, where its size is that of
   the live data and the collector's slack rather than of whatever
   garbage the last cell left.

   A typical request is the median one. A typical round is the sum over
   the cells of each cell's lower-quartile time, and its throughput the
   sum of their median operations over that sum. A cell's time has a
   floor set by its work and a tail of slow draws: a lock_spin cell
   that its round's seed stops inside a spin-wait steps tick by tick
   through its grace period, and the host is sometimes busy. Whole
   rounds vary with how many slow draws they hold, and a cell's median
   moves when its slow draws approach half; its lower quartile stays at
   the floor. *)
let timed tally input ~seconds =
  let samples = Hashtbl.create 32 in
  let item =
    match input with
    | Cells rounds ->
        fun k ->
          List.fold_left
            (fun n (c : Cells.t) ->
              let s = now_s () in
              let ops =
                match attempt tally ~id:c.id (fun () -> Cells.run c) with
                | None -> 0
                | Some o -> Cells.ops o
              in
              let prev = Option.value ~default:[] (Hashtbl.find_opt samples c.id) in
              Hashtbl.replace samples c.id ((now_s () -. s, fi ops) :: prev);
              n + ops)
            0 (rounds k)
    | Requests texts ->
        fun k ->
          let i = k mod Array.length texts in
          let id = Printf.sprintf "req%d" i in
          count_request tally ~id (check_request ~id texts.(i));
          1
  in
  let heap_words = ref [] in
  let alarm =
    Gc.create_alarm (fun () -> heap_words := fi (Gc.quick_stat ()).heap_words :: !heap_words)
  in
  let t0 = now_s () in
  let rec go k ops item_ms =
    let s = now_s () in
    let ops = ops + item k in
    let item_ms = ((now_s () -. s) *. 1000.) :: item_ms in
    if now_s () -. t0 < seconds then go (k + 1) ops item_ms else (ops, item_ms)
  in
  let ops, item_ms = go 0 0 [] in
  let elapsed = now_s () -. t0 in
  (* Ends a cycle, so that even a one-item run has a heap sample. *)
  Gc.full_major ();
  Gc.delete_alarm alarm;
  let typical_ms, ops_per_s =
    match input with
    | Cells _ ->
        let s, n =
          Hashtbl.fold
            (fun _ xs (s, n) ->
              ( s +. Stats.percentile (List.map fst xs) 25.,
                n +. Stats.median (List.map snd xs) ))
            samples (0., 0.)
        in
        (s *. 1000., n /. s)
    | Requests _ -> (Stats.median item_ms, fi ops /. elapsed)
  in
  { ops; elapsed; item_ms; typical_ms; ops_per_s; heap_words = !heap_words }

(* ---------------------------------------------------------------- *)
(* Traced run                                                        *)
(* ---------------------------------------------------------------- *)

let phase_s profiler name =
  match
    List.find_opt (fun (p : Span.phase_total) -> p.pt_name = name) (Span.phase_totals profiler)
  with
  | Some p -> float_of_int p.pt_ns /. 1e9
  | None -> 0.

(* Per-layer values of a traced simulator pass. *)
let sim_layers (a : Traced.sim) =
  [
    ("machine.self_s", ns_to_s a.machine_ns);
    ("machine.effects", fi a.effects);
    ("machine.ns_per_effect", ratio (fi a.machine_ns) (fi a.effects));
    ("machine.minor_words_per_effect", ratio (fi a.machine_words) (fi a.effects));
    ("machine.sim_ticks", fi a.sim_ticks);
    ("machine.ticks_stepped", fi a.stepped);
    ("machine.ff_share", ratio (fi (a.sim_ticks - a.stepped)) (fi a.sim_ticks));
    ("machine.ns_per_stepped_tick", ratio (fi a.machine_ns) (fi a.stepped));
    ("machine.setup_s", ns_to_s a.setup_ns);
    ("machine.grace_s", ns_to_s a.grace_ns);
    ("machine.teardown_s", ns_to_s a.teardown_ns);
    ("machine.loads", fi a.loads);
    ("machine.stores", fi a.stores);
    ("machine.rmws", fi a.rmws);
    ("machine.fences", fi a.fences);
    ("machine.cache_misses", fi a.cache_misses);
    ("machine.drains", fi a.drains);
    ("machine.forced_drains", fi a.forced_drains);
    ("body.self_s", ns_to_s a.body_ns);
    ("body.ns_per_op", ratio (fi a.body_ns) (fi a.ops));
    ("body.minor_words_per_op", ratio (fi a.body_words) (fi a.ops));
    ("heap.allocs", fi a.heap_allocs);
    ("heap.frees", fi a.heap_frees);
    ("heap.peak_words", fi a.heap_peak_words);
    ("sim.ops", fi a.ops);
    ("sim.fences_per_op", ratio (fi a.fences) (fi a.ops));
    ("sim.rmws_per_op", ratio (fi a.rmws) (fi a.ops));
    ("sim.misses_per_op", ratio (fi a.cache_misses) (fi a.ops));
  ]

(* Per-layer values of a traced checker pass. *)
let check_layers (a : Traced.check) profiler =
  let explore_s = ns_to_s a.explore_ns and sat_s = ns_to_s a.sat_ns in
  [
    ("parse.s", ns_to_s a.parse_ns);
    ("explore.s", explore_s);
    ("explore.states", fi a.states);
    ("explore.states_per_s", ratio (fi a.states) explore_s);
    ("explore.minor_words_per_state", ratio (fi a.explore_words) (fi a.states));
    ("explore.dedup_share", ratio (fi a.dedup_hits) (fi (a.states + a.dedup_hits)));
    ("explore.sleep_skips", fi a.sleep_skips);
    ("explore.zones_merged", fi a.zones_merged);
    ("explore.expand_s", phase_s profiler "explore.expand");
    ("explore.canon_s", phase_s profiler "explore.canon");
    ("explore.intern_s", phase_s profiler "explore.intern");
    ("explore.sleep_s", phase_s profiler "explore.sleep");
    ("sat.s", sat_s);
    ("sat.encode_s", phase_s profiler "sat.encode");
    ("sat.propagate_s", phase_s profiler "sat.propagate");
    ("sat.analyze_s", phase_s profiler "sat.analyze");
    ("sat.simplify_s", phase_s profiler "sat.simplify");
    ("sat.propagations", fi a.propagations);
    ("sat.conflicts", fi a.conflicts);
    ("sat.props_per_s", ratio (fi a.propagations) sat_s);
  ]

(* Every item traced and untraced, alternating which goes first so that
   heap growth over the pass does not favour one side: the untraced
   result must equal the traced one, and the two times give the tracing
   overhead. Returns the per-layer values, the traced time and the
   untraced item times, in seconds. *)
let traced_pass scale tally input ~profiler ~seconds =
  let paired items ~traced ~untraced ~same =
    let t_total = ref 0. and u_times = ref [] in
    List.iteri
      (fun i x ->
        let time f =
          let s = now_s () in
          let r = f x in
          (r, now_s () -. s)
        in
        let (t, ts), (u, us) =
          if i mod 2 = 0 then
            let t = time traced in
            (t, time untraced)
          else
            let u = time untraced in
            (time traced, u)
        in
        t_total := !t_total +. ts;
        u_times := us :: !u_times;
        same x t u)
      items;
    (!t_total, List.rev !u_times)
  in
  match input with
  | Cells rounds ->
      let a = Traced.sim () in
      let traced_s, untraced =
        paired (rounds 0)
          ~traced:(fun (c : Cells.t) -> attempt tally ~id:c.id (fun () -> Traced.cell a profiler c))
          ~untraced:Cells.run
          ~same:(fun c t u ->
            match t with
            | Some t when Cells.describe t <> Cells.describe u ->
                fail tally
                  (Printf.sprintf "%s: traced %s, untraced %s" c.id (Cells.describe t)
                     (Cells.describe u))
            | Some _ | None -> ())
      in
      (sim_layers a, traced_s, untraced)
  | Requests texts ->
      let a = Traced.check () in
      let n = min (Array.length texts) (traced_requests scale ~seconds) in
      let id i = Printf.sprintf "req%d" i in
      let traced_s, untraced =
        paired (List.init n Fun.id)
          ~traced:(fun i -> Traced.request a profiler ~id:(id i) ~modes texts.(i))
          ~untraced:(fun i -> check_request ~id:(id i) texts.(i))
          ~same:(fun i t u ->
            count_request tally ~id:(id i) t;
            if List.map signature t <> List.map signature u then
              fail tally (id i ^ ": traced verdicts differ from Litmus_fanout.check"))
      in
      (check_layers a profiler, traced_s, untraced)

(* ---------------------------------------------------------------- *)
(* Runs                                                              *)
(* ---------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** Human-readable lines printed before the JSON. *)
}

let with_units table values =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name values), unit))
    table

let tail_note item_ms =
  let n = List.length item_ms in
  match Stats.tail_percentile n with
  | Some p ->
      Printf.sprintf "item time p%g = %.3f ms, max %.3f ms (n = %d items)" p
        (Stats.percentile item_ms p)
        (Stats.percentile item_ms 100.)
        n
  | None ->
      Printf.sprintf "item time max %.3f ms (n = %d items, too few for a tail percentile)"
        (Stats.percentile item_ms 100.)
        n

(* [trace_file]: where a traced run writes its Chrome trace. *)
let run ?trace_file ~scale w ~seed ~seconds ~trace =
  let tally = tally () in
  let input, setup_s = setup scale w tally ~seed in
  let seconds = float_of_int seconds in
  let values, notes =
    if not trace then begin
      let t = timed tally input ~seconds in
      let mib words = words *. 8. /. 1048576. in
      ( [
          ("setup_s", setup_s);
          ("ops_per_s", t.ops_per_s);
          ("item_ms", t.typical_ms);
          ("heap_mb_p50", mib (Stats.median t.heap_words));
        ],
        [
          Printf.sprintf "%d %s in %.3f s; %s" t.ops
            (match w.kind with Sim _ -> "simulated ops" | Check -> "requests")
            t.elapsed (tail_note t.item_ms);
          Printf.sprintf "major heap at %d cycle ends: median %.1f MiB, max %.1f MiB; top %.1f MiB"
            (List.length t.heap_words)
            (mib (Stats.median t.heap_words))
            (mib (Stats.percentile t.heap_words 100.))
            (mib (fi (Gc.quick_stat ()).top_heap_words));
        ] )
    end
    else begin
      let profiler = Span.create () in
      let layers, traced_s, untraced = traced_pass scale tally input ~profiler ~seconds in
      let item_ms = List.map (fun t -> t *. 1000.) untraced in
      let untraced_s = List.fold_left ( +. ) 0. untraced in
      let trace_note =
        match trace_file with
        | None -> []
        | Some path ->
            let oc = open_out path in
            let wr = Tbtso_obs.Chrome.to_channel oc in
            Span.to_chrome profiler ~pid:1 wr;
            Tbtso_obs.Chrome.close wr;
            close_out oc;
            [ "chrome trace: " ^ path ]
      in
      ( layers
        @ [
            ("items", fi (List.length untraced));
            ("item_ms_p98", Stats.percentile item_ms 98.);
            ("item_ms_max", Stats.percentile item_ms 100.);
            ("trace.overhead_share", ratio traced_s untraced_s -. 1.);
          ],
        Printf.sprintf "traced %.3f s, untraced replay %.3f s; %s" traced_s untraced_s
          (tail_note item_ms)
        :: trace_note )
    end
  in
  {
    correct = tally.failed = 0;
    attempted = tally.attempted;
    failed = tally.failed;
    metrics = with_units (if trace then per_layer else end_to_end) values;
    notes;
  }

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value, unit) ->
               (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
             r.metrics) );
    ]
