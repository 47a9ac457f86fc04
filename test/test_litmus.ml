(* Exhaustive litmus tests: these check the memory-model semantics by
   enumerating every interleaving and drain schedule, including the paper's
   Section 3 flag-principle claims. *)

open Tsim
open Litmus
open Programs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Addresses and registers used by the classic tests. *)
let x = 0
let y = 1
let r0 = 0
let r1 = 1

(* Store-buffering (SB): the litmus test distinguishing TSO from SC.
     T0: x := 1; r0 := y          T1: y := 1; r1 := x *)
let sb = [ [ Store (x, 1); Load (y, r0) ]; [ Store (y, 1); Load (x, r1) ] ]

let sb_fenced =
  [ [ Store (x, 1); Fence; Load (y, r0) ]; [ Store (y, 1); Fence; Load (x, r1) ] ]

let both_zero (o : outcome) = o.regs.(0).(r0) = 0 && o.regs.(1).(r1) = 0

let test_sb_tso_allows_00 () =
  let outcomes = enumerate ~mode:M_tso sb in
  check_bool "TSO admits (0,0)" true (exists outcomes both_zero)

let test_sb_sc_forbids_00 () =
  let outcomes = enumerate ~mode:M_sc sb in
  check_bool "SC forbids (0,0)" false (exists outcomes both_zero)

let test_sb_fenced_forbids_00 () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode sb_fenced in
      check_bool "fenced SB forbids (0,0)" false (exists outcomes both_zero))
    [ M_sc; M_tso; M_tbtso 3 ]

let test_sb_tbtso_allows_00 () =
  (* The Δ bound alone does not restore SC: without the wait, (0,0)
     remains observable. *)
  let outcomes = enumerate ~mode:(M_tbtso 4) sb in
  check_bool "TBTSO alone admits (0,0)" true (exists outcomes both_zero)

(* Message passing (MP): TSO does not reorder stores with stores or loads
   with loads, so seeing the flag implies seeing the data.
     T0: x := 1; y := 1           T1: r0 := y; r1 := x *)
let mp = [ [ Store (x, 1); Store (y, 1) ]; [ Load (y, r0); Load (x, r1) ] ]

let mp_violation (o : outcome) = o.regs.(1).(r0) = 1 && o.regs.(1).(r1) = 0

let test_mp_tso () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode mp in
      check_bool "MP violation impossible" false (exists outcomes mp_violation))
    [ M_sc; M_tso; M_tbtso 2 ]

(* Store-to-load forwarding: a thread always sees its own latest store. *)
let forwarding = [ [ Store (x, 1); Load (x, r0) ] ]

let test_forwarding () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode forwarding in
      check_bool "sees own store" true (for_all outcomes (fun o -> o.regs.(0).(r0) = 1)))
    [ M_sc; M_tso; M_tbtso 2 ]

(* Final memory state: all buffers drain eventually. *)
let test_final_memory () =
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode sb in
      check_bool "memory = (1,1) finally" true
        (for_all outcomes (fun o -> o.mem.(x) = 1 && o.mem.(y) = 1)))
    [ M_sc; M_tso; M_tbtso 3 ]

(* --- The paper's Section 3 constructions --- *)

(* Symmetric flag principle (both fence): at least one thread sees the
   other's flag. *)
let flag_symmetric =
  [
    [ Store (x, 1); Fence; Load (y, r0) ];
    [ Store (y, 1); Fence; Load (x, r1) ];
  ]

let test_flag_symmetric () =
  let outcomes = enumerate ~mode:M_tso flag_symmetric in
  check_bool "someone sees a flag" true
    (for_all outcomes (fun o -> o.regs.(0).(r0) = 1 || o.regs.(1).(r1) = 1))

(* TBTSO flag principle (Section 3): T0 is fence-free; T1 fences and then
   waits Δ time units before looking at T0's flag.

     T0: flag0 := 1;        r0 := flag1
     T1: flag1 := 1; fence; wait Δ; r1 := flag0

   Claim: under TBTSO[Δ] it is impossible that both threads miss the
   other's flag. *)
let tbtso_flag delta =
  [
    [ Store (x, 1); Load (y, r0) ];
    [ Store (y, 1); Fence; Wait delta; Load (x, r1) ];
  ]

(* The flag protocol with a third thread that stores to address 2 and
   reads x. *)
let tbtso_flag3 delta = tbtso_flag delta @ [ [ Store (2, 1); Load (x, r0) ] ]

let test_tbtso_flag_principle () =
  List.iter
    (fun delta ->
      let outcomes = enumerate ~mode:(M_tbtso delta) (tbtso_flag delta) in
      check_bool
        (Printf.sprintf "flag principle holds for delta=%d" delta)
        false (exists outcomes both_zero))
    [ 1; 2; 3; 5 ]

let test_tbtso_flag_principle_breaks_under_tso () =
  (* The same fence-free program under unbounded TSO: waiting does not
     help, (0,0) is observable. This is why the Δ bound is essential. *)
  let outcomes = enumerate ~mode:M_tso (tbtso_flag 5) in
  check_bool "unbounded TSO defeats the wait" true (exists outcomes both_zero)

let test_tbtso_flag_requires_full_wait () =
  (* Waiting less than Δ is unsound: with Δ=8 but only a 1-tick wait,
     (0,0) becomes observable again. (The threshold is not at wait < Δ
     exactly because every instruction costs a tick of its own, which
     pads short waits; Δ=8 puts us clearly past it.) *)
  let delta = 8 in
  let program =
    [
      [ Store (x, 1); Load (y, r0) ];
      [ Store (y, 1); Fence; Wait 1; Load (x, r1) ];
    ]
  in
  let outcomes = enumerate ~mode:(M_tbtso delta) program in
  check_bool "short wait is unsound" true (exists outcomes both_zero)

let test_tbtso_flag_requires_fence () =
  (* Dropping T1's fence is also unsound: T1's own flag store can linger
     in its buffer through the wait, so the Δ wait no longer covers
     stores of T0 issued just before T1's store drains. Requires Δ large
     enough to dominate per-instruction tick slack (Δ ≥ 5 here). *)
  let delta = 6 in
  let program =
    [
      [ Store (x, 1); Load (y, r0) ];
      [ Store (y, 1); Wait delta; Load (x, r1) ];
    ]
  in
  let outcomes = enumerate ~mode:(M_tbtso delta) program in
  check_bool "fence-free slow path is unsound" true (exists outcomes both_zero)

(* Loadeq conditional support. *)
let test_loadeq () =
  (* T0: if x = 0 then r0 := 7 else r0 := 9 — encoded with Loadeq skip. *)
  let program =
    [ [ Loadeq (x, 0, 1); Store (y, 9); Store (y, 7) ] ]
    (* if x=0 skip "Store y 9" then execute "Store y 7"; else run both,
       leaving y = 7 either way... so distinguish via different slots: *)
  in
  ignore program;
  let program =
    [ [ Loadeq (x, 0, 1); Load (y, r0); Wait 0 ] ]
    (* if x = 0: skip the load, r0 stays 0. *)
  in
  let outcomes = enumerate ~mode:M_sc program in
  check_bool "branch taken" true (for_all outcomes (fun o -> o.regs.(0).(r0) = 0))

(* --- Property-based model relationships --- *)

let instr_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a v -> Store (a, 1 + v)) (int_bound 1) (int_bound 2));
        (4, map2 (fun a r -> Load (a, r)) (int_bound 1) (int_bound 2));
        (1, return Fence);
        (1, map (fun d -> Wait (1 + d)) (int_bound 2));
        (1, map2 (fun a r -> Cas (a, 0, 1, r)) (int_bound 1) (int_bound 2));
      ])

let program_gen =
  QCheck.Gen.(
    map2
      (fun t0 t1 -> [ t0; t1 ])
      (list_size (int_range 1 4) instr_gen)
      (list_size (int_range 1 4) instr_gen))

let program_arb = QCheck.make ~print:print_program program_gen

let subset o1 o2 = List.for_all (fun o -> List.mem o o2) o1

let prop_sc_subset_tbtso =
  QCheck.Test.make ~name:"SC outcomes ⊆ TBTSO outcomes" ~count:60 program_arb (fun p ->
      subset (enumerate ~mode:M_sc p) (enumerate ~mode:(M_tbtso 3) p))

let prop_tbtso_subset_tso =
  QCheck.Test.make ~name:"TBTSO outcomes ⊆ TSO outcomes" ~count:60 program_arb (fun p ->
      subset (enumerate ~mode:(M_tbtso 3) p) (enumerate ~mode:M_tso p))

let prop_tbtso_monotone_in_delta =
  QCheck.Test.make ~name:"TBTSO[Δ1] ⊆ TBTSO[Δ2] for Δ1 ≤ Δ2" ~count:40 program_arb
    (fun p -> subset (enumerate ~mode:(M_tbtso 2) p) (enumerate ~mode:(M_tbtso 5) p))

(* Run an arbitrary straight-line litmus program on the effects machine
   under [cfg], seeded and jittered, and return its outcome in the
   checker's format. The machine has no conditional load: a [Loadeq]
   is rejected rather than run as some other program. *)
let machine_outcome cfg ~seed program =
  let m = Machine.create Config.(with_jitter 0.4 (with_seed (Int64.of_int seed) cfg)) in
  let base = Machine.alloc_global m 64 in
  let addr a = base + (a * 8) in
  let nthreads = List.length program in
  let regs = Array.init nthreads (fun _ -> Array.make 4 0) in
  List.iteri
    (fun tid instrs ->
      ignore
        (Machine.spawn m (fun () ->
             List.iter
               (function
                 | Store (a, v) -> Sim.store (addr a) v
                 | Load (a, r) -> regs.(tid).(r) <- Sim.load (addr a)
                 | Loadeq (_, _, _) -> invalid_arg "machine_outcome: Loadeq"
                 | Fence -> Sim.fence ()
                 | Wait d -> Sim.stall_for d
                 | Cas (a, e, d, r) ->
                     regs.(tid).(r) <-
                       (if Sim.cas (addr a) ~expected:e ~desired:d then 1 else 0))
               instrs)))
    program;
  ignore (Machine.run m);
  Machine.drain_all m;
  let mem = Array.init 4 (fun a -> Memory.read (Machine.memory m) (addr a)) in
  { regs; mem }

let tso_machine = Config.(with_consistency Tso default)

let hw_machine =
  Config.(
    with_drain Drain_adversarial
      (with_consistency (Tbtso_hw { tau = 50; quiesce = 20 }) default))

let prop_hw_machine_subset_of_tso =
  (* The Section 6.1 mechanism is a refinement of TSO: everything it
     produces is TSO-reachable. *)
  QCheck.Test.make ~name:"Tbtso_hw outcomes ⊆ TSO outcomes" ~count:40
    QCheck.(pair program_arb (int_range 1 1_000_000))
    (fun (p, seed) -> List.mem (machine_outcome hw_machine ~seed p) (enumerate ~mode:M_tso p))

let prop_machine_subset_of_checker_random =
  (* For random programs, every machine execution's outcome must be
     reachable in the exhaustive checker's TSO state space. *)
  QCheck.Test.make ~name:"machine outcomes ⊆ checker outcomes (random programs)" ~count:50
    QCheck.(pair program_arb (int_range 1 1_000_000))
    (fun (p, seed) ->
      let o = machine_outcome tso_machine ~seed p in
      let reachable = enumerate ~mode:M_tso p in
      List.mem o reachable)

let prop_machine_agrees_with_checker =
  (* Randomized machine runs of the SB litmus only produce outcomes the
     exhaustive checker declares reachable under TSO. *)
  QCheck.Test.make ~name:"machine outcomes ⊆ checker outcomes (SB)" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let cfg =
        Config.(
          with_jitter 0.4
            (with_seed (Int64.of_int seed) (with_consistency Tso default)))
      in
      let m = Machine.create cfg in
      let g = Machine.alloc_global m 16 in
      let a = ref (-1) and b = ref (-1) in
      ignore
        (Machine.spawn m (fun () ->
             Sim.store g 1;
             a := Sim.load (g + 8)));
      ignore
        (Machine.spawn m (fun () ->
             Sim.store (g + 8) 1;
             b := Sim.load g));
      ignore (Machine.run m);
      let reachable = enumerate ~mode:M_tso sb in
      List.exists
        (fun (o : outcome) -> o.regs.(0).(r0) = !a && o.regs.(1).(r1) = !b)
        reachable)

(* --- CAS in the checker --- *)

let test_cas_atomicity () =
  (* Two CASes 0->own-id on the same cell: exactly one succeeds, under
     every model. *)
  let program = [ [ Cas (x, 0, 1, r0) ]; [ Cas (x, 0, 2, r0) ] ] in
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode program in
      check_bool "exactly one winner" true
        (for_all outcomes (fun o -> o.regs.(0).(r0) + o.regs.(1).(r0) = 1));
      check_bool "memory matches winner" true
        (for_all outcomes (fun o ->
             o.mem.(x) = if o.regs.(0).(r0) = 1 then 1 else 2)))
    [ M_sc; M_tso; M_tbtso 3; M_tsos 1 ]

let test_cas_drains_buffer_litmus () =
  (* A store followed by a CAS to another cell: observing the CAS's
     effect implies the earlier store is visible (locked ops flush). *)
  let program =
    [ [ Store (x, 1); Cas (y, 0, 1, r0) ]; [ Load (y, r0); Load (x, r1) ] ]
  in
  List.iter
    (fun mode ->
      let outcomes = enumerate ~mode program in
      check_bool "y=1 implies x visible" false
        (exists outcomes (fun o -> o.regs.(1).(r0) = 1 && o.regs.(1).(r1) = 0)))
    [ M_tso; M_tbtso 3 ]

let test_tas_lock_litmus () =
  (* One round of test-and-set locking per thread: both cannot win. *)
  let program =
    [
      [ Cas (x, 0, 1, r0); Store (y, 1) ];
      [ Cas (x, 0, 1, r0); Store (2, 1) (* z *) ];
    ]
  in
  let outcomes = enumerate ~mode:M_tso program in
  check_bool "mutual exclusion of winners" true
    (for_all outcomes (fun o -> not (o.regs.(0).(r0) = 1 && o.regs.(1).(r0) = 1)))

(* --- TSO[S]: the spatially bounded model (paper Section 8) --- *)

let test_tsos_flag_principle_still_broken () =
  (* The paper's core Section 8 argument: a spatial bound cannot make the
     fence-free flag principle safe, because a quiet thread's store can
     stay buffered forever. Exhaustively checked. *)
  List.iter
    (fun s ->
      let outcomes = enumerate ~mode:(M_tsos s) (tbtso_flag 5) in
      check_bool
        (Printf.sprintf "flag principle broken under TSO[S=%d]" s)
        true (exists outcomes both_zero))
    [ 1; 2; 3 ]

let test_tsos_spatial_flush () =
  (* Where TSO[S] IS stronger than TSO: issuing S further stores forces
     the oldest one out. T0: x:=1; y:=1; r0:=z || T1: z:=1; fence; r1:=x.
     Under S=1, enqueueing y commits x, which precedes T0's read of z;
     so r0 = 0 (read before T1's fenced store) implies T1's later read
     of x sees 1. Under unbounded TSO both can read 0. *)
  let program =
    [
      [ Store (x, 1); Store (1, 1) (* y *); Load (2, r0) (* z *) ];
      [ Store (2, 1); Fence; Load (x, r1) ];
    ]
  in
  let bad (o : outcome) = o.regs.(0).(r0) = 0 && o.regs.(1).(r1) = 0 in
  check_bool "observable under unbounded TSO" true (exists (enumerate ~mode:M_tso program) bad);
  check_bool "impossible under TSO[S=1]" false
    (exists (enumerate ~mode:(M_tsos 1) program) bad)

let prop_tsos_subset_tso =
  QCheck.Test.make ~name:"TSO[S] outcomes ⊆ TSO outcomes" ~count:50 program_arb (fun p ->
      subset (enumerate ~mode:(M_tsos 2) p) (enumerate ~mode:M_tso p))

let prop_sc_subset_tsos =
  QCheck.Test.make ~name:"SC outcomes ⊆ TSO[S] outcomes" ~count:50 program_arb (fun p ->
      subset (enumerate ~mode:M_sc p) (enumerate ~mode:(M_tsos 1) p))

(* --- Differential testing against the retained reference enumerator --- *)

(* Every mode, with the TBTSO bound swept over the full Δ ∈ {1..8}
   window the zone caps are derived for. *)
let diff_modes =
  [ M_sc; M_tso; M_tsos 1; M_tsos 2 ] @ List.init 8 (fun i -> M_tbtso (i + 1))

let prop_new_equals_reference =
  (* The core soundness property of this module: the scaled explorer and
     the naive reference enumerator agree on the exact outcome set under
     every model. *)
  QCheck.Test.make ~name:"explore ≡ reference on random programs" ~count:60
    program_arb3 (fun p ->
      List.for_all
        (fun mode -> enumerate ~mode p = enumerate_reference ~mode p)
        diff_modes)

let iriw =
  [
    [ Store (x, 1) ];
    [ Store (y, 1) ];
    [ Load (x, r0); Load (y, r1) ];
    [ Load (y, r0); Load (x, r1) ];
  ]

let test_iriw_visited_pinned () =
  (* The sleep-set explorer's reduction on 2-address IRIW, pinned
     exactly: any change to the independence rules, zone caps or
     dedup shows up here as a changed count, with the outcome set
     held to the reference enumerator's. *)
  List.iter
    (fun (mode, visited) ->
      let name = Litmus_parse.mode_id mode in
      let r = explore ~mode iriw in
      check_int (name ^ " visited") visited r.stats.visited;
      check_int (name ^ " outcomes") 15 (List.length r.outcomes);
      check_bool (name ^ " ≡ reference") true
        (r.outcomes = enumerate_reference ~mode iriw))
    [ (M_sc, 97); (M_tso, 164); (M_tbtso 4, 362); (M_tsos 2, 164) ]

let test_diff_boundary_grid () =
  (* Wait-vs-Δ boundary sweep on the flag protocol (with and without the
     fence), including waits well past the explorer's wait cap: the
     region where the flag principle tips from violated to holding. *)
  List.iter
    (fun delta ->
      List.iter
        (fun w ->
          List.iter
            (fun fenced ->
              let t1 =
                if fenced then [ Store (y, 1); Fence; Wait w; Load (x, r1) ]
                else [ Store (y, 1); Wait w; Load (x, r1) ]
              in
              let p = [ [ Store (x, 1); Load (y, r0) ]; t1 ] in
              let mode = M_tbtso delta in
              let a = enumerate ~mode p and b = enumerate_reference ~mode p in
              Alcotest.(check bool)
                (Printf.sprintf "w=%d Δ=%d fenced=%b" w delta fenced)
                true (a = b))
            [ true; false ])
        [ 1; 2; 3; 5; 8; 25; 40 ])
    [ 1; 2; 4; 7; 11 ];
  (* The checker's headline programs at toy and paper scale; the
     reference takes ~0.1 s on the flag at Δ = 100, and far longer on
     the 3-thread flag there, so that one is diffed at Δ = 4 only. *)
  List.iter
    (fun (name, mode, p) ->
      check_bool
        (Printf.sprintf "%s %s ≡ reference" name (Litmus_parse.mode_id mode))
        true
        (enumerate ~mode p = enumerate_reference ~mode p))
    ([ ("SB", M_sc, sb); ("SB", M_tso, sb); ("flag3", M_tbtso 4, tbtso_flag3 4) ]
    @ List.concat_map
        (fun d ->
          [
            ("SB", M_tbtso d, sb);
            ("MP", M_tbtso d, mp);
            ("flag", M_tbtso d, tbtso_flag d);
          ])
        [ 4; 100 ])

let test_recursion_killer () =
  (* A wait of 200k ticks: the seed's recursive tick-by-tick explorer
     dies on this shape (hundreds of thousands of stack frames / states);
     the worklist explorer with time-leap aging answers instantly. *)
  let p = [ [ Wait 200_000; Store (x, 1) ]; [ Wait 150_000; Store (y, 1) ] ] in
  let r = explore ~mode:M_tso p in
  check_bool "completes" true r.complete;
  check_bool "leaps taken" true (r.stats.time_leaps >= 1);
  check_bool "tiny state count" true (r.stats.visited < 1_000);
  check_bool "single outcome" true (List.length r.outcomes = 1);
  (* Huge wait racing concurrently-active threads: caught by the wait
     cap rather than the quiet-stretch leap. *)
  let q =
    [ [ Wait 1_000_000; Store (x, 1); Load (y, r0) ]; [ Store (y, 1); Load (x, r1) ] ]
  in
  List.iter
    (fun (mode, visited) ->
      let r = explore ~mode q in
      check_bool "completes under cap" true r.complete;
      check_int "state count under cap" visited r.stats.visited)
    [ (M_tso, 71); (M_tbtso 4, 144) ]

let test_paper_scale_delta () =
  (* Acceptance bar from the issue: SB and the flag protocol at the
     paper's Δ = 100 and Δ = 500 within the default budget. *)
  List.iter
    (fun delta ->
      let r = explore ~mode:(M_tbtso delta) sb in
      check_bool (Printf.sprintf "SB Δ=%d completes" delta) true r.complete;
      let flag = tbtso_flag delta in
      let r = explore ~mode:(M_tbtso delta) flag in
      check_bool (Printf.sprintf "flag Δ=%d completes" delta) true r.complete;
      check_bool
        (Printf.sprintf "flag principle Δ=%d" delta)
        false
        (exists r.outcomes both_zero))
    [ 100; 500 ]

(* --- Corpus differential: zone explorer vs the reference oracle --- *)

let test_corpus_matches_reference () =
  (* The acceptance bar for the zone abstraction: byte-identical outcome
     sets over the whole corpus, in every mode. *)
  match corpus_paths () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      check_bool "wait=Δ regression file present" true
        (List.exists
           (fun p -> Filename.basename p = "tbtso_flag_wait_eq_delta.litmus")
           paths);
      List.iter
        (fun path ->
          let test = Litmus_parse.parse (read_file path) in
          List.iter
            (fun mode ->
              check_bool
                (Printf.sprintf "%s under %s" (Filename.basename path)
                   (Litmus_parse.mode_id mode))
                true
                (enumerate ~mode test.program
                = enumerate_reference ~mode test.program))
            diff_modes)
        paths

(* --- SAT oracle differential: axiomatic vs operational semantics --- *)

(* The acceptance grid from the issue: the declarative (SAT) oracle and
   the operational explorer must produce identical outcome sets in
   every mode, over random programs and the whole corpus
   ([sat_corpus_modes], in Programs). *)

let prop_sat_equals_explorer =
  QCheck.Test.make ~name:"SAT oracle ≡ explore ≡ reference on random programs"
    ~count:40 program_arb3 (fun p ->
      List.for_all
        (fun mode ->
          let sat = Axiomatic.enumerate ~mode p in
          sat = enumerate ~mode p && sat = enumerate_reference ~mode p)
        diff_modes)

let test_corpus_matches_sat () =
  match corpus_paths () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      List.iter
        (fun path ->
          let test = Litmus_parse.parse (read_file path) in
          List.iter
            (fun mode ->
              let sat = Axiomatic.explore ~mode test.program in
              check_bool
                (Printf.sprintf "%s complete under %s" (Filename.basename path)
                   (Litmus_parse.mode_id mode))
                true sat.Axiomatic.complete;
              check_bool
                (Printf.sprintf "%s SAT ≡ explorer under %s"
                   (Filename.basename path) (Litmus_parse.mode_id mode))
                true
                (sat.Axiomatic.outcomes = enumerate ~mode test.program))
            sat_corpus_modes)
        paths

(* --- Generated-corpus differential: litmus/gen (Tsim.Scenario) --- *)

(* The scenario compiler emits bounded client windows of the lib/core
   algorithms into litmus/gen (see `tbtso-litmus scenarios emit`); the
   committed files get the same three-way oracle treatment as the
   hand-written classics. *)

let test_gen_corpus_matches_oracles () =
  (* Explorer ≡ reference enumerator ≡ SAT oracle on every generated
     file, across the mode grid. *)
  match gen_corpus_paths () with
  | [] -> Alcotest.fail "litmus/gen corpus not found (missing dune deps?)"
  | paths ->
      check_bool "one file per registry scenario" true
        (List.length paths = List.length Scenario.registry);
      List.iter
        (fun path ->
          let test = Litmus_parse.parse (read_file path) in
          List.iter
            (fun mode ->
              let name suffix =
                Printf.sprintf "%s %s under %s" (Filename.basename path) suffix
                  (Litmus_parse.mode_id mode)
              in
              let base = enumerate ~mode test.program in
              check_bool (name "explorer ≡ reference") true
                (base = enumerate_reference ~mode test.program);
              let sat = Axiomatic.explore ~mode test.program in
              check_bool (name "SAT complete") true sat.Axiomatic.complete;
              check_bool (name "explorer ≡ SAT") true
                (base = sat.Axiomatic.outcomes))
            [ M_sc; M_tso; M_tsos 2; M_tbtso 1; M_tbtso 4; M_tbtso 8 ])
        paths

let test_gen_corpus_fanout_parallel () =
  (* The fanout driver over litmus/gen: sequential ≡ -j 2, verdict for
     verdict. *)
  match gen_corpus_paths () with
  | [] -> Alcotest.fail "litmus/gen corpus not found (missing dune deps?)"
  | paths ->
      let tasks = Litmus_fanout.load ~modes:sat_corpus_modes paths in
      let signature vs =
        List.map
          (fun (v : Litmus_fanout.verdict) ->
            ( v.Litmus_fanout.task.Litmus_fanout.path,
              Litmus_parse.mode_id v.Litmus_fanout.task.Litmus_fanout.mode,
              Litmus_fanout.verdict_string v,
              (match v.Litmus_fanout.result with
              | Some r ->
                  Some
                    ( r.Litmus_parse.holds,
                      r.Litmus_parse.outcome_count,
                      r.Litmus_parse.complete )
              | None -> None),
              v.Litmus_fanout.disagree = None ))
          vs
      in
      let seq = Litmus_fanout.check ~oracle:Litmus_fanout.Both tasks in
      let par =
        Tbtso_par.Pool.with_pool ~domains:2 (fun pool ->
            Litmus_fanout.check ~pool ~oracle:Litmus_fanout.Both tasks)
      in
      check_bool "-j 2 ≡ sequential (both oracles)" true
        (signature seq = signature par);
      check_bool "no oracle disagreement over litmus/gen" true
        (List.for_all
           (fun (v : Litmus_fanout.verdict) -> v.Litmus_fanout.disagree = None)
           seq)

let test_sat_stats_exposed () =
  let r = Axiomatic.explore ~mode:(M_tbtso 4) sb in
  check_bool "some variables" true (r.Axiomatic.stats.Axiomatic.vars > 0);
  check_bool "some clauses" true (r.Axiomatic.stats.Axiomatic.clauses > 0);
  (* One formula covers every path, so an enumeration is one solve per
     outcome plus the closing UNSAT. *)
  check_bool "solves ≥ outcomes + 1" true
    (r.Axiomatic.stats.Axiomatic.solves
    >= r.Axiomatic.stats.Axiomatic.outcomes + 1);
  check_bool "paths counted" true (r.Axiomatic.stats.Axiomatic.paths >= 1);
  match Axiomatic.stats_json r.Axiomatic.stats with
  | Tbtso_obs.Json.Obj fields ->
      List.iter
        (fun k ->
          check_bool ("stats_json field " ^ k) true (List.mem_assoc k fields))
        [ "paths"; "vars"; "clauses"; "solves"; "conflicts"; "outcomes" ]
  | _ -> Alcotest.fail "stats_json not an object"

let test_sat_partial_and_validation () =
  (* Outcome budget: SB has 4 outcomes under TSO; a budget of 2 must
     report incompleteness (and a sound subset), and [enumerate] raises. *)
  let r = Axiomatic.explore ~mode:M_tso ~max_outcomes:2 sb in
  check_bool "partial flagged" false r.Axiomatic.complete;
  let full = enumerate ~mode:M_tso sb in
  check_bool "partial is a sound subset" true
    (List.for_all (fun o -> List.mem o full) r.Axiomatic.outcomes);
  check_bool "enumerate raises on budget" true
    (try
       ignore (Axiomatic.enumerate ~mode:M_tso ~max_outcomes:2 sb);
       false
     with Failure _ -> true);
  (* The operational model deadlocks on negative waits and can loop on
     negative skips; the axiomatic oracle refuses them up front. *)
  List.iter
    (fun bad ->
      check_bool "invalid program rejected" true
        (try
           ignore (Axiomatic.enumerate ~mode:M_tso bad);
           false
         with Invalid_argument _ -> true))
    [ [ [ Wait (-1) ] ]; [ [ Loadeq (x, 0, -2) ] ] ]

let test_session_robustness () =
  (* One session answers every robustness query incrementally. SB's
     threshold: robust through Δ=3 (commit deadlines too tight to hide
     both stores), broken from Δ=4 up to plain TSO. *)
  let sess = Axiomatic.session sb in
  check_bool "SC robust by definition" true (Axiomatic.robust sess M_sc = `Robust);
  check_bool "TBTSO[1] robust" true (Axiomatic.robust sess (M_tbtso 1) = `Robust);
  check_bool "TBTSO[3] robust" true (Axiomatic.robust sess (M_tbtso 3) = `Robust);
  (match Axiomatic.robust sess (M_tbtso 4) with
  | `Robust -> Alcotest.fail "SB must break at Δ=4"
  | `Witness w ->
      check_bool "witness beyond SC" true
        (not (List.mem w (Axiomatic.sc_outcomes sess)));
      check_bool "witness reachable" true
        (List.mem w (enumerate ~mode:(M_tbtso 4) sb)));
  check_bool "TSO not robust" true (Axiomatic.robust sess M_tso <> `Robust);
  let sites = Axiomatic.fence_sites sess in
  check_bool "two fence sites" true (List.length sites = 2);
  check_bool "fully fenced TSO is robust" true
    (Axiomatic.robust sess ~fences:sites M_tso = `Robust);
  (* The session's enumeration still matches the explorer after all the
     guarded queries above retired their clauses. *)
  let r = Axiomatic.enumerate_session sess M_tso in
  check_bool "post-query enumeration intact" true
    (r.Axiomatic.complete && r.Axiomatic.outcomes = enumerate ~mode:M_tso sb)

let test_shared_session_matches_fresh () =
  (* One session per file serving every mode (what [Litmus_fanout.check]
     does) must answer exactly like a fresh session per mode, over both
     corpora and the CI modes: same outcome sets, completeness and
     condition verdicts. *)
  match corpus_paths () @ gen_corpus_paths () with
  | [] -> Alcotest.fail "litmus corpus not found (missing dune deps?)"
  | paths ->
      List.iter
        (fun path ->
          let test = Litmus_parse.parse (read_file path) in
          let sess = Axiomatic.session test.program in
          List.iter
            (fun mode ->
              let shared = Axiomatic.enumerate_session sess mode in
              let fresh = Axiomatic.explore ~mode test.program in
              check_bool
                (Printf.sprintf "%s under %s: shared ≡ fresh session"
                   (Filename.basename path) (Litmus_parse.mode_id mode))
                true
                (shared.Axiomatic.outcomes = fresh.Axiomatic.outcomes
                && shared.Axiomatic.complete = fresh.Axiomatic.complete))
            sat_corpus_modes)
        paths;
      let tasks = Litmus_fanout.load ~modes:sat_corpus_modes paths in
      List.iter
        (fun (v : Litmus_fanout.verdict) ->
          let t = v.Litmus_fanout.task in
          let fresh = Axiomatic.explore ~mode:t.mode t.test.program in
          match v.Litmus_fanout.sat with
          | None -> Alcotest.fail "SAT oracle did not run"
          | Some sc ->
              check_bool
                (Printf.sprintf "%s under %s: fanout verdict ≡ fresh session"
                   (Filename.basename t.path) (Litmus_parse.mode_id t.mode))
                true
                (sc.Litmus_fanout.sat_holds
                 = Litmus_parse.holds_on t.test fresh.Axiomatic.outcomes
                && sc.Litmus_fanout.sat_outcome_count
                   = List.length fresh.Axiomatic.outcomes
                && sc.Litmus_fanout.sat_complete = fresh.Axiomatic.complete))
        (Litmus_fanout.check ~oracle:Litmus_fanout.Sat tasks)

let test_query_stats_sum_to_session () =
  (* Each enumeration reports its own work, not the solver's lifetime
     counters: over a shared session the per-query numbers sum to the
     session totals. A complete query makes one solve per outcome its
     seeds did not already hold, plus the closing UNSAT one; a repeat of
     an answered formula makes none. *)
  let sess = Axiomatic.session (tbtso_flag 4) in
  let rs =
    List.map (Axiomatic.enumerate_session sess) (sat_corpus_modes @ [ M_tso ])
  in
  let total = Axiomatic.session_stats sess in
  let sum f = List.fold_left (fun a (r : Axiomatic.result) -> a + f r.stats) 0 rs in
  List.iter
    (fun (name, f) -> check_int ("sum of per-query " ^ name) (f total) (sum f))
    [
      ("solves", fun (s : Axiomatic.stats) -> s.solves);
      ("conflicts", fun s -> s.conflicts);
      ("decisions", fun s -> s.decisions);
      ("propagations", fun s -> s.propagations);
      ("restarts", fun s -> s.restarts);
      ("outcomes", fun s -> s.outcomes);
      ("seeded", fun s -> s.seeded);
    ];
  check_bool "the run did some conflict analysis" true (total.conflicts > 0);
  (* sc, tso, tbtso:1 (= sc), tbtso:4, tbtso:64 (= tso once 64 ≥ H), tso. *)
  let repeats =
    [ false; false; true; false; 64 >= Axiomatic.horizon sess; true ]
  in
  List.iter2
    (fun (r : Axiomatic.result) repeat ->
      if repeat then check_int "a repeat makes no solve" 0 r.stats.solves
      else
        check_int "solves = outcomes − seeded + 1"
          (r.stats.outcomes - r.stats.seeded + 1)
          r.stats.solves)
    rs repeats;
  check_int "formula size is a session snapshot" total.vars
    (List.nth rs (List.length rs - 1)).stats.vars;
  check_int "tso is seeded with the sc set"
    (List.nth rs 0).stats.outcomes (List.nth rs 1).stats.seeded

let test_reduction_regression_windows () =
  (* Two windows on which a partial-order reduction once missed a
     reachable outcome (the two-thread one with a fence under TSO, the
     three-thread one under SC). Every oracle must report the full
     outcome set, and [--oracle both] must agree. *)
  List.iter
    (fun (name, text, mode, count) ->
      let test = Litmus_parse.parse text in
      let ex = explore ~mode test.program in
      check_int (name ^ ": outcomes") count (List.length ex.outcomes);
      check_bool (name ^ ": explorer ≡ reference") true
        (ex.outcomes = enumerate_reference ~mode test.program);
      check_bool (name ^ ": explorer ≡ SAT") true
        (ex.outcomes = (Axiomatic.explore ~mode test.program).Axiomatic.outcomes);
      let vs =
        Litmus_fanout.check ~oracle:Litmus_fanout.Both
          [ { Litmus_fanout.path = name; test; mode } ]
      in
      check_int (name ^ ": --oracle both exits 0") 0 (Litmus_fanout.exit_code vs))
    [
      ( "three threads, sc",
        "thread\n load y -> r1\n store x 2\nthread\n store x 1\nthread\n\
        \ store x 1\n load x -> r3\n store y 1\nexists 0:r1 = 1\n",
        M_sc,
        6 );
      ( "two threads, tso",
        "thread\n store z 1\n load y -> r1\n store x 2\n load x -> r1\n\
         thread\n store x 1\n fence\n store w 1\nexists 0:r1 = 0\n",
        M_tso,
        3 );
    ]

let test_adviser_verdicts () =
  (match Adviser.minimal_delta (Axiomatic.session sb) with
  | Adviser.Breaks_at { max_robust = 3; min_unsafe = 4 }, Some _ -> ()
  | v, _ ->
      Alcotest.fail
        (Printf.sprintf "SB verdict: %s" (Adviser.verdict_string v)));
  (match Adviser.minimal_delta (Axiomatic.session mp) with
  | Adviser.Always_robust, None -> ()
  | v, _ ->
      Alcotest.fail
        (Printf.sprintf "MP verdict: %s" (Adviser.verdict_string v)));
  check_bool "SB needs both fences" true
    (match Adviser.minimal_fences (Axiomatic.session sb) with
    | Adviser.Fence_after [ (0, 0); (1, 0) ] -> true
    | _ -> false);
  check_bool "MP needs none" true
    (Adviser.minimal_fences (Axiomatic.session mp) = Adviser.No_fences_needed);
  (* Explorer confirmation: accepts the true verdict, refutes a wrong one. *)
  let v, _ = Adviser.minimal_delta (Axiomatic.session sb) in
  check_bool "explorer confirms SB threshold" true
    (Adviser.confirm sb v = Adviser.Confirmed);
  check_bool "explorer refutes a false verdict" true
    (match Adviser.confirm sb Adviser.Always_robust with
    | Adviser.Mismatch _ -> true
    | _ -> false)

let prop_pooled_sat_differential =
  (* The SAT oracle runs inside pool workers under -j N: no hidden
     module-level state may make pooled answers differ. *)
  QCheck.Test.make ~name:"pooled SAT oracle ≡ sequential" ~count:15
    program_arb3 (fun p ->
      Tbtso_par.Pool.with_pool ~domains:2 (fun pool ->
          Tbtso_par.Pool.map_list pool
            (fun mode -> Axiomatic.enumerate ~mode p)
            sat_corpus_modes
          = List.map (fun mode -> Axiomatic.enumerate ~mode p) sat_corpus_modes))

let test_flag_flat_in_delta () =
  (* The headline zone-abstraction result: the explored state count for
     the flag protocols stays flat in Δ, where the concrete-counter
     explorer grew linearly. Every point must complete (a budget-cut
     count says nothing about the true ratio), its visited count is
     pinned exactly, and the SAT oracle must agree on the outcome set;
     the encoding size is pinned at both ends of the grid. *)
  let deltas = [ 4; 8; 16; 32; 64; 128; 256; 512 ] in
  List.iter
    (fun (name, prog, visited, sat_lo, sat_hi) ->
      let at d =
        let p = prog d and mode = M_tbtso d in
        let where = Printf.sprintf "%s Δ=%d" name d in
        let r = explore ~mode p and sat = Axiomatic.explore ~mode p in
        check_bool (where ^ " complete") true r.complete;
        check_bool (where ^ " SAT complete") true sat.Axiomatic.complete;
        check_bool (where ^ " SAT ≡ explorer") true
          (sat.Axiomatic.outcomes = r.outcomes);
        (match List.assoc_opt d [ (4, sat_lo); (512, sat_hi) ] with
        | Some (vars, clauses) ->
            let st = sat.Axiomatic.stats in
            check_int (where ^ " SAT vars") vars st.Axiomatic.vars;
            check_int (where ^ " SAT clauses") clauses st.Axiomatic.clauses
        | None -> ());
        r.stats.visited
      in
      let counts = List.map (fun d -> (d, at d)) deltas in
      Alcotest.(check (list int))
        (name ^ ": visited per Δ") visited (List.map snd counts);
      let lo = List.assoc 4 counts and hi = List.assoc 64 counts in
      check_bool
        (Printf.sprintf "%s: states at Δ=64 (%d) ≤ 2× Δ=4 (%d)" name hi lo)
        true
        (hi <= 2 * lo))
    [
      ( "flag wait=4",
        (fun _ -> tbtso_flag 4),
        [ 106; 110; 62; 62; 62; 62; 62; 62 ],
        (133, 387),
        (132, 380) );
      ( "flag wait=64",
        (fun _ -> tbtso_flag 64),
        [ 113; 94; 93; 93; 126; 65; 65; 65 ],
        (613, 1827),
        (612, 1760) );
      ( "flag wait=Δ",
        tbtso_flag,
        [ 106; 126; 126; 126; 126; 126; 126; 126 ],
        (133, 387),
        (4197, 12071) );
    ]

let test_minor_words_per_state () =
  (* The explorer allocates deterministically, so its GC pressure per
     visited state is an exact ceiling, not a timing: 22.9 words (a
     13.7-word baseline over a 0.6 tolerance; 17.4 measured when this
     test was written) over SB/MP and the 2- and 3-thread flag at
     Δ ∈ {4, 100}. *)
  let corpus =
    [ (M_sc, sb); (M_tso, sb); (M_tso, mp) ]
    @ List.concat_map
        (fun d ->
          List.map
            (fun p -> (M_tbtso d, p))
            [ sb; mp; tbtso_flag d; tbtso_flag3 d ])
        [ 4; 100 ]
  in
  let w0 = Gc.minor_words () in
  let results = List.map (fun (mode, p) -> explore ~mode p) corpus in
  let words = Gc.minor_words () -. w0 in
  check_bool "all complete" true (List.for_all (fun r -> r.complete) results);
  let states = List.fold_left (fun n r -> n + r.stats.visited) 0 results in
  let per_state = words /. float_of_int states in
  check_bool
    (Printf.sprintf "%.1f minor words per state ≤ 22.9" per_state)
    true (per_state <= 22.9)

let test_corpus_counters_pinned () =
  (* Every exploration counter, summed over the whole corpus (litmus/
     and litmus/gen) per mode, pinned exactly: a change to the state
     encoding, interning, zone caps, time leaps or sleep sets moves at
     least one column. Columns: visited, dedup, canon, zones, leaps,
     sleeps, outcomes. *)
  let paths = corpus_paths () @ gen_corpus_paths () in
  check_int "corpus files" 23 (List.length paths);
  let programs =
    List.map (fun p -> (Litmus_parse.parse (read_file p)).program) paths
  in
  List.iter
    (fun (mode, expected) ->
      let sum =
        List.fold_left
          (fun acc p ->
            let r = explore ~mode p in
            check_bool (Litmus_parse.mode_id mode ^ " complete") true r.complete;
            let s = r.stats in
            List.map2 ( + ) acc
              [
                s.visited;
                s.dedup_hits;
                s.canon_hits;
                s.zones_merged;
                s.time_leaps;
                s.sleep_skips;
                List.length r.outcomes;
              ])
          [ 0; 0; 0; 0; 0; 0; 0 ] programs
      in
      Alcotest.(check (list int)) (Litmus_parse.mode_id mode) expected sum)
    [
      (M_sc, [ 939; 240; 240; 18; 47; 295; 90 ]);
      (M_tso, [ 2053; 1033; 1106; 22; 135; 1264; 109 ]);
      (M_tbtso 1, [ 1938; 528; 557; 56; 45; 341; 90 ]);
      (M_tbtso 4, [ 4360; 3021; 3386; 498; 69; 2200; 91 ]);
      (M_tbtso 64, [ 2114; 2191; 2625; 848; 134; 745; 108 ]);
    ]

let test_zone_stats_exposed () =
  (* The wait ≈ Δ race exercises both zone rewrites and the sleep
     sets; the counters must surface in stats and its JSON rendering. *)
  let r = explore ~mode:(M_tbtso 64) (tbtso_flag 64) in
  check_bool "zones merged" true (r.stats.zones_merged > 0);
  check_bool "canonical states re-interned" true (r.stats.canon_hits > 0);
  check_bool "sleep sets pruned" true (r.stats.sleep_skips > 0);
  match stats_json r.stats with
  | Tbtso_obs.Json.Obj fields ->
      List.iter
        (fun k -> check_bool ("stats_json field " ^ k) true (List.mem_assoc k fields))
        [ "canon_hits"; "zones_merged"; "sleep_skips" ]
  | _ -> Alcotest.fail "stats_json not an object"

let test_explore_budget_partial () =
  let r = explore ~mode:M_tso ~max_states:10 sb in
  check_bool "partial flagged" false r.complete;
  check_bool "budget respected" true (r.stats.visited <= 10);
  (* [enumerate] keeps the seed's contract: budget exhaustion raises. *)
  check_bool "enumerate raises" true
    (try
       ignore (enumerate ~mode:M_tso ~max_states:10 sb);
       false
     with Failure _ -> true)

(* --- One explorer scratch per file --- *)

(* Every stats counter but [elapsed]. *)
let counters (s : stats) =
  [ s.visited; s.dedup_hits; s.canon_hits; s.zones_merged; s.max_frontier;
    s.time_leaps; s.sleep_skips ]

let same_result (a : result) (b : result) =
  a.outcomes = b.outcomes && a.complete = b.complete
  && counters a.stats = counters b.stats

let reuse_modes = [ M_sc; M_tso; M_tsos 1; M_tbtso 1; M_tbtso 4; M_tbtso 64 ]

let mode_orders modes =
  [ ("ascending", modes); ("descending", List.rev modes);
    ( "interleaved",
      List.filteri (fun i _ -> i mod 2 = 1) modes
      @ List.rev (List.filteri (fun i _ -> i mod 2 = 0) modes) ) ]

(* Run [runs] — (mode, budget) pairs — in order on one scratch of [p];
   the first whose result differs from a fresh [explore]'s, if any. *)
let reuse_mismatch p runs =
  let sc = scratch p in
  let fresh = Hashtbl.create 16 in
  List.find_opt
    (fun (mode, max_states) ->
      let f =
        match Hashtbl.find_opt fresh (mode, max_states) with
        | Some f -> f
        | None ->
            let f = explore ~mode ?max_states p in
            Hashtbl.add fresh (mode, max_states) f;
            f
      in
      not (same_result (explore_in sc ~mode ?max_states ()) f))
    runs

let fail_mismatch what = function
  | None -> ()
  | Some (mode, max_states) ->
      Alcotest.failf "%s: %s%s differs from a fresh exploration" what
        (Litmus_parse.mode_id mode)
        (match max_states with Some k -> Printf.sprintf " (max %d)" k | None -> "")

let corpus_programs () =
  List.map
    (fun path -> (Filename.basename path, (Litmus_parse.parse (read_file path)).program))
    (corpus_paths () @ gen_corpus_paths ())

let test_scratch_reuse_corpus () =
  (* One scratch per file, over the modes in ascending, descending and
     interleaved order, answers exactly like a fresh [explore] per
     mode: outcomes, completeness and every counter but [elapsed]. *)
  let programs = corpus_programs () in
  check_int "corpus files" 23 (List.length programs);
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (order, modes) ->
          fail_mismatch (name ^ ", " ^ order)
            (reuse_mismatch p (List.map (fun m -> (m, None)) modes)))
        (mode_orders reuse_modes))
    programs

let test_scratch_large_then_small () =
  (* The reset after growth: the corpus file with the most states at
     TBTSO[4] — its arena's table, key store and per-id arrays grow
     well past their initial size — explored in its largest mode, then
     its smallest, then cut by a state budget, then complete again. *)
  let visited p mode = (explore ~mode p).stats.visited in
  let name, p, _ =
    List.fold_left
      (fun ((_, _, bv) as best) (n, p) ->
        let v = visited p (M_tbtso 4) in
        if v > bv then (n, p, v) else best)
      ("", [], -1) (corpus_programs ())
  in
  let by_size =
    List.sort compare (List.map (fun m -> (visited p m, m)) reuse_modes)
  in
  let small = snd (List.hd by_size)
  and big, large = List.nth by_size (List.length by_size - 1) in
  check_bool
    (Printf.sprintf "%s: %d states outgrow the initial 128 ids" name big)
    true (big > 128);
  fail_mismatch name
    (reuse_mismatch p
       [ (large, None); (small, None); (large, Some 10); (small, Some 3);
         (large, None); (small, None) ])

let prop_scratch_reuse =
  QCheck.Test.make ~count:40
    ~name:"one scratch over every mode order ≡ fresh explore, budget cuts too"
    program_arb3 (fun p ->
      List.for_all
        (fun (_, modes) ->
          reuse_mismatch p
            (List.concat_map (fun m -> [ (m, None); (m, Some 4); (m, None) ]) modes)
          = None)
        (mode_orders reuse_modes))

let test_request_major_words () =
  (* One [check ~oracle:Both] request over a corpus file in four modes
     builds one explorer scratch, not an arena per mode. The words it
     allocates directly in the major heap — arrays too large for the
     minor heap: the arena's key store, the solver's clause arena — are
     an exact, deterministic count: 4,099 for sb.litmus, where an arena
     per mode made 7,174. *)
  let path =
    List.find (fun p -> Filename.basename p = "sb.litmus") (corpus_paths ())
  in
  let test = Litmus_parse.parse (read_file path) in
  let tasks =
    List.map
      (fun mode -> { Litmus_fanout.path; test; mode })
      [ M_sc; M_tso; M_tbtso 4; M_tbtso 8 ]
  in
  let run () = Litmus_fanout.check ~oracle:Litmus_fanout.Both tasks in
  ignore (run ());
  Gc.full_major ();
  let _, p0, m0 = Gc.counters () in
  let verdicts = run () in
  let _, p1, m1 = Gc.counters () in
  let direct = m1 -. m0 -. (p1 -. p0) in
  check_bool "agreeing verdicts" true
    (List.for_all (fun v -> Litmus_fanout.severity v = `Ok) verdicts);
  check_bool
    (Printf.sprintf "%.0f words allocated directly in the major heap ≤ 5,000"
       direct)
    true (direct <= 5000.)

(* --- Litmus file parser --- *)

let test_parse_roundtrip () =
  let text =
    "name: demo\n\
     # a comment\n\
     thread\n\
     \tstore x 1\n\
     \tload y -> r0\n\
     thread\n\
     \tstore y 1\n\
     \tfence\n\
     \twait 3\n\
     \tload x r1\n\
     exists 0:r0 = 0 /\\ 1:r1 = 0\n"
  in
  let t = Litmus_parse.parse text in
  check_bool "name" true (t.name = "demo");
  check_bool "two threads" true (List.length t.program = 2);
  check_bool "quantifier" true (t.quantifier = Litmus_parse.Exists);
  check_bool "two terms" true (List.length t.condition = 2);
  check_bool "program content" true
    (t.program
    = [
        [ Store (0, 1); Load (1, 0) ];
        [ Store (1, 1); Fence; Wait 3; Load (0, 1) ];
      ])

let test_parse_check_agrees_with_enumerate () =
  let text =
    "thread\n store x 1\n load y -> r0\nthread\n store y 1\n load x -> r1\n\
     exists 0:r0 = 0 /\\ 1:r1 = 0\n"
  in
  let t = Litmus_parse.parse text in
  let tso = Litmus_parse.check t ~mode:M_tso in
  let sc = Litmus_parse.check t ~mode:M_sc in
  check_bool "TSO observable" true tso.holds;
  check_bool "SC impossible" false sc.holds;
  check_bool "TSO complete" true tso.complete;
  check_bool "TSO stats populated" true (tso.stats.visited > 0)

let test_parse_cas () =
  let text = "thread\n cas x 0 1 -> r0\nforall x = 1\n" in
  let t = Litmus_parse.parse text in
  check_bool "cas parsed" true (t.program = [ [ Cas (0, 0, 1, 0) ] ]);
  check_bool "cas executes" true (Litmus_parse.check t ~mode:M_tso).holds

let test_parse_forall () =
  let text = "thread\n store x 7\nforall x = 7\n" in
  let t = Litmus_parse.parse text in
  check_bool "forall" true (t.quantifier = Litmus_parse.Forall);
  check_bool "invariant holds" true (Litmus_parse.check t ~mode:M_tso).holds

let test_check_budget_exceeded () =
  (* Exhausting the state budget must surface as [complete = false], not
     as an exception, and a partial [exists] answer must stay sound. *)
  let text =
    "thread\n store x 1\n load y -> r0\nthread\n store y 1\n load x -> r1\n\
     exists 0:r0 = 0 /\\ 1:r1 = 0\n"
  in
  let t = Litmus_parse.parse text in
  let r = Litmus_parse.check ~max_states:5 t ~mode:M_tso in
  check_bool "incomplete" false r.complete;
  check_bool "visited capped" true (r.stats.visited <= 5)

let check_parse_error text =
  try
    ignore (Litmus_parse.parse text);
    false
  with Litmus_parse.Parse_error _ -> true

let test_parse_errors () =
  check_bool "no threads" true (check_parse_error "exists x = 1\n");
  check_bool "no condition" true (check_parse_error "thread\n store x 1\n");
  check_bool "bad instruction" true (check_parse_error "thread\n mumble\nexists x = 1\n");
  check_bool "bad address" true (check_parse_error "thread\n store q 1\nexists x = 1\n");
  check_bool "bad register" true
    (check_parse_error "thread\n load x -> r9\nexists x = 1\n");
  check_bool "orphan instruction" true (check_parse_error "store x 1\nexists x = 1\n");
  check_bool "duplicate condition" true
    (check_parse_error "thread\n store x 1\nexists x = 1\nexists x = 1\n");
  (* Programs the oracles would reject (or the explorer would loop on)
     and conditions on threads the file lacks are parse errors. *)
  check_bool "negative wait" true (check_parse_error "thread\n wait -3\nexists x = 0\n");
  check_bool "negative skip" true
    (check_parse_error "thread\n loadeq x 0 skip -1\nexists x = 0\n");
  check_bool "condition on a missing thread" true
    (check_parse_error "thread\n load x -> r0\nexists 5:r0 = 0\n");
  check_bool "condition on a negative thread" true
    (check_parse_error "thread\n load x -> r0\nexists -1:r0 = 0\n");
  (* The oracles' own guard, for programs built without the parser:
     each raises Invalid_argument under its own name, never an index
     error or an outcome with a register written into another
     thread's. *)
  List.iter
    (fun (who, oracle) ->
      List.iter
        (fun (what, bad) ->
          check_bool
            (Printf.sprintf "%s rejects %s" who what)
            true
            (try
               oracle bad;
               false
             with Invalid_argument m -> String.starts_with ~prefix:(who ^ ": ") m))
        [
          ("a negative wait", [ [ Wait (-3) ] ]);
          ("a negative skip", [ [ Loadeq (x, 0, -1) ] ]);
          ( "register 5",
            [ [ Store (x, 1); Load (y, 5) ]; [ Store (y, 1); Load (x, r0) ] ] );
          ( "register -1",
            [ [ Store (x, 1); Load (y, r0) ]; [ Store (y, 1); Load (x, -1) ] ] );
          ("address 7", [ [ Store (7, 1) ]; [ Load (x, r0) ] ]);
        ])
    [
      ("Litmus.explore", fun p -> ignore (explore ~mode:M_tso p));
      ( "Litmus.enumerate_reference",
        fun p -> ignore (enumerate_reference ~mode:M_tso p) );
      ("Axiomatic.session", fun p -> ignore (Axiomatic.explore ~mode:M_tso p));
    ]

let test_mode_of_string () =
  let ok s =
    match Litmus_parse.mode_of_string s with Ok m -> Some m | Error _ -> None
  in
  check_bool "sc" true (ok "sc" = Some M_sc);
  check_bool "case-insensitive" true (ok "TSO" = Some M_tso);
  check_bool "tbtso:4" true (ok "tbtso:4" = Some (M_tbtso 4));
  check_bool "tsos:2" true (ok "tsos:2" = Some (M_tsos 2));
  (* The negatives the old String.sub arithmetic mangled: empty bound,
     zero, negative, non-numeric. *)
  check_bool "tbtso: (empty bound)" true (ok "tbtso:" = None);
  check_bool "tbtso:0" true (ok "tbtso:0" = None);
  check_bool "tsos:-1" true (ok "tsos:-1" = None);
  check_bool "tsos: (empty capacity)" true (ok "tsos:" = None);
  check_bool "tbtso:x" true (ok "tbtso:x" = None);
  check_bool "unknown word" true (ok "weird" = None);
  check_bool "prefix alone" true (ok "tbtso" = None);
  (* [mode_id] round-trips through the parser for every mode. *)
  List.iter
    (fun m ->
      check_bool
        (Printf.sprintf "round-trip %s" (Litmus_parse.mode_id m))
        true
        (ok (Litmus_parse.mode_id m) = Some m))
    diff_modes;
  (* The shared helper underneath. *)
  check_bool "chop_prefix hit" true
    (Litmus_parse.chop_prefix ~prefix:"tbtso:" "tbtso:9" = Some "9");
  check_bool "chop_prefix whole string" true
    (Litmus_parse.chop_prefix ~prefix:"tso" "tso" = Some "");
  check_bool "chop_prefix miss" true
    (Litmus_parse.chop_prefix ~prefix:"tsos:" "tbtso:9" = None)

let prop_pooled_differential =
  (* The worker-pool analogue of [prop_new_equals_reference]: fanning the
     per-mode enumerations out across domains changes nothing — same
     outcome sets, same order. *)
  QCheck.Test.make ~name:"pooled enumerate ≡ sequential on random programs"
    ~count:30 program_arb3 (fun p ->
      Tbtso_par.Pool.with_pool ~domains:2 (fun pool ->
          Tbtso_par.Pool.map_list pool (fun mode -> enumerate ~mode p) diff_modes
          = List.map (fun mode -> enumerate ~mode p) diff_modes))

(* The hash-cons arena packs states into one flat int array and interns
   them by (hash, length, word-compare) against the packed words. These
   properties pin it against a structural Hashtbl interner, over streams
   long enough that the intern table outgrows its initial 256 slots
   (more than 128 distinct states) and the key store its initial 1,024
   words. *)

(* A random arena layout — thread count, cells, registers and per-thread
   buffer bounds — and a stream of 600 states over it, drawn from a pool
   of 300 so that keys repeat. *)
let arena_stream_gen =
  let open QCheck.Gen in
  let small = int_range 0 3 in
  let* n = int_range 2 3 in
  let* addrs = int_range 2 4 in
  let* regs = int_range 2 3 in
  let* bufcap = array_repeat n (int_range 0 3) in
  (* An (addr, value, slack) triple; slack 4 stands for "no deadline". *)
  let entry =
    map
      (fun (a, v, s) -> [ a; v; (if s = 4 then max_int else s) ])
      (triple small small (int_range 0 4))
  in
  let state =
    let* mem = array_repeat addrs small in
    let* pc = array_repeat n small in
    let* wait = array_repeat n small in
    let* regs_v = array_repeat (n * regs) small in
    let* bufs =
      flatten_a
        (Array.map (fun cap -> int_range 0 cap >>= fun l -> list_repeat l entry) bufcap)
    in
    return (mem, pc, wait, regs_v, Array.map List.concat bufs)
  in
  let* pool = array_repeat 300 state in
  let* picks = list_repeat 600 (int_bound 299) in
  return ((addrs, regs, bufcap), List.map (Array.get pool) picks)

let arena_stream_arb =
  QCheck.make
    ~print:(fun ((addrs, regs, bufcap), _) ->
      Printf.sprintf "addrs=%d regs=%d bufcap=[%s]" addrs regs
        (String.concat ";" (Array.to_list (Array.map string_of_int bufcap))))
    arena_stream_gen

let fill_state (s : Arena.state) (mem, pc, wait, regs_v, bufs) =
  Array.blit mem 0 s.s_mem 0 (Array.length mem);
  Array.blit pc 0 s.s_pc 0 (Array.length pc);
  Array.blit wait 0 s.s_wait 0 (Array.length wait);
  Array.blit regs_v 0 s.s_regs 0 (Array.length regs_v);
  Array.iteri
    (fun i buf ->
      s.s_len.(i) <- List.length buf / 3;
      List.iteri (fun k w -> s.s_buf.(s.s_base.(i) + k) <- w) buf)
    bufs

(* The state's live words, for structural comparison: stale buffer
   slots past each thread's length are left out. *)
let live (s : Arena.state) =
  ( Array.copy s.s_mem,
    Array.copy s.s_pc,
    Array.copy s.s_wait,
    Array.copy s.s_regs,
    Array.mapi (fun i l -> Array.sub s.s_buf s.s_base.(i) (3 * l)) s.s_len )

(* Intern the stream into a fresh arena and a Hashtbl model that assigns
   dense ids in arrival order; returns the arena, the model, whether the
   ids agreed call by call, and the words of the distinct keys. *)
let intern_stream ((addrs, regs, bufcap), states) =
  let arena = Arena.create ~addrs ~regs ~bufcap in
  let s = Arena.scratch arena in
  let model = Hashtbl.create 64 in
  let agree = ref true and words = ref 0 in
  List.iter
    (fun st ->
      fill_state s st;
      let key = live s in
      let expected =
        match Hashtbl.find_opt model key with
        | Some id -> id
        | None ->
            let id = Hashtbl.length model in
            Hashtbl.add model key id;
            let n = Array.length bufcap in
            words :=
              !words + addrs + (n * (3 + regs)) + (3 * Array.fold_left ( + ) 0 s.s_len);
            id
      in
      if Arena.intern arena s <> expected then agree := false)
    states;
  (arena, model, !agree, !words)

let prop_arena_intern_partition =
  QCheck.Test.make ~name:"Arena: equal ids iff equal keys (vs Hashtbl)" ~count:20
    arena_stream_arb (fun stream ->
      let arena, model, agree, words = intern_stream stream in
      Hashtbl.length model > 128 && words > 1024 && agree
      && Arena.size arena = Hashtbl.length model)

let ids_into arena states =
  let s = Arena.scratch arena in
  List.map
    (fun st ->
      fill_state s st;
      Arena.intern arena s)
    states

let prop_arena_reset =
  QCheck.Test.make ~name:"Arena: reset, then re-intern, gives the ids of a fresh arena"
    ~count:20 arena_stream_arb (fun (((addrs, regs, bufcap), states) as stream) ->
      let arena, _, _, _ = intern_stream stream in
      let grown = Arena.size arena > 128 in
      let d = Arena.scratch arena and f = Arena.scratch arena in
      (* Expand every id, reset, re-intern [sub]: same ids and size as a
         fresh arena, every id unexpanded, every key decoding back. *)
      let again sub =
        for id = 0 to Arena.size arena - 1 do
          Arena.set_sleep arena id 0
        done;
        Arena.reset arena;
        let ids = ids_into arena sub in
        let fresh = Arena.create ~addrs ~regs ~bufcap in
        ids = ids_into fresh sub
        && Arena.size arena = Arena.size fresh
        && List.for_all (fun id -> Arena.sleep arena id = -1) ids
        && List.for_all2
             (fun st id ->
               fill_state f st;
               Arena.decode arena id d;
               live d = live f)
             sub ids
      in
      (* Small after large: the reset runs on a grown table and key store. *)
      grown
      && again (List.filteri (fun i _ -> i < 40) (List.rev states))
      && again states)

let prop_arena_decode =
  QCheck.Test.make ~name:"Arena: every interned key decodes back" ~count:20
    arena_stream_arb (fun stream ->
      let arena, model, _, _ = intern_stream stream in
      let d = Arena.scratch arena in
      Hashtbl.fold
        (fun key id ok ->
          Arena.decode arena id d;
          ok && live d = key)
        model true)

(* The qcheck suites draw from a fixed seed, so that a run of the tier-1
   suite is repeatable; set QCHECK_SEED to explore other draws. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some seed -> seed
  | None -> 20150314

let qsuite name tests =
  ( name,
    List.map
      (fun t ->
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t)
      tests )

let () =
  Alcotest.run "litmus"
    [
      ( "classic",
        [
          Alcotest.test_case "SB observable under TSO" `Quick test_sb_tso_allows_00;
          Alcotest.test_case "SB forbidden under SC" `Quick test_sb_sc_forbids_00;
          Alcotest.test_case "fenced SB forbidden everywhere" `Quick test_sb_fenced_forbids_00;
          Alcotest.test_case "SB observable under TBTSO" `Quick test_sb_tbtso_allows_00;
          Alcotest.test_case "MP safe under TSO" `Quick test_mp_tso;
          Alcotest.test_case "store forwarding" `Quick test_forwarding;
          Alcotest.test_case "final memory drained" `Quick test_final_memory;
          Alcotest.test_case "loadeq conditional" `Quick test_loadeq;
        ] );
      ( "flag-principle",
        [
          Alcotest.test_case "symmetric flag principle" `Quick test_flag_symmetric;
          Alcotest.test_case "TBTSO flag principle (Section 3)" `Quick
            test_tbtso_flag_principle;
          Alcotest.test_case "breaks under unbounded TSO" `Quick
            test_tbtso_flag_principle_breaks_under_tso;
          Alcotest.test_case "short wait unsound" `Quick test_tbtso_flag_requires_full_wait;
          Alcotest.test_case "slow-path fence required" `Quick test_tbtso_flag_requires_fence;
        ] );
      ( "cas",
        [
          Alcotest.test_case "atomicity" `Quick test_cas_atomicity;
          Alcotest.test_case "drains buffer" `Quick test_cas_drains_buffer_litmus;
          Alcotest.test_case "TAS lock" `Quick test_tas_lock_litmus;
        ] );
      ( "tsos",
        [
          Alcotest.test_case "flag principle still broken" `Quick
            test_tsos_flag_principle_still_broken;
          Alcotest.test_case "spatial flush restricts outcomes" `Quick
            test_tsos_spatial_flush;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "boundary grid vs reference" `Quick test_diff_boundary_grid;
          Alcotest.test_case "recursion killer (Wait 200k)" `Quick test_recursion_killer;
          Alcotest.test_case "paper-scale Δ ∈ {100, 500}" `Quick test_paper_scale_delta;
          Alcotest.test_case "corpus ≡ reference, every mode" `Quick
            test_corpus_matches_reference;
          Alcotest.test_case "flag states flat in Δ" `Quick test_flag_flat_in_delta;
          Alcotest.test_case "minor words per state" `Quick test_minor_words_per_state;
          Alcotest.test_case "zone stats exposed" `Quick test_zone_stats_exposed;
          Alcotest.test_case "partial result on budget" `Quick test_explore_budget_partial;
          Alcotest.test_case "IRIW visited states pinned" `Quick
            test_iriw_visited_pinned;
          Alcotest.test_case "corpus counters pinned" `Quick
            test_corpus_counters_pinned;
          Alcotest.test_case "one request, one explorer scratch" `Quick
            test_request_major_words;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "corpus: one scratch ≡ fresh, every mode order" `Quick
            test_scratch_reuse_corpus;
          Alcotest.test_case "large then small, budget cut then complete" `Quick
            test_scratch_large_then_small;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |])
            prop_scratch_reuse;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "check agrees with enumerate" `Quick
            test_parse_check_agrees_with_enumerate;
          Alcotest.test_case "cas syntax" `Quick test_parse_cas;
          Alcotest.test_case "forall" `Quick test_parse_forall;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "budget exceeded is a verdict" `Quick
            test_check_budget_exceeded;
          Alcotest.test_case "mode_of_string" `Quick test_mode_of_string;
        ] );
      ( "gen-corpus",
        [
          Alcotest.test_case "litmus/gen ≡ all oracles, every mode" `Quick
            test_gen_corpus_matches_oracles;
          Alcotest.test_case "litmus/gen fanout: pooled ≡ seq" `Quick
            test_gen_corpus_fanout_parallel;
        ] );
      ( "sat-oracle",
        [
          Alcotest.test_case "corpus ≡ SAT oracle, acceptance grid" `Quick
            test_corpus_matches_sat;
          Alcotest.test_case "solver stats exposed" `Quick test_sat_stats_exposed;
          Alcotest.test_case "partial result and validation" `Quick
            test_sat_partial_and_validation;
          Alcotest.test_case "session robustness queries" `Quick
            test_session_robustness;
          Alcotest.test_case "adviser verdicts vs explorer" `Quick
            test_adviser_verdicts;
          Alcotest.test_case "shared session ≡ fresh per mode" `Quick
            test_shared_session_matches_fresh;
          Alcotest.test_case "per-query stats sum to the session" `Quick
            test_query_stats_sum_to_session;
          Alcotest.test_case "reduction regression windows" `Quick
            test_reduction_regression_windows;
        ] );
      qsuite "differential"
        [
          prop_new_equals_reference;
          prop_pooled_differential;
          prop_sat_equals_explorer;
          prop_pooled_sat_differential;
        ];
      qsuite "arena" [ prop_arena_intern_partition; prop_arena_decode; prop_arena_reset ];
      qsuite "properties"
        [
          prop_sc_subset_tbtso;
          prop_tbtso_subset_tso;
          prop_tbtso_monotone_in_delta;
          prop_machine_agrees_with_checker;
          prop_machine_subset_of_checker_random;
          prop_tsos_subset_tso;
          prop_sc_subset_tsos;
          prop_hw_machine_subset_of_tso;
        ];
    ]
