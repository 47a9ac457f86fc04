(* Tests for the simulator substrate: RNG, store buffer, memory, cache,
   heap, and the abstract machine's TSO/TBTSO semantics. *)

open Tsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let w = Rng.int_in r 5 9 in
    check_bool "in closed range" true (w >= 5 && w <= 9);
    let f = Rng.float r in
    check_bool "float range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_geometric_cap () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.geometric r ~bound:(Rng.geometric_bound 0.01) ~cap:5 in
    check_bool "capped" true (v >= 0 && v <= 5)
  done

(* The float loop [Rng.geometric] was before it compared integers. *)
let geometric_float_loop t ~p ~cap =
  if p >= 1.0 then 0
  else begin
    let n = ref 0 in
    while !n < cap && not (Rng.float t < p) do
      incr n
    done;
    !n
  end

(* Same results and the same stream position after every draw. *)
let test_rng_geometric_exact () =
  List.iter
    (fun p ->
      List.iter
        (fun seed ->
          let a = Rng.create seed and b = Rng.create seed in
          for i = 0 to 999 do
            let cap = [| 0; 1; 7; 200 |].(i mod 4) in
            let name = Printf.sprintf "p %g seed %Ld draw %d" p seed i in
            check_int name (geometric_float_loop a ~p ~cap)
              (Rng.geometric b ~bound:(Rng.geometric_bound p) ~cap);
            check_int (name ^ ": stream position") (Rng.bits (Rng.copy a)) (Rng.bits (Rng.copy b))
          done)
        [ 1L; 2L; 7L; 42L; 1001L; -5L ])
    [ 0.0; 1e-9; 0.3; 0.5; 0.7; 1.0 -. 1e-9; 1.0 ]

let test_rng_split_independent () =
  let a = Rng.create 11L in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  check_bool "split streams diverge" true (!same < 4)

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

let enqueue ?(t = 0) b addr value = Store_buffer.enqueue b ~addr ~value ~at:t ~ready_at:t

(* The head entry's address and value, read inline as the machine
   does, then dropped. *)
let dequeue b =
  let s = b.Store_buffer.head in
  let e = (b.addr.(s), b.value.(s)) in
  Store_buffer.drop_oldest b;
  e

let test_sb_fifo () =
  let b = Store_buffer.create () in
  check_int "empty" 0 b.len;
  for i = 1 to 20 do
    enqueue ~t:i b i (i * 10)
  done;
  check_int "length" 20 b.len;
  for i = 1 to 20 do
    let addr, value = dequeue b in
    check_int "fifo addr" i addr;
    check_int "fifo value" (i * 10) value
  done;
  check_int "empty again" 0 b.len

(* The value a same-thread load of [a] observes, if [b] forwards one. *)
let newest_value b a =
  let s = Store_buffer.newest_for b a in
  if s < 0 then None else Some b.value.(s)

let test_sb_forwarding_newest () =
  let b = Store_buffer.create () in
  enqueue b 5 1;
  enqueue b 6 2;
  enqueue b 5 3;
  check_bool "newest wins" true (newest_value b 5 = Some 3);
  check_bool "other addr" true (newest_value b 6 = Some 2);
  check_bool "miss" true (newest_value b 7 = None)

let test_sb_interleaved_wraparound () =
  (* Exercise the ring buffer across the initial capacity boundary. *)
  let b = Store_buffer.create () in
  for round = 0 to 5 do
    for i = 0 to 6 do
      enqueue b ((round * 7) + i) i
    done;
    for i = 0 to 6 do
      check_int "wrap order" i (snd (dequeue b))
    done
  done;
  (* Grow while the ring is wrapped: the head is at slot 2 of 8. *)
  check_int "wrapped head" 2 b.head;
  for i = 0 to 11 do
    enqueue b i i
  done;
  for i = 0 to 11 do
    check_int "order across growth" i (snd (dequeue b))
  done

let test_sb_oldest_time () =
  let b = Store_buffer.create () in
  check_int "none" 0 b.len;
  enqueue ~t:3 b 1 1;
  enqueue ~t:9 b 2 2;
  check_int "oldest" 3 b.enqueued_at.(b.head)

let test_sb_dequeue_empty () =
  let b = Store_buffer.create () in
  Alcotest.check_raises "raises" (Invalid_argument "Store_buffer.drop_oldest: empty") (fun () ->
      Store_buffer.drop_oldest b)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_mem_rw () =
  let m = Memory.create ~words:1024 in
  Memory.write m ~tid:0 ~at:0 100 42;
  check_int "read back" 42 (Memory.read m 100)

let test_mem_alloc_alignment () =
  let m = Memory.create ~words:1024 in
  let a = Memory.alloc_global m 3 in
  let b = Memory.alloc_global m 3 in
  check_int "line aligned" 0 (a mod 8);
  check_int "line aligned" 0 (b mod 8);
  check_bool "disjoint lines" true (Memory.line_of a <> Memory.line_of b);
  check_bool "nonzero (null reserved)" true (a > 0)

let test_mem_alloc_exhaustion () =
  let m = Memory.create ~words:64 in
  check_bool "raises OOM" true
    (try
       ignore (Memory.alloc_global m 512);
       false
     with Memory.Out_of_memory _ -> true)

let test_mem_poison () =
  let m = Memory.create ~words:1024 in
  Memory.poison m 10 ~len:4;
  check_bool "poisoned" true (Memory.is_poisoned m 12);
  check_bool "boundary" false (Memory.is_poisoned m 14);
  Memory.unpoison m 10 ~len:4;
  check_bool "unpoisoned" false (Memory.is_poisoned m 12)

(* A line's owner and reader records, read from its page. *)
let line_record field m addr =
  (field (Memory.page m addr)).((addr land Memory.page_mask) lsr Memory.line_shift)

let line_owner = line_record (fun p -> p.Memory.owner)

let foreign_reader m addr ~tid =
  let r = line_record (fun p -> p.Memory.reader) m addr in
  r >= 0 && r <> tid

let set_reader m addr r = Memory.set_reader m (Memory.page m addr) addr r

let test_mem_line_version () =
  let m = Memory.create ~words:1024 in
  let v0 = Memory.line_version m 100 in
  Memory.write m ~tid:3 ~at:5 100 1;
  check_bool "version bumped" true (Memory.line_version m 100 > v0);
  check_int "owner recorded" 3 (line_owner m 100);
  (* Same line: addresses 96..103 share line version. *)
  let v1 = Memory.line_version m 96 in
  Memory.write m ~tid:0 ~at:6 103 1;
  check_bool "same line bumped" true (Memory.line_version m 96 > v1)

(* Memory is backed a page (4,096 words) at a time; these pin that the
   paging is invisible. *)
let page = 4096

let check_fresh m addr =
  let where = Printf.sprintf "word %d" addr in
  check_int (where ^ " value") 0 (Memory.read m addr);
  check_int (where ^ " version") 0 (Memory.line_version m addr);
  check_int (where ^ " owner") (-1) (line_owner m addr);
  check_bool (where ^ " reader") false (foreign_reader m addr ~tid:0);
  check_bool (where ^ " poison") false (Memory.is_poisoned m addr)

let test_mem_untouched_defaults () =
  let words = (3 * page) + 100 in
  let m = Memory.create ~words in
  List.iter (check_fresh m) [ 0; page - 1; page; 2 * page; words - 1 ];
  (* Mutators that change nothing back nothing either. *)
  set_reader m page (-1);
  Memory.unpoison m (page - 4) ~len:8;
  check_int "reads back no page" 0 (Memory.resident_words m)

let test_mem_zero_page_isolation () =
  let p = (5 * page) + 40 in
  let a = Memory.create ~words:(8 * page) in
  Memory.write a ~tid:1 ~at:0 p 7;
  Memory.poison a (p + 8) ~len:2;
  set_reader a (p + 16) 2;
  check_bool "A sees its reader" true (foreign_reader a (p + 16) ~tid:0);
  check_fresh a (p + page);
  let b = Memory.create ~words:(8 * page) in
  List.iter (check_fresh b) [ p; p + 8; p + 9; p + 16 ];
  check_int "B backs nothing" 0 (Memory.resident_words b);
  check_int "A backs one page" page (Memory.resident_words a);
  check_int "A keeps its value" 7 (Memory.read a p)

let test_mem_page_boundary () =
  let m = Memory.create ~words:(2 * page) in
  Memory.write m ~tid:1 ~at:0 (page - 1) 11;
  Memory.write m ~tid:2 ~at:0 page 12;
  check_int "last word of page 0" 11 (Memory.read m (page - 1));
  check_int "first word of page 1" 12 (Memory.read m page);
  check_int "owner before the boundary" 1 (line_owner m (page - 1));
  check_int "owner after the boundary" 2 (line_owner m page);
  check_int "both pages backed" (2 * page) (Memory.resident_words m);
  let poisoned a = Memory.is_poisoned m a in
  Memory.poison m (page - 6) ~len:12;
  check_bool "before the range" false (poisoned (page - 7));
  for a = page - 6 to page + 5 do
    check_bool (Printf.sprintf "poisoned %d" a) true (poisoned a)
  done;
  check_bool "after the range" false (poisoned (page + 6));
  Memory.unpoison m (page - 2) ~len:4;
  check_bool "still poisoned below" true (poisoned (page - 3));
  for a = page - 2 to page + 1 do
    check_bool (Printf.sprintf "unpoisoned %d" a) false (poisoned a)
  done;
  check_bool "still poisoned above" true (poisoned (page + 2))

let out_of_range f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_mem_partial_last_page () =
  (* [words] is not a multiple of the page size: the backed last page
     extends past [words], but the address space does not. *)
  let words = page + 100 in
  let m = Memory.create ~words in
  Memory.write m ~tid:0 ~at:0 (words - 1) 5;
  check_int "last word" 5 (Memory.read m (words - 1));
  check_bool "read past the end" true (out_of_range (fun () -> ignore (Memory.read m words)));
  check_bool "write past the end" true
    (out_of_range (fun () -> Memory.write m ~tid:0 ~at:0 words 1));
  check_bool "poison past the end" true
    (out_of_range (fun () -> Memory.poison m (words - 1) ~len:2));
  (* Globals: 8 + 4,184 words fit, the next line does not. *)
  ignore (Memory.alloc_global m (words - 16));
  (match Memory.alloc_global m 1 with
  | _ -> Alcotest.fail "alloc_global past the end"
  | exception Memory.Out_of_memory { requested; available } ->
      check_int "requested" 1 requested;
      check_int "available" 4 available);
  (* The heap arena ends where it did with flat memory. *)
  let machine = Machine.create { Config.default with Config.mem_words = words } in
  check_bool "arena too big" true
    (try
       ignore (Heap.create machine ~words:(words - 8));
       false
     with Memory.Out_of_memory _ -> true);
  let h = Heap.create machine ~words:(words - 16) in
  ignore (Heap.alloc h (words - 16));
  match Heap.alloc h 1 with
  | _ -> Alcotest.fail "Heap.alloc past the arena"
  | exception Memory.Out_of_memory { available; _ } -> check_int "heap available" 0 available

let test_mem_resident_bound () =
  (* The fig6 hash-table cell's memory size, with its peak of live heap:
     only the pages the heap touches are backed. *)
  let words = 1_704_960 in
  let m = Machine.create { Config.default with Config.mem_words = words } in
  let h = Heap.create m ~words:(1 lsl 20) in
  for _ = 1 to 65_536 / 4 do
    ignore (Heap.alloc h 4)
  done;
  check_int "live words" 65_536 (Heap.live_words h);
  let resident = Memory.resident_words (Machine.memory m) in
  check_bool
    (Printf.sprintf "resident %d < words / 8" resident)
    true
    (resident < words / 8)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

(* The per-thread cache is part of the machine; these read its account,
   [cache_misses], after each load ([`L addr]) of thread 0's [steps],
   which may also work ([`W ticks]). [writer] runs as thread 1 after 200
   ticks of work, under SC, so its store is in memory at once. *)
let cache_misses_after ?(cache_bits = 12) ?(writer = fun () -> ()) steps =
  let m = Machine.create Config.(with_consistency Sc { default with cache_bits }) in
  let seen = ref [] in
  ignore
    (Machine.spawn m (fun () ->
         List.iter
           (function
             | `W n -> Sim.work n
             | `L a ->
                 ignore (Sim.load a);
                 seen := (Machine.stats m 0).cache_misses :: !seen)
           steps));
  ignore (Machine.spawn m (fun () -> Sim.work 200; writer ()));
  ignore (Machine.run m);
  List.rev !seen

let test_cache_hit_miss () =
  (* Thread 1 writes word 8's line while thread 0 works. *)
  let writer () = Sim.store 9 1 in
  Alcotest.(check (list int))
    "cold miss, hit, version invalidates, hit after refill" [ 1; 1; 2; 2 ]
    (cache_misses_after ~writer [ `L 8; `L 8; `W 400; `L 8; `L 8 ]);
  Alcotest.(check (list int))
    "a write of another line invalidates nothing" [ 1; 1; 1 ]
    (cache_misses_after ~writer:(fun () -> Sim.store 16 1) [ `L 8; `L 8; `W 400; `L 8 ])

let test_cache_conflict () =
  (* Lines 1 and 5 (words 8 and 40) conflict in a 4-set cache; line 2
     (word 16) does not. *)
  Alcotest.(check (list int))
    "evicted" [ 1; 2; 3 ]
    (cache_misses_after ~cache_bits:2 [ `L 8; `L 40; `L 8 ]);
  Alcotest.(check (list int))
    "another set" [ 1; 2; 2 ]
    (cache_misses_after ~cache_bits:2 [ `L 8; `L 16; `L 8 ])

(* ------------------------------------------------------------------ *)
(* Machine: basic instruction semantics                                *)
(* ------------------------------------------------------------------ *)

let sc_config = Config.(with_consistency Sc default)

let tso_adversarial =
  Config.(with_drain Drain_adversarial (with_consistency Tso default))

let tbtso ?(delta = 200) () =
  Config.(with_drain Drain_adversarial (with_consistency (Tbtso delta) default))

let run_machine ?max_ticks cfg threads =
  let m = Machine.create cfg in
  let globals = Machine.alloc_global m 16 in
  List.iter (fun f -> ignore (Machine.spawn m (fun () -> f globals))) threads;
  let reason = match max_ticks with
    | None -> Machine.run m
    | Some n -> Machine.run ~max_ticks:n m
  in
  (m, reason)

let test_machine_store_load_forwarding () =
  (* Under adversarial TSO drains, a thread still reads its own store. *)
  let result = ref (-1) in
  let _, reason =
    run_machine tso_adversarial
      [ (fun g ->
          Sim.store g 7;
          result := Sim.load g) ]
  in
  check_bool "finished" true (reason = Machine.All_finished);
  check_int "forwarded" 7 !result

let test_machine_fence_publishes () =
  let observed = ref (-1) in
  let _, _ =
    run_machine tso_adversarial
      [
        (fun g ->
          Sim.store g 9;
          Sim.fence ();
          (* signal via an atomic (drains are adversarial) *)
          ignore (Sim.xchg (g + 8) 1));
        (fun g ->
          Sim.spin_while (fun () -> Sim.load (g + 8) = 0);
          observed := Sim.load g);
      ]
  in
  check_int "fence made store visible" 9 !observed

let test_machine_sb_reordering_observable_tso () =
  (* Classic SB litmus on the machine: with adversarial drains both loads
     can miss both stores. *)
  let r0 = ref (-1) and r1 = ref (-1) in
  let _, _ =
    run_machine tso_adversarial
      [
        (fun g ->
          Sim.store g 1;
          r0 := Sim.load (g + 8));
        (fun g ->
          Sim.store (g + 8) 1;
          r1 := Sim.load g);
      ]
  in
  check_int "t0 missed t1's store" 0 !r0;
  check_int "t1 missed t0's store" 0 !r1

let test_machine_sb_never_reorders_sc () =
  (* Under SC, at least one thread sees the other's flag, whatever the
     interleaving: check across many seeds. *)
  for seed = 1 to 40 do
    let cfg = Config.with_seed (Int64.of_int seed) sc_config in
    let cfg = Config.with_jitter 0.4 cfg in
    let r0 = ref (-1) and r1 = ref (-1) in
    let _, _ =
      run_machine cfg
        [
          (fun g ->
            Sim.store g 1;
            r0 := Sim.load (g + 8));
          (fun g ->
            Sim.store (g + 8) 1;
            r1 := Sim.load g);
        ]
    in
    check_bool "SC forbids (0,0)" false (!r0 = 0 && !r1 = 0)
  done

let test_machine_tbtso_bounds_visibility () =
  (* With adversarial drains under TBTSO[Δ], a store becomes visible to
     another thread no later than Δ ticks after issue. *)
  let delta = 200 in
  let seen_at = ref (-1) and stored_at = ref (-1) in
  let _, _ =
    run_machine (tbtso ~delta ())
      [
        (fun g ->
          stored_at := Sim.clock ();
          Sim.store g 1;
          (* Keep the thread busy so it never fences on exit paths. *)
          Sim.work 10_000);
        (fun g ->
          Sim.spin_while (fun () -> Sim.load g = 0);
          seen_at := Sim.clock ());
      ]
  in
  check_bool "visible" true (!seen_at >= 0);
  (* Slack: clock-read latencies on both sides, a cache miss on the
     reader's observing load, and scheduling granularity. *)
  check_bool "within delta" true
    (!seen_at - !stored_at
    <= delta + Config.default_costs.cache_miss + (2 * Config.default_costs.clock_read) + 10)

let test_machine_tso_unbounded_invisibility () =
  (* Same program under plain TSO with adversarial drains: the reader
     spins forever; the run must hit max_ticks with the store invisible. *)
  let m = Machine.create tso_adversarial in
  let g = Machine.alloc_global m 16 in
  ignore
    (Machine.spawn m (fun () ->
         Sim.store g 1;
         Sim.work 1_000_000));
  let saw = ref false in
  ignore
    (Machine.spawn m (fun () ->
         Sim.spin_while (fun () -> Sim.load g = 0 && not (Sim.stopping ()));
         if Sim.load g <> 0 then saw := true));
  let reason = Machine.run ~max_ticks:5_000 m in
  check_bool "timed out" true (reason = Machine.Max_ticks);
  Machine.request_stop m;
  ignore (Machine.run ~max_ticks:10_000 m);
  Machine.kill_remaining m;
  check_bool "store stayed buffered" false !saw

let test_machine_cas () =
  let ok = ref false and fail = ref true and final = ref 0 in
  let _, _ =
    run_machine sc_config
      [
        (fun g ->
          Sim.store g 5;
          ok := Sim.cas g ~expected:5 ~desired:6;
          fail := Sim.cas g ~expected:5 ~desired:7;
          final := Sim.load g);
      ]
  in
  check_bool "cas success" true !ok;
  check_bool "cas failure" false !fail;
  check_int "final value" 6 !final

let test_machine_cas_drains_buffer () =
  (* x86 locked ops flush the store buffer: after a CAS, earlier stores
     are visible to other threads even with adversarial drains. *)
  let observed = ref (-1) in
  let _, _ =
    run_machine tso_adversarial
      [
        (fun g ->
          Sim.store g 3;
          ignore (Sim.cas (g + 8) ~expected:0 ~desired:1));
        (fun g ->
          Sim.spin_while (fun () -> Sim.load (g + 8) = 0);
          observed := Sim.load g);
      ]
  in
  check_int "earlier store visible after CAS" 3 !observed

let test_machine_faa_xchg () =
  let r1 = ref (-1) and r2 = ref (-1) and final = ref (-1) in
  let _, _ =
    run_machine sc_config
      [
        (fun g ->
          r1 := Sim.faa g 5;
          r2 := Sim.xchg g 100;
          final := Sim.load g);
      ]
  in
  check_int "faa returns old" 0 !r1;
  check_int "xchg returns old" 5 !r2;
  check_int "final" 100 !final

let test_machine_faa_atomic_under_contention () =
  let cfg = Config.with_jitter 0.3 Config.default in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 8 in
  let n_threads = 8 and per_thread = 50 in
  for _ = 1 to n_threads do
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to per_thread do
             ignore (Sim.faa g 1)
           done))
  done;
  ignore (Machine.run m);
  check_int "all increments landed" (n_threads * per_thread) (Memory.read (Machine.memory m) g)

let test_machine_clock_monotonic () =
  let ts = ref [] in
  let _, _ =
    run_machine sc_config
      [
        (fun _ ->
          for _ = 1 to 10 do
            ts := Sim.clock () :: !ts
          done);
      ]
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_increasing rest
    | _ -> true
  in
  check_bool "clock strictly increases" true (strictly_increasing !ts)

let test_machine_work_costs_time () =
  let t0 = ref 0 and t1 = ref 0 in
  let _, _ =
    run_machine sc_config
      [
        (fun _ ->
          t0 := Sim.clock ();
          Sim.work 500;
          t1 := Sim.clock ());
      ]
  in
  check_bool "work consumed >= 500 ticks" true (!t1 - !t0 >= 500)

let test_machine_stall_until () =
  let t1 = ref 0 in
  let _, _ =
    run_machine sc_config
      [
        (fun _ ->
          Sim.stall_until 10_000;
          t1 := Sim.clock ());
      ]
  in
  check_bool "woke after target" true (!t1 >= 10_000)

let test_machine_stall_for () =
  let t0 = ref 0 and t1 = ref 0 in
  let _, _ =
    run_machine sc_config
      [
        (fun _ ->
          t0 := Sim.clock ();
          Sim.stall_for 777;
          t1 := Sim.clock ());
      ]
  in
  check_bool "relative stall" true (!t1 - !t0 >= 777)

let test_machine_thread_failure () =
  let m = Machine.create sc_config in
  ignore (Machine.spawn m (fun () -> failwith "boom"));
  check_bool "failure surfaces" true
    (try
       ignore (Machine.run m);
       false
     with Machine.Thread_failure { tid = 0; exn = Failure msg } -> msg = "boom")

let test_machine_uaf_detection () =
  let m = Machine.create Config.default in
  let h = Heap.create m ~words:256 in
  let block = Heap.alloc h 4 in
  ignore
    (Machine.spawn m (fun () ->
         Sim.store block 1;
         Sim.fence ();
         (* Driver frees underneath us via a label hook shim; here we free
            directly from thread code for simplicity. *)
         Heap.free h block;
         ignore (Sim.load block)));
  check_bool "UAF raises" true
    (try
       ignore (Machine.run m);
       false
     with
     | Machine.Thread_failure { exn = Memory.Use_after_free _; _ }
     | Memory.Use_after_free _ -> true)

let test_machine_wild_address () =
  (* An access outside simulated memory is a program error: Machine.run
     raises Invalid_argument (directly or as the thread's failure), never
     Use_after_free, whatever the model and UAF setting. *)
  let mem_words = 1024 in
  let ops =
    [
      ("load", fun a -> ignore (Sim.load a));
      ("store", fun a -> Sim.store a 1);
      ("cas", fun a -> ignore (Sim.cas a ~expected:0 ~desired:1));
    ]
  in
  List.iter
    (fun (consistency, detect_uaf) ->
      List.iter
        (fun addr ->
          List.iter
            (fun (name, op) ->
              let cfg = { Config.default with Config.mem_words; consistency; detect_uaf } in
              let m = Machine.create cfg in
              ignore (Machine.spawn m (fun () -> op addr));
              let outcome =
                match Machine.run m with
                | _ -> "returned"
                | exception Invalid_argument _
                | exception Machine.Thread_failure { exn = Invalid_argument _; _ } ->
                    "invalid"
                | exception e -> Printexc.to_string e
              in
              Alcotest.(check string)
                (Printf.sprintf "%s at %d (uaf %b)" name addr detect_uaf)
                "invalid" outcome)
            ops)
        [ -1; mem_words; 1 lsl 40 ])
    [ (Config.Sc, true); (Config.Tso, true); (Config.Tso, false); (Config.Tbtso 200, false) ]

let test_machine_uaf_on_buffered_store_commit () =
  (* A store issued while the block is live but drained after free is a
     real SMR race; the machine flags it at commit time. *)
  let m = Machine.create (tbtso ~delta:1000 ()) in
  let h = Heap.create m ~words:256 in
  let block = Heap.alloc h 4 in
  let aux = Machine.alloc_global m 8 in
  ignore
    (Machine.spawn m (fun () ->
         Sim.store block 1;
         (* Adversarial drains: the store sits buffered while the thread
            stays alive doing unrelated work. *)
         Sim.work 100;
         Sim.store aux 1));
  check_bool "commit-time UAF" true
    (try
       (* Free the block from the driver while the store is in flight. *)
       ignore (Machine.run ~max_ticks:2 m);
       Heap.free h block;
       (* The exit drain at thread completion commits the stale store. *)
       ignore (Machine.run m);
       false
     with Memory.Use_after_free _ -> true)

let test_machine_interrupts_flush () =
  (* Timer interrupts model kernel entries that drain store buffers
     (Section 6.2): even with adversarial drains the store becomes
     visible within an interrupt period. *)
  let period = 400 in
  let cfg = { (tbtso ~delta:1_000_000 ()) with Config.interrupt_period = Some period } in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 16 in
  let stored_at = ref (-1) and seen_at = ref (-1) in
  ignore
    (Machine.spawn m (fun () ->
         stored_at := Sim.clock ();
         Sim.store g 1;
         Sim.work 100_000));
  ignore
    (Machine.spawn m (fun () ->
         Sim.spin_while (fun () -> Sim.load g = 0);
         seen_at := Sim.clock ()));
  ignore (Machine.run ~max_ticks:50_000 m);
  Machine.kill_remaining m;
  check_bool "seen" true (!seen_at >= 0);
  check_bool "within period + slack" true (!seen_at - !stored_at <= period + 300)

let test_machine_interrupt_hook () =
  (* Period must exceed the interrupt service cost or the thread can
     never run between interrupts. *)
  let cfg = { sc_config with Config.interrupt_period = Some 1000 } in
  let m = Machine.create cfg in
  let count = ref 0 in
  Machine.set_interrupt_hook m (fun ~tid:_ ~now:_ -> incr count);
  ignore
    (Machine.spawn m (fun () ->
         (* Stay alive ~10 interrupt periods. *)
         while Sim.clock () < 10_000 do
           Sim.work 100
         done));
  ignore (Machine.run m);
  check_bool "hook fired repeatedly" true (!count >= 8)

let test_machine_stats () =
  let m = Machine.create Config.default in
  let g = Machine.alloc_global m 16 in
  ignore
    (Machine.spawn m (fun () ->
         Sim.store g 1;
         ignore (Sim.load g);
         ignore (Sim.cas g ~expected:1 ~desired:2);
         Sim.fence ();
         ignore (Sim.clock ())));
  ignore (Machine.run m);
  let s = Machine.stats m 0 in
  check_int "loads" 1 s.loads;
  check_int "stores" 1 s.stores;
  check_int "rmws" 1 s.rmws;
  check_int "fences" 1 s.fences;
  check_int "clock reads" 1 s.clock_reads;
  check_int "drains" 1 s.drains

let test_machine_label_hook () =
  let m = Machine.create sc_config in
  let labels = ref [] in
  Machine.set_label_hook m (fun ~tid ~now:_ s -> labels := (tid, s) :: !labels);
  ignore (Machine.spawn m (fun () -> Sim.label "hello"));
  ignore (Machine.run m);
  check_bool "label captured" true (!labels = [ (0, "hello") ])

let test_machine_clock_jump_is_fast () =
  (* A 50M-tick stall must complete quickly thanks to clock jumping. *)
  let t_start = Unix.gettimeofday () in
  let _, _ = run_machine sc_config [ (fun _ -> Sim.stall_until 50_000_000) ] in
  check_bool "fast forward" true (Unix.gettimeofday () -. t_start < 1.0)

(* Each thread reads the clock at tick 1, which keeps it busy until
   [max_int]: no thread can act again, and the deadlock message names
   the instruction each thread is held at. A finished thread is left
   out. *)
let test_machine_deadlock_message () =
  let cfg =
    { sc_config with costs = { Config.default_costs with clock_read = max_int - 1 } }
  in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 8 in
  let held_at next = fun () -> ignore (Sim.clock ()); next () in
  List.iter
    (fun body -> ignore (Machine.spawn m body))
    [
      held_at (fun () -> ignore (Sim.load g));
      held_at (fun () -> Sim.store g 1);
      held_at (fun () -> ignore (Sim.cas g ~expected:0 ~desired:1));
      held_at (fun () -> ignore (Sim.faa g 1));
      held_at (fun () -> ignore (Sim.xchg g 1));
      held_at Sim.fence;
      held_at (fun () -> ignore (Sim.clock ()));
      held_at (fun () -> Sim.work 3);
      held_at (fun () -> Sim.stall_for 3);
      held_at (fun () -> ignore (Sim.await g ~until:(fun v -> v = 1) ~backoff:0));
      (fun () -> Sim.stall_until max_int);
      (fun () -> ());
    ];
  let stuck tid what = Printf.sprintf " [tid %d ready_at %d buffered 0 pending %s]" tid max_int what in
  let expected =
    "deadlock at tick 2:"
    ^ String.concat ""
        (List.mapi stuck
           [ "load"; "store"; "cas"; "faa"; "xchg"; "fence"; "clock"; "work"; "stall"; "probe"; "complete" ])
  in
  match Machine.run m with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Machine.Deadlock msg -> Alcotest.(check string) "message" expected msg

let test_machine_drain_all () =
  let m = Machine.create tso_adversarial in
  let g = Machine.alloc_global m 16 in
  ignore (Machine.spawn m (fun () -> Sim.store g 5));
  ignore (Machine.run m);
  (* Thread finished but its store may still be buffered. *)
  Machine.drain_all m;
  check_int "drained" 5 (Memory.read (Machine.memory m) g)

let test_machine_max_ticks_deadline () =
  (* The quiet-period fast-forward must clamp at the run deadline: a
     thread stalling 50M ticks with max_ticks = 100 stops at exactly
     tick 100, not at the stall's wakeup. *)
  let m, reason =
    run_machine ~max_ticks:100 sc_config [ (fun _ -> Sim.stall_until 50_000_000) ]
  in
  check_bool "max ticks" true (reason = Machine.Max_ticks);
  check_int "clock at deadline" 100 (Machine.now m)

let test_machine_drain_kind_split () =
  (* End-of-run drains are their own statistic, not "voluntary": under
     adversarial drains all three stores survive to the exit drain. *)
  let m, reason =
    run_machine tso_adversarial
      [ (fun g -> Sim.store g 1; Sim.store (g + 8) 2; Sim.store g 3) ]
  in
  check_bool "finished" true (reason = Machine.All_finished);
  let s = Machine.stats m 0 in
  check_int "total drains" 3 s.drains;
  check_int "exit drains" 3 s.exit_drains;
  check_int "forced drains" 0 s.forced_drains;
  (* Δ-deadline commits count as forced, and are not double-counted at
     exit: the store is out of the buffer long before the thread ends. *)
  let m, _ =
    run_machine
      Config.(with_drain Drain_adversarial (with_consistency (Tbtso 5) default))
      [ (fun g -> Sim.store g 7; Sim.work 50) ]
  in
  let s = Machine.stats m 0 in
  check_int "total drains (tbtso)" 1 s.drains;
  check_int "forced drains (tbtso)" 1 s.forced_drains;
  check_int "exit drains (tbtso)" 0 s.exit_drains

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let with_heap f =
  let m = Machine.create Config.default in
  let h = Heap.create m ~words:4096 in
  f m h

let test_heap_alloc_free_reuse () =
  with_heap (fun _ h ->
      let a = Heap.alloc h 4 in
      Heap.free h a;
      let b = Heap.alloc h 4 in
      check_int "reused" a b)

let test_heap_alignment () =
  with_heap (fun _ h ->
      let a = Heap.alloc h 3 in
      let b = Heap.alloc h 3 in
      check_int "2-aligned" 0 (a mod 2);
      check_int "2-aligned" 0 (b mod 2);
      check_bool "disjoint" true (b >= a + 3 || a >= b + 3))

let test_heap_zeroing () =
  with_heap (fun m h ->
      let a = Heap.alloc h 4 in
      Memory.write (Machine.memory m) ~tid:0 ~at:0 a 99;
      Heap.free h a;
      let b = Heap.alloc h 4 in
      check_int "same block" a b;
      check_int "zeroed on realloc" 0 (Memory.read (Machine.memory m) b))

let test_heap_double_free () =
  with_heap (fun _ h ->
      let a = Heap.alloc h 4 in
      Heap.free h a;
      check_bool "double free raises" true
        (try
           Heap.free h a;
           false
         with Heap.Double_free _ -> true))

let test_heap_bad_free () =
  with_heap (fun _ h ->
      check_bool "bad free raises" true
        (try
           Heap.free h 424242;
           false
         with Heap.Bad_free _ -> true))

let test_heap_accounting () =
  with_heap (fun _ h ->
      let a = Heap.alloc h 10 in
      let b = Heap.alloc h 6 in
      check_int "live blocks" 2 (Heap.live_blocks h);
      check_int "live words" 16 (Heap.live_words h);
      check_int "peak" 16 (Heap.peak_words h);
      Heap.free h a;
      check_int "live after free" 6 (Heap.live_words h);
      check_int "peak sticky" 16 (Heap.peak_words h);
      Heap.free h b;
      check_int "allocations" 2 (Heap.allocations h);
      check_int "frees" 2 (Heap.frees h))

let test_heap_block_size () =
  with_heap (fun _ h ->
      let a = Heap.alloc h 7 in
      check_int "size" 7 (Heap.block_size h a);
      Heap.free h a;
      check_bool "gone" true
        (try
           ignore (Heap.block_size h a);
           false
         with Heap.Bad_free _ -> true))

let test_heap_poison_lifecycle () =
  with_heap (fun m h ->
      let mem = Machine.memory m in
      let a = Heap.alloc h 4 in
      check_bool "live block unpoisoned" false (Memory.is_poisoned mem a);
      Heap.free h a;
      check_bool "freed block poisoned" true (Memory.is_poisoned mem (a + 3));
      let b = Heap.alloc h 4 in
      check_bool "realloc unpoisons" false (Memory.is_poisoned mem (b + 3)))

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

(* The ring-buffer store buffer behaves like a plain FIFO list model of
   (addr, value, enqueued_at, ready_at, rfo_until) entries. An op
   enqueues, drops the head, or sets the head's RFO time; after each, the
   ring's slots from [head] hold the model in order, and [newest_for]
   names the newest matching slot (enqueue times are unique). Lists of up
   to 200 ops outgrow the 8 initial slots, mostly with the head away from
   slot 0. *)
let prop_sb_model =
  QCheck.Test.make ~name:"store_buffer matches list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (pair (int_bound 7) (int_bound 100)))
    (fun ops ->
      let b = Store_buffer.create () in
      let model = ref [] in
      let ring_matches () =
        let mask = Array.length b.addr - 1 in
        b.len = List.length !model
        && List.for_all Fun.id
             (List.mapi
                (fun i (a, v, at, ready, rfo) ->
                  let s = (b.head + i) land mask in
                  b.addr.(s) = a && b.value.(s) = v && b.enqueued_at.(s) = at
                  && b.ready_at.(s) = ready && b.rfo_until.(s) = rfo)
                !model)
      in
      let forwarding_matches () =
        List.for_all
          (fun a ->
            let newest =
              List.fold_left (fun acc ((ma, _, _, _, _) as e) -> if ma = a then Some e else acc) None !model
            in
            let s = Store_buffer.newest_for b a in
            match newest with
            | None -> s = -1
            | Some (_, v, at, _, _) -> s >= 0 && b.value.(s) = v && b.enqueued_at.(s) = at)
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      List.for_all Fun.id
        (List.mapi
           (fun i (addr, v) ->
             (match !model with
             | (a, mv, at, ready, _) :: rest when v mod 5 = 1 ->
                 Store_buffer.set_oldest_rfo b (1000 + i);
                 model := (a, mv, at, ready, 1000 + i) :: rest
             | _ :: rest when v mod 3 = 0 ->
                 Store_buffer.drop_oldest b;
                 model := rest
             | _ ->
                 Store_buffer.enqueue b ~addr ~value:v ~at:i ~ready_at:(i + v);
                 model := !model @ [ (addr, v, i, i + v, 0) ]);
             ring_matches () && forwarding_matches ())
           ops))

let prop_heap_no_overlap =
  QCheck.Test.make ~name:"heap blocks never overlap" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 8))
    (fun sizes ->
      let m = Machine.create Config.default in
      let h = Heap.create m ~words:8192 in
      let blocks = List.map (fun n -> (Heap.alloc h n, n)) sizes in
      let rec pairwise = function
        | [] -> true
        | (a, na) :: rest ->
            List.for_all (fun (b, nb) -> a + na <= b || b + nb <= a) rest && pairwise rest
      in
      pairwise blocks)

let prop_machine_counter_deterministic =
  (* Same seed -> identical final state and tick count. *)
  QCheck.Test.make ~name:"machine runs are deterministic" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run () =
        let cfg = Config.with_seed (Int64.of_int seed) (Config.with_jitter 0.2 Config.default) in
        let m = Machine.create cfg in
        let g = Machine.alloc_global m 8 in
        for _ = 1 to 4 do
          ignore
            (Machine.spawn m (fun () ->
                 for _ = 1 to 20 do
                   ignore (Sim.faa g 1);
                   Sim.store (g + 1) (Sim.tid ());
                   ignore (Sim.load (g + 1))
                 done))
        done;
        ignore (Machine.run m);
        (Machine.now m, Memory.read (Machine.memory m) g)
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* RFO (read-for-ownership) cost model                                 *)
(* ------------------------------------------------------------------ *)

let test_rfo_delays_fenced_store () =
  (* A fence after a store to a line another thread has read must wait
     out the ownership upgrade; the same store without a foreign reader
     commits quickly. *)
  let run ~with_reader =
    let cfg = Config.(with_drain (Drain_fixed 0) default) in
    let m = Machine.create cfg in
    let g = Machine.alloc_global m 16 in
    let elapsed = ref 0 in
    if with_reader then
      ignore
        (Machine.spawn m (fun () ->
             (* Touch the line, then leave. *)
             ignore (Sim.load g);
             Sim.work 5));
    ignore
      (Machine.spawn m (fun () ->
           Sim.work 20 (* let the reader touch the line first *);
           let t0 = Sim.clock () in
           Sim.store g 1;
           Sim.fence ();
           elapsed := Sim.clock () - t0));
    ignore (Machine.run m);
    !elapsed
  in
  let quiet = run ~with_reader:false in
  let contended = run ~with_reader:true in
  check_bool "RFO adds about a miss of latency" true
    (contended - quiet >= Config.default_costs.cache_miss - 2)

let test_rfo_hidden_without_fence () =
  (* The same contended store with no fence: the store buffer hides the
     upgrade latency from the issuing thread entirely. *)
  let cfg = Config.(with_drain (Drain_fixed 0) default) in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 16 in
  let elapsed = ref 0 in
  ignore
    (Machine.spawn m (fun () ->
         ignore (Sim.load g);
         Sim.work 5));
  ignore
    (Machine.spawn m (fun () ->
         Sim.work 20;
         let t0 = Sim.clock () in
         Sim.store g 1;
         elapsed := Sim.clock () - t0;
         Sim.work 200));
  ignore (Machine.run m);
  check_bool "unfenced store is cheap despite contention" true
    (!elapsed <= Config.default_costs.store + 3)

let test_rfo_store_still_commits () =
  (* The RFO delays the drain but the value still reaches memory. *)
  let cfg = Config.(with_drain (Drain_fixed 0) default) in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 16 in
  ignore (Machine.spawn m (fun () -> ignore (Sim.load g)));
  ignore
    (Machine.spawn m (fun () ->
         Sim.work 10;
         Sim.store g 42));
  ignore (Machine.run m);
  check_int "committed" 42 (Memory.read (Machine.memory m) g)

(* ------------------------------------------------------------------ *)
(* TSO[S] machine mode                                                 *)
(* ------------------------------------------------------------------ *)

let test_tsos_capacity () =
  (* With adversarial drains and S=2, a third store must push the first
     to memory before issuing. *)
  let cfg =
    Config.(with_drain Drain_adversarial (with_consistency (Tso_spatial 2) default))
  in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 32 in
  ignore
    (Machine.spawn m (fun () ->
         Sim.store g 1;
         Sim.store (g + 8) 2;
         Sim.store (g + 16) 3;
         Sim.work 100));
  ignore (Machine.run ~max_ticks:10_000 m);
  Machine.kill_remaining m;
  let mem = Machine.memory m in
  check_int "first store forced out" 1 (Memory.read mem g);
  (* The younger two may legitimately still be buffered. *)
  check_bool "no overflow beyond S" true
    (Memory.read mem (g + 8) = 0 || Memory.read mem (g + 8) = 2)

let test_tsos_spatial_flush_machine () =
  (* A reader eventually sees the oldest store once the writer issues S
     more, even though drains are adversarial and there is no Δ. *)
  let cfg =
    Config.(with_drain Drain_adversarial (with_consistency (Tso_spatial 1) default))
  in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 32 in
  let seen = ref false in
  ignore
    (Machine.spawn m (fun () ->
         Sim.store g 1;
         (* Still buffered (S=1 allows one entry). *)
         Sim.work 200;
         (* This store forces g's entry to commit. *)
         Sim.store (g + 8) 1;
         Sim.work 2_000));
  ignore
    (Machine.spawn m (fun () ->
         Sim.spin_while (fun () -> Sim.load g = 0 && not (Sim.stopping ()));
         seen := Sim.load g = 1));
  ignore (Machine.run ~max_ticks:5_000 m);
  Machine.request_stop m;
  ignore (Machine.run ~max_ticks:5_000 m);
  Machine.kill_remaining m;
  check_bool "old store became visible via the spatial bound" true !seen

(* ------------------------------------------------------------------ *)
(* Tbtso_hw: the Section 6.1 bail-out mechanism, operationally         *)
(* ------------------------------------------------------------------ *)

let hw_cfg ?(tau = 300) ?(quiesce = 100) drain =
  Config.(with_drain drain (with_consistency (Tbtso_hw { tau; quiesce }) default))

let test_hw_bound_emerges () =
  (* Adversarial drains: nothing drains voluntarily, yet the bail-out
     bounds visibility by tau + quiesce + slack. *)
  let tau = 300 and quiesce = 100 in
  let m = Machine.create (hw_cfg ~tau ~quiesce Config.Drain_adversarial) in
  let g = Machine.alloc_global m 16 in
  let stored_at = ref (-1) and seen_at = ref (-1) in
  ignore
    (Machine.spawn m (fun () ->
         stored_at := Sim.clock ();
         Sim.store g 1;
         Sim.work 10_000));
  ignore
    (Machine.spawn m (fun () ->
         Sim.spin_while (fun () -> Sim.load g = 0);
         seen_at := Sim.clock ()));
  ignore (Machine.run ~max_ticks:20_000 m);
  Machine.kill_remaining m;
  check_bool "visible" true (!seen_at >= 0);
  check_bool "bounded by tau+quiesce" true
    (!seen_at - !stored_at <= tau + quiesce + Config.default_costs.cache_miss + 30);
  check_bool "a bail-out happened" true (Machine.quiescence_events m >= 1)

let test_hw_timeout_rarely_expires () =
  (* Under the normal (geometric) drain distribution stores propagate
     well inside tau, so the expensive mechanism never fires — the
     design goal of Section 6.1 ("a timeout that expires rarely"). *)
  let m =
    Machine.create (hw_cfg ~tau:2_000 ~quiesce:500 (Config.Drain_geometric { p = 0.5; cap = 200 }))
  in
  let g = Machine.alloc_global m 16 in
  for i = 0 to 3 do
    ignore
      (Machine.spawn m (fun () ->
           for k = 1 to 500 do
             Sim.store (g + (i mod 2 * 8)) k;
             ignore (Sim.load g);
             Sim.work 5
           done))
  done;
  ignore (Machine.run m);
  check_int "no bail-outs" 0 (Machine.quiescence_events m)

let test_hw_quiescence_freezes_execution () =
  (* During the quiescence window no instruction executes: a spinning
     counter shows a gap of at least [quiesce] ticks. *)
  let tau = 200 and quiesce = 400 in
  let m = Machine.create (hw_cfg ~tau ~quiesce Config.Drain_adversarial) in
  let g = Machine.alloc_global m 16 in
  let gaps = ref 0 in
  ignore
    (Machine.spawn m (fun () ->
         Sim.store g 1;
         Sim.work 5_000));
  ignore
    (Machine.spawn m (fun () ->
         let last = ref (Sim.clock ()) in
         for _ = 1 to 300 do
           let now = Sim.clock () in
           if now - !last > quiesce - 10 then incr gaps;
           last := now
         done));
  ignore (Machine.run ~max_ticks:20_000 m);
  Machine.kill_remaining m;
  check_bool "observed the freeze" true (!gaps >= 1)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_records_sequence () =
  let m = Machine.create Config.(with_consistency Sc default) in
  let g = Machine.alloc_global m 16 in
  let tr = Trace.create () in
  Trace.attach tr m;
  ignore
    (Machine.spawn m (fun () ->
         Sim.store g 5;
         ignore (Sim.load g);
         ignore (Sim.cas g ~expected:5 ~desired:6);
         Sim.fence ();
         Sim.label "done"));
  ignore (Machine.run m);
  let whats = List.map (fun (e : Trace.event) -> e.what) (Trace.events tr) in
  check_bool "sequence" true
    (whats
    = [
        Trace.T_store { addr = g; value = 5 };
        Trace.T_load { addr = g; value = 5 };
        Trace.T_rmw { addr = g; old_value = 5; new_value = 6 };
        Trace.T_fence;
        Trace.T_label "done";
      ]);
  let times = List.map (fun (e : Trace.event) -> e.at) (Trace.events tr) in
  check_bool "timestamps nondecreasing" true
    (List.sort compare times = times)

let test_trace_ring_overflow () =
  let m = Machine.create Config.(with_consistency Sc default) in
  let g = Machine.alloc_global m 8 in
  let tr = Trace.create ~capacity:16 () in
  Trace.attach tr m;
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 40 do
           Sim.store g i
         done));
  ignore (Machine.run m);
  check_int "capacity kept" 16 (Trace.length tr);
  check_int "dropped counted" 24 (Trace.dropped tr);
  (* The ring keeps the newest events. *)
  (match List.rev (Trace.events tr) with
  | { Trace.what = Trace.T_store { value = 40; _ }; _ } :: _ -> ()
  | _ -> Alcotest.fail "newest event missing");
  Trace.clear tr;
  check_int "cleared" 0 (Trace.length tr)

let test_trace_filter () =
  let m = Machine.create Config.(with_consistency Sc default) in
  let g = Machine.alloc_global m 16 in
  let tr = Trace.create () in
  Trace.attach tr m;
  ignore (Machine.spawn m (fun () -> Sim.store g 1; Sim.fence ()));
  ignore (Machine.spawn m (fun () -> Sim.store (g + 8) 2));
  ignore (Machine.run m);
  check_int "by tid" 2 (List.length (Trace.filter tr ~tid:0 ()));
  (* Address-less events (fences, clock reads, labels) pass an [addr]
     filter by default and are dropped with [~include_neutral:false]. *)
  check_int "by addr keeps neutral" 2 (List.length (Trace.filter tr ~addr:(g + 8) ()));
  check_int "by addr strict" 1
    (List.length (Trace.filter tr ~addr:(g + 8) ~include_neutral:false ()));
  check_int "both" 1 (List.length (Trace.filter tr ~tid:0 ~addr:(g + 8) ()));
  check_int "both strict" 0
    (List.length (Trace.filter tr ~tid:0 ~addr:(g + 8) ~include_neutral:false ()));
  (* Without an address filter the flag is inert. *)
  check_int "no addr ignores flag" 3
    (List.length (Trace.filter tr ~include_neutral:false ()));
  let s = Format.asprintf "%a" Trace.pp tr in
  check_bool "pp nonempty" true (String.length s > 10)

let test_trace_wraparound_order () =
  (* 20 events into an 8-slot ring: exactly the newest 8 survive, in
     order (oldest surviving first), and the drop count is exact. *)
  let m = Machine.create Config.(with_consistency Sc default) in
  let g = Machine.alloc_global m 8 in
  let tr = Trace.create ~capacity:8 () in
  Trace.attach tr m;
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 10 do
           Sim.store g i;
           Sim.fence ()
         done));
  ignore (Machine.run m);
  check_int "length" 8 (Trace.length tr);
  check_int "dropped" 12 (Trace.dropped tr);
  let whats = List.map (fun (e : Trace.event) -> e.what) (Trace.events tr) in
  let expected =
    List.concat_map
      (fun i -> [ Trace.T_store { addr = g; value = i }; Trace.T_fence ])
      [ 7; 8; 9; 10 ]
  in
  check_bool "window is the tail, oldest first" true (whats = expected);
  (* Filters must see only the surviving window, not ghosts of dropped
     events. *)
  check_int "filter keeps neutral on wrapped buffer" 8
    (List.length (Trace.filter tr ~addr:g ()));
  check_int "strict filter on wrapped buffer" 4
    (List.length (Trace.filter tr ~addr:g ~include_neutral:false ()))

(* ------------------------------------------------------------------ *)
(* Residency and machine-readable exports                              *)
(* ------------------------------------------------------------------ *)

let test_residency_delta_invariant () =
  (* The paper's temporal bound as a one-line assertion: with drains
     that never fire voluntarily, TBTSO[Δ] still caps — and, for an
     adversary, pins — every store's buffer residency at Δ, while plain
     TSO holds stores for the whole run. *)
  let delta = 40 in
  let prog g =
    for i = 1 to 50 do
      Sim.store g i;
      Sim.work 10
    done
  in
  let m, _ =
    run_machine
      Config.(with_drain Drain_adversarial (with_consistency (Tbtso delta) default))
      [ prog ]
  in
  let s = Machine.stats m 0 in
  check_bool "tbtso residency bounded by delta" true (s.max_residency <= delta);
  check_int "adversary pins residency at delta" delta s.max_residency;
  let h = Machine.residency m 0 in
  check_int "histogram max agrees with stats" s.max_residency
    (Tbtso_obs.Hist.max_value h);
  check_int "every commit observed" s.drains (Tbtso_obs.Hist.count h);
  check_bool "forced commits recorded under their kind" true
    (Tbtso_obs.Hist.count (Machine.residency_by_kind m 0 Machine.D_delta) > 0);
  check_int "no voluntary drains under the adversary" 0
    (Tbtso_obs.Hist.count (Machine.residency_by_kind m 0 Machine.D_voluntary));
  let m, _ =
    run_machine
      Config.(with_drain Drain_adversarial (with_consistency Tso default))
      [ prog ]
  in
  let s = Machine.stats m 0 in
  check_bool "tso residency unbounded (exceeds delta)" true
    (s.max_residency > delta)

let test_trace_commit_events () =
  let delta = 16 in
  let cfg =
    Config.(with_drain Drain_adversarial (with_consistency (Tbtso delta) default))
  in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 8 in
  let tr = Trace.create () in
  Trace.attach ~commits:true tr m;
  ignore
    (Machine.spawn m (fun () ->
         Sim.store g 9;
         Sim.work 40));
  ignore (Machine.run m);
  let commits =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.what with
        | Trace.T_commit { addr; value; age; kind } -> Some (addr, value, age, kind)
        | _ -> None)
      (Trace.events tr)
  in
  (match commits with
  | [ (addr, value, age, kind) ] ->
      check_int "commit addr" g addr;
      check_int "commit value" 9 value;
      check_int "forced commit at exactly delta" delta age;
      check_bool "kind is the delta deadline" true (kind = Machine.D_delta)
  | _ -> Alcotest.fail "expected exactly one commit event");
  (* The default attach records no commit events (existing traces keep
     their exact expected sequences). *)
  let m2 = Machine.create cfg in
  let g2 = Machine.alloc_global m2 8 in
  let tr2 = Trace.create () in
  Trace.attach tr2 m2;
  ignore (Machine.spawn m2 (fun () -> Sim.store g2 1; Sim.work 40));
  ignore (Machine.run m2);
  check_bool "no commits by default" true
    (List.for_all
       (fun (e : Trace.event) ->
         match e.what with Trace.T_commit _ -> false | _ -> true)
       (Trace.events tr2))

let test_trace_export_parses () =
  let module Json = Tbtso_obs.Json in
  let cfg =
    Config.(with_drain Drain_adversarial (with_consistency (Tbtso 16) default))
  in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 16 in
  let tr = Trace.create () in
  Trace.attach ~commits:true tr m;
  for t = 0 to 1 do
    ignore
      (Machine.spawn m (fun () ->
           Sim.store (g + (t * 8)) 1;
           ignore (Sim.load (g + (((t + 1) mod 2) * 8)));
           Sim.work 40))
  done;
  ignore (Machine.run m);
  let with_temp f =
    let path = Filename.temp_file "tbtso_trace" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  let slurp path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  with_temp (fun path ->
      Trace_export.write_chrome_file path tr;
      match Json.member "traceEvents" (Json.of_string (slurp path)) with
      | Some (Json.List evs) ->
          check_bool "has events" true (List.length evs > 0);
          (* Every buffered store appears as a duration bar. *)
          let bars =
            List.filter
              (fun e -> Json.member "ph" e = Some (Json.String "X"))
              evs
          in
          check_int "one bar per commit" 2 (List.length bars)
      | _ -> Alcotest.fail "chrome export is not a trace_event document");
  with_temp (fun path ->
      Trace_export.write_jsonl_file path tr;
      let lines =
        String.split_on_char '\n' (slurp path)
        |> List.filter (fun l -> l <> "")
      in
      check_int "one line per event" (Trace.length tr) (List.length lines);
      List.iter (fun l -> ignore (Json.of_string l)) lines)

(* ------------------------------------------------------------------ *)
(* Sim.await: one machine instruction for a load/test/backoff loop     *)
(* ------------------------------------------------------------------ *)

(* The loop Sim.await is defined to be. *)
let loop_await ?deadline a ~until ~backoff =
  let rec go () =
    let v = Sim.load a in
    if until v then v
    else if match deadline with Some d -> Sim.clock () > d | None -> false then v
    else begin
      Sim.work backoff;
      go ()
    end
  in
  go ()

type spin = ?deadline:int -> int -> until:(int -> bool) -> backoff:int -> int

(* Other probe shapes over the awaited word [a], each with the loop it
   is defined to be. Several loads: [a], the next word (on [a]'s line),
   then [a] again, testing [a] both times. *)
let probe_loads ?deadline a ~until ~backoff =
  let vals = Array.make 3 0 in
  let loads =
    [|
      Sim.Load (a, Some (fun vs -> until vs.(0)));
      Sim.Load (a + 1, None);
      Sim.Load (a, Some (fun vs -> until vs.(2)));
    |]
  in
  let steps = if deadline = None then loads else Array.append loads [| Sim.Clock deadline |] in
  if Sim.probe steps vals ~backoff = 0 then vals.(0) else vals.(2)

let loop_loads ?deadline a ~until ~backoff =
  let rec go () =
    let v = Sim.load a in
    if until v then v
    else begin
      ignore (Sim.load (a + 1));
      let v = Sim.load a in
      if until v || match deadline with Some d -> Sim.clock () > d | None -> false then v
      else begin
        Sim.work backoff;
        go ()
      end
    end
  in
  go ()

(* A clock read with no deadline before the load. *)
let probe_clock_first ?deadline a ~until ~backoff =
  let vals = [| 0 |] in
  ignore
    (Sim.probe
       [| Sim.Clock None; Sim.Load (a, Some (fun vs -> until vs.(0))); Sim.Clock deadline |]
       vals ~backoff);
  vals.(0)

let loop_clock_first ?deadline a ~until ~backoff =
  let rec go () =
    ignore (Sim.clock ());
    let v = Sim.load a in
    if until v then v
    else
      let now = Sim.clock () in
      if match deadline with Some d -> now > d | None -> false then v
      else begin
        Sim.work backoff;
        go ()
      end
  in
  go ()

(* A CAS of 1 over 1: it waits for [a = 1], as every wait of
   [await_threads] does in effect, and ignores the deadline. *)
let probe_cas ?deadline:_ a ~until:_ ~backoff =
  ignore (Sim.probe [| Sim.Cas { addr = a; expected = 1; desired = 1 } |] [||] ~backoff);
  1

let loop_cas ?deadline:_ a ~until:_ ~backoff =
  let rec go () =
    if Sim.cas a ~expected:1 ~desired:1 then 1
    else begin
      Sim.work backoff;
      go ()
    end
  in
  go ()

(* A CAS of 1 over 1, then a load of [a] with the test, then a clock
   read with the deadline if one is given. *)
let with_deadline ?deadline steps =
  if deadline = None then steps else Array.append steps [| Sim.Clock deadline |]

let probe_cas_load ?deadline a ~until ~backoff =
  let vals = [| 0 |] in
  let steps =
    with_deadline ?deadline
      [| Sim.Cas { addr = a; expected = 1; desired = 1 }; Sim.Load (a, Some (fun vs -> until vs.(0))) |]
  in
  if Sim.probe steps vals ~backoff = 0 then 1 else vals.(0)

let loop_cas_load ?deadline a ~until ~backoff =
  let rec go () =
    if Sim.cas a ~expected:1 ~desired:1 then 1
    else
      let v = Sim.load a in
      if until v || match deadline with Some d -> Sim.clock () > d | None -> false then v
      else begin
        Sim.work backoff;
        go ()
      end
  in
  go ()

(* The same CAS, then a load of [a] with no test whose value plus 10 is
   stored to [a + 4], on [a]'s line: it exits on the CAS (or the
   deadline) only, and the next iteration's CAS drains the store. *)
let probe_cas_store ?deadline a ~until:_ ~backoff =
  let vals = [| 0 |] in
  let steps =
    with_deadline ?deadline
      [|
        Sim.Cas { addr = a; expected = 1; desired = 1 };
        Sim.Load (a, None);
        Sim.Store (a + 4, fun vs -> vs.(0) + 10);
      |]
  in
  if Sim.probe steps vals ~backoff = 0 then 1 else vals.(0)

let loop_cas_store ?deadline a ~until:_ ~backoff =
  let rec go () =
    if Sim.cas a ~expected:1 ~desired:1 then 1
    else begin
      let v = Sim.load a in
      Sim.store (a + 4) (v + 10);
      if match deadline with Some d -> Sim.clock () > d | None -> false then v
      else begin
        Sim.work backoff;
        go ()
      end
    end
  in
  go ()

(* A load of [a] with the test, then its value plus 10 stored to
   [a + 4] with no CAS to drain it: under TSO[S] the store meets a full
   buffer and waits for its oldest entry to drain. *)
let probe_load_store ?deadline a ~until ~backoff =
  let vals = [| 0 |] in
  let steps =
    with_deadline ?deadline
      [| Sim.Load (a, Some (fun vs -> until vs.(0))); Sim.Store (a + 4, fun vs -> vs.(0) + 10) |]
  in
  ignore (Sim.probe steps vals ~backoff);
  vals.(0)

let loop_load_store ?deadline a ~until ~backoff =
  let rec go () =
    let v = Sim.load a in
    if until v then v
    else begin
      Sim.store (a + 4) (v + 10);
      if match deadline with Some d -> Sim.clock () > d | None -> false then v
      else begin
        Sim.work backoff;
        go ()
      end
    end
  in
  go ()

type shape = One_load | Several_loads | Clock_first | Cas_until | Cas_load | Cas_store | Load_store

let shape_name = function
  | One_load -> "await"
  | Several_loads -> "several loads"
  | Clock_first -> "clock first"
  | Cas_until -> "cas"
  | Cas_load -> "cas, load"
  | Cas_store -> "cas, load, store"
  | Load_store -> "load, store"

(* The loop and the probe of each shape. *)
let shape_spins : shape -> spin * spin = function
  | One_load -> (loop_await, Sim.await)
  | Several_loads -> (loop_loads, probe_loads)
  | Clock_first -> (loop_clock_first, probe_clock_first)
  | Cas_until -> (loop_cas, probe_cas)
  | Cas_load -> (loop_cas_load, probe_cas_load)
  | Cas_store -> (loop_cas_store, probe_cas_store)
  | Load_store -> (loop_load_store, probe_load_store)

(* Interrupts cost 5 ticks so that a 97-tick period leaves time to run. *)
let await_cfg consistency ~interrupts ~jitter =
  {
    Config.default with
    consistency;
    costs = { Config.default_costs with interrupt = 5 };
    interrupt_period = (if interrupts then Some 97 else None);
    jitter;
    seed = 7L;
  }

(* Thread bodies over globals [g .. g + 31]: thread 0 awaits [x = g],
   until [deadline] if one is given; [y] shares its line; [ack], [z] and
   [out] live on lines of their own. *)
type pattern = Late_write | Same_line_first | Own_buffered_store | Sleeper_wakes

let patterns = [ Late_write; Same_line_first; Own_buffered_store; Sleeper_wakes ]

let pattern_name = function
  | Late_write -> "late write"
  | Same_line_first -> "same line first"
  | Own_buffered_store -> "own buffered store"
  | Sleeper_wakes -> "sleeper wakes"

let await_threads ?deadline (spin : spin) ~backoff pattern g =
  let x = g and y = g + 1 and ack = g + 8 and z = g + 16 and out = g + 24 in
  let awaiter () =
    if pattern = Own_buffered_store then Sim.store x 3;
    let v = spin ?deadline x ~until:(fun v -> v = 1) ~backoff in
    let v =
      if v = 1 then v
      else begin
        (* The deadline exit returns the value that failed [until]:
           record it, then wait on without a deadline. *)
        Sim.store out (v + 100);
        spin x ~until:(fun v -> v = 1) ~backoff
      end
    in
    Sim.store ack v;
    Sim.work 20
  in
  let writer () =
    if pattern = Same_line_first then begin
      Sim.stall_for 1000;
      Sim.store y 9;
      Sim.stall_for 1000
    end
    else Sim.stall_for 2000;
    Sim.store x 1;
    ignore (spin ack ~until:(fun v -> v <> 0) ~backoff);
    Sim.store x 2
  in
  let sleeper () =
    Sim.stall_for 700;
    Sim.store z 1;
    Sim.work 30;
    Sim.stall_for 600;
    Sim.store z (Sim.load z + 1)
  in
  if pattern = Sleeper_wakes then [ awaiter; writer; sleeper ] else [ awaiter; writer ]

type run_style = Clock_stop | Max_ticks | To_completion

let run_style_name = function
  | Clock_stop -> "stop_when"
  | Max_ticks -> "max_ticks"
  | To_completion -> "completion"

let event_string (tid, now, (ev : Machine.event)) =
  let what =
    match ev with
    | Machine.Ev_load { addr; value } -> Printf.sprintf "load %d=%d" addr value
    | Machine.Ev_store { addr; value } -> Printf.sprintf "store %d=%d" addr value
    | Machine.Ev_rmw { addr; old_value; new_value } ->
        Printf.sprintf "rmw %d %d->%d" addr old_value new_value
    | Machine.Ev_fence -> "fence"
    | Machine.Ev_clock c -> Printf.sprintf "clock %d" c
    | Machine.Ev_commit { addr; value; age; kind } ->
        Printf.sprintf "commit %d=%d age %d %s" addr value age (Machine.drain_kind_name kind)
  in
  Printf.sprintf "%d@%d %s" tid now what

(* A labelled part of what a run can be told apart by: compared as
   data, and printed only when it differs. *)
type value = Text of string | Ints of int list | Events of (int * int * Machine.event) list

let show_value = function
  | Text s -> s
  | Ints l -> String.concat " " (List.map string_of_int l)
  | Events evs -> String.concat "; " (List.rev_map event_string evs)

(* Everything a run can be told apart by. *)
let snapshot m g ~reason ~events ~interrupts =
  let reason =
    match reason with
    | Machine.All_finished -> "finished"
    | Machine.Max_ticks -> "max_ticks"
    | Machine.Stop_condition -> "stop"
  in
  let per_thread tid =
    let s = Machine.stats m tid in
    let res kind =
      let h = Machine.residency_by_kind m tid kind in
      Tbtso_obs.Hist.count h :: Tbtso_obs.Hist.sum h :: Tbtso_obs.Hist.max_value h
      :: Array.to_list (Tbtso_obs.Hist.buckets h)
    in
    [
      ( Printf.sprintf "stats %d" tid,
        Text
          (Printf.sprintf
             "loads %d stores %d rmws %d fences %d clock %d misses %d drains %d/%d/%d res %d"
             s.loads s.stores s.rmws s.fences s.clock_reads s.cache_misses s.drains
             s.forced_drains s.exit_drains s.max_residency) );
      (Printf.sprintf "residency %d" tid, Ints (List.concat_map res Machine.drain_kinds));
    ]
  in
  [ ("reason", Text reason); ("clock", Ints [ Machine.now m ]) ]
  @ List.concat_map per_thread (List.init (Machine.thread_count m) Fun.id)
  @ [
      ("memory", Ints (List.init 32 (fun i -> Memory.read (Machine.memory m) (g + i))));
      ("events", Events !events);
      (* tid, tick pairs *)
      ("interrupts", Ints (List.rev !interrupts));
    ]

let await_run ?deadline (spin : spin) cfg ~hook ~style ~backoff pattern =
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 32 in
  let events = ref [] and interrupts = ref [] in
  if hook then Machine.set_event_hook m (fun ~tid ~now ev -> events := (tid, now, ev) :: !events);
  Machine.set_interrupt_hook m (fun ~tid ~now -> interrupts := now :: tid :: !interrupts);
  List.iter (fun f -> ignore (Machine.spawn m f)) (await_threads ?deadline spin ~backoff pattern g);
  let first =
    match style with
    | Clock_stop -> Machine.run ~stop_when:(fun m -> Machine.now m >= 1500) m
    | Max_ticks -> Machine.run ~max_ticks:1500 m
    | To_completion -> Machine.run m
  in
  let at_first = snapshot m g ~reason:first ~events ~interrupts in
  let last = Machine.run m in
  at_first @ snapshot m g ~reason:last ~events ~interrupts

let consistencies =
  Config.[ Sc; Tso; Tbtso 40; Tso_spatial 2; Tbtso_hw { tau = 30; quiesce = 10 } ]

let consistency_name = function
  | Config.Sc -> "sc"
  | Config.Tso -> "tso"
  | Config.Tbtso d -> Printf.sprintf "tbtso:%d" d
  | Config.Tso_spatial s -> Printf.sprintf "tsos:%d" s
  | Config.Tbtso_hw { tau; quiesce } -> Printf.sprintf "hw:%d/%d" tau quiesce

(* The deadline axis. [At_read d] is [d] ticks after the awaiter's
   first clock read at or after tick 1200, found by a probe run. *)
type deadline = No_deadline | Past | Mid_wait | Unreached | At_read of int

let deadlines = [ No_deadline; Past; Mid_wait; Unreached; At_read (-1); At_read 0; At_read 1 ]

let deadline_name = function
  | No_deadline -> "no deadline"
  | Past -> "deadline past"
  | Mid_wait -> "deadline mid-wait"
  | Unreached -> "deadline unreached"
  | At_read d -> Printf.sprintf "deadline at read%+d" d

let unreached = 1_000_000

let deadline_tick dl ~read =
  match dl with
  | No_deadline -> None
  | Past -> Some 0
  | Mid_wait -> Some 1000
  | Unreached -> Some unreached
  | At_read d -> Some (read + d)

(* The tick of the awaiter's first clock read at or after tick 1200 when
   its deadline is never reached. *)
let awaiter_read ?(spin = loop_await) cfg ~backoff pattern =
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 32 in
  let read = ref None in
  Machine.set_event_hook m (fun ~tid ~now ev ->
      match ev with
      | Machine.Ev_clock _ when tid = 0 && now >= 1200 && !read = None -> read := Some now
      | _ -> ());
  List.iter
    (fun f -> ignore (Machine.spawn m f))
    (await_threads ~deadline:unreached spin ~backoff pattern g);
  ignore (Machine.run m);
  match !read with Some r -> r | None -> Alcotest.fail "no clock read after tick 1200"

(* Every shape runs the whole grid except the deadline axis: the lone
   CAS has no deadline, and the shapes after the first two take three
   of its points. *)
let shape_deadlines = function
  | One_load | Cas_load -> deadlines
  | Several_loads | Clock_first | Cas_store | Load_store -> [ No_deadline; Mid_wait; At_read 0 ]
  | Cas_until -> [ No_deadline ]

let test_await_equals_loop () =
  let cases = ref 0 in
  List.iter
    (fun shape ->
      let loop, probe = shape_spins shape in
      List.iter
        (fun consistency ->
          List.iter
            (fun interrupts ->
              List.iter
                (fun jitter ->
                  List.iter
                    (fun backoff ->
                      List.iter
                        (fun pattern ->
                          let cfg = await_cfg consistency ~interrupts ~jitter in
                          let read = lazy (awaiter_read ~spin:loop cfg ~backoff pattern) in
                          List.iter
                            (fun hook ->
                              List.iter
                                (fun style ->
                                  List.iter
                                    (fun dl ->
                                      let deadline =
                                        match dl with
                                        | At_read _ -> deadline_tick dl ~read:(Lazy.force read)
                                        | No_deadline | Past | Mid_wait | Unreached ->
                                            deadline_tick dl ~read:0
                                      in
                                      let run spin =
                                        await_run ?deadline spin cfg ~hook ~style ~backoff pattern
                                      in
                                      let expected = run loop and got = run probe in
                                      let name =
                                        Printf.sprintf "%s: %s irq %b jitter %g hook %b %s backoff %d %s %s"
                                          (shape_name shape) (consistency_name consistency)
                                          interrupts jitter hook (run_style_name style) backoff
                                          (pattern_name pattern) (deadline_name dl)
                                      in
                                      if expected <> got then
                                        List.iter2
                                          (fun (label, e) (_, g) ->
                                            Alcotest.(check string)
                                              (name ^ ": " ^ label) (show_value e) (show_value g))
                                          expected got;
                                      incr cases)
                                    (shape_deadlines shape))
                                [ Clock_stop; Max_ticks; To_completion ])
                            [ false; true ])
                        patterns)
                    [ 0; 7 ])
                [ 0.0; 0.2 ])
            [ false; true ])
        consistencies)
    [ One_load; Several_loads; Clock_first; Cas_until; Cas_load; Cas_store; Load_store ];
  check_int "grid size" (5 * 2 * 2 * 2 * 3 * 2 * 4 * (7 + 3 + 3 + 1 + 7 + 3 + 3)) !cases

(* On an idle machine the awaiter takes iterations without calling
   [until]: fewer calls than loads, with the loop's loads and clock. *)
let test_await_skips () =
  let calls = ref 0 in
  let counting ?deadline a ~until ~backoff =
    Sim.await ?deadline a ~backoff ~until:(fun v ->
        incr calls;
        until v)
  in
  let run spin =
    let m = Machine.create (await_cfg Config.Tso ~interrupts:false ~jitter:0.0) in
    let g = Machine.alloc_global m 32 in
    List.iter (fun f -> ignore (Machine.spawn m f)) (await_threads spin ~backoff:7 Late_write g);
    check_bool "finished" true (Machine.run m = Machine.All_finished);
    ((Machine.stats m 0).loads, Machine.now m)
  in
  let loop_loads, loop_clock = run loop_await in
  let loads, clock = run counting in
  check_int "loads" loop_loads loads;
  check_int "clock" loop_clock clock;
  check_bool (Printf.sprintf "%d until calls < %d loads" !calls loads) true (!calls < loads)

(* A lone awaiter with a deadline skips to it: fewer [until] calls than
   loads, with the loop's loads, clock reads, interrupts, clock and
   return value. The sweep of interrupt periods lands interrupts on
   every phase of the loop, the tick of a clock read included. *)
let test_await_deadline_skips () =
  List.iter
    (fun (interrupt_period, backoff) ->
      let calls = ref 0 in
      let counting ?deadline a ~until ~backoff =
        Sim.await ?deadline a ~backoff ~until:(fun v ->
            incr calls;
            until v)
      in
      let run (spin : spin) =
        let cfg = { (await_cfg Config.Tso ~interrupts:false ~jitter:0.0) with interrupt_period } in
        let m = Machine.create cfg in
        let g = Machine.alloc_global m 8 in
        let got = ref (-1) and interrupts = ref [] in
        Machine.set_interrupt_hook m (fun ~tid:_ ~now -> interrupts := now :: !interrupts);
        ignore
          (Machine.spawn m (fun () -> got := spin ~deadline:5000 g ~until:(fun v -> v = 1) ~backoff));
        check_bool "finished" true (Machine.run m = Machine.All_finished);
        let s = Machine.stats m 0 in
        (s.loads, s.clock_reads, !interrupts, Machine.now m, !got)
      in
      let name =
        Printf.sprintf "irq %s backoff %d: "
          (match interrupt_period with Some p -> string_of_int p | None -> "none")
          backoff
      in
      let loop_loads, loop_reads, loop_irqs, loop_clock, loop_got = run loop_await in
      let loads, reads, irqs, clock, got = run counting in
      check_int (name ^ "loads") loop_loads loads;
      check_int (name ^ "clock reads") loop_reads reads;
      Alcotest.(check (list int)) (name ^ "interrupts") loop_irqs irqs;
      check_int (name ^ "clock") loop_clock clock;
      check_int (name ^ "deadline exit value") 0 loop_got;
      check_int (name ^ "value") loop_got got;
      check_bool (Printf.sprintf "%s%d until calls < %d loads" name !calls loads) true (!calls < loads))
    (List.concat_map
       (fun backoff ->
         List.map (fun p -> (p, backoff)) (None :: List.init 21 (fun i -> Some (40 + i))))
       [ 0; 7 ])

(* Freeing the awaited block raises at the same tick either way, also
   when a deadline lets the awaiter skip after the free, beside a
   second awaiter whose failed iterations give it the chance. *)
let test_await_use_after_free () =
  let run ?deadline (spin : spin) =
    let m = Machine.create (await_cfg Config.Tso ~interrupts:false ~jitter:0.0) in
    let h = Heap.create m ~words:256 in
    let block = Heap.alloc h 4 and other = Machine.alloc_global m 8 in
    ignore (Machine.spawn m (fun () -> ignore (spin ?deadline block ~until:(fun v -> v = 1) ~backoff:7)));
    ignore
      (Machine.spawn m (fun () ->
           Sim.stall_for 1000;
           Heap.free h block));
    if deadline <> None then
      ignore (Machine.spawn m (fun () -> ignore (spin ?deadline other ~until:(fun v -> v = 1) ~backoff:3)));
    match Machine.run m with
    | _ -> Alcotest.fail "no use-after-free"
    | exception Memory.Use_after_free { addr; tid; at; write } ->
        check_int "addr" block addr;
        check_int "tid" 0 tid;
        check_bool "read" false write;
        (at, Machine.now m, (Machine.stats m 0).loads)
  in
  List.iter
    (fun deadline ->
      let at, now, loads = run ?deadline loop_await in
      let at', now', loads' = run ?deadline Sim.await in
      check_int "raised at" at at';
      check_int "clock" now now';
      check_int "loads" loads loads')
    [ None; Some 5000 ]

(* A bounded run leaves the awaiter parked at each of its steps;
   kill_remaining unwinds it. *)
let test_await_kill_remaining () =
  List.iter
    (fun (deadline, max_ticks) ->
      let m = Machine.create (await_cfg Config.Tso ~interrupts:false ~jitter:0.0) in
      let g = Machine.alloc_global m 8 in
      let unwound = ref false in
      ignore
        (Machine.spawn m (fun () ->
             Fun.protect
               ~finally:(fun () -> unwound := true)
               (fun () -> ignore (Sim.await ?deadline g ~until:(fun v -> v = 1) ~backoff:7))));
      check_bool "bounded" true (Machine.run ~max_ticks m = Machine.Max_ticks);
      Machine.kill_remaining m;
      check_bool (Printf.sprintf "unwound after %d ticks" max_ticks) true !unwound;
      check_bool "nothing left" true (Machine.run m = Machine.All_finished))
    (List.map (fun t -> (None, t)) [ 100; 101; 102; 103; 104 ]
    @ List.init 11 (fun i -> (Some 1000, 100 + i)))

(* An exception from [until] is the thread's, as in the loop. *)
let test_await_until_raises () =
  let m = Machine.create sc_config in
  let g = Machine.alloc_global m 8 in
  ignore (Machine.spawn m (fun () -> ignore (Sim.await g ~until:(fun _ -> failwith "until") ~backoff:0)));
  check_bool "failure surfaces" true
    (try
       ignore (Machine.run m);
       false
     with Machine.Thread_failure { tid = 0; exn = Failure msg } -> msg = "until")

(* Two threads parked in probes at once skip together. Thread 0 waits
   out a deadline on [x] (no one writes it) and then releases [l];
   thread 1 spins a CAS on [l] meanwhile, then raises [y], which thread
   0 waits for in a probe of two loads and a clock read. Interrupts cut
   the waits into several windows. Skipping (a plain run) and stepping
   (a [stop_when], which turns skipping off) agree on everything, and
   the plain run calls the tests fewer times than it loads. *)
let test_parked_skip_together () =
  let run ~skip =
    let cfg = { (await_cfg Config.Tso ~interrupts:false ~jitter:0.0) with interrupt_period = Some 1009 } in
    let m = Machine.create cfg in
    let x = Machine.alloc_global m 8 and l = Machine.alloc_global m 8 in
    let y = Machine.alloc_global m 8 and z = Machine.alloc_global m 8 in
    let calls = ref 0 and results = ref [] in
    let counted test vs =
      incr calls;
      test vs
    in
    Memory.write (Machine.memory m) ~tid:(-1) ~at:0 l 1;
    ignore
      (Machine.spawn m (fun () ->
           let v = Sim.await x ~until:(counted (fun v -> v = 1)) ~backoff:7 ~deadline:6000 in
           Sim.store l 0;
           let vals = [| 0; 0 |] in
           let exit =
             Sim.probe
               [|
                 Sim.Load (y, Some (counted (fun vs -> vs.(0) = 1)));
                 Sim.Clock None;
                 Sim.Load (z, Some (counted (fun vs -> vs.(1) = 1)));
               |]
               vals ~backoff:5
           in
           results := [ v; exit; vals.(0); vals.(1); Machine.now m ] @ !results));
    ignore
      (Machine.spawn m (fun () ->
           Sim.work 40;
           ignore (Sim.probe [| Sim.Cas { addr = l; expected = 0; desired = 1 } |] [||] ~backoff:10);
           results := Machine.now m :: !results;
           Sim.stall_for 3000;
           Sim.store y 1));
    let reason =
      if skip then Machine.run m else Machine.run ~stop_when:(fun _ -> false) m
    in
    check_bool "finished" true (reason = Machine.All_finished);
    let stats tid =
      let s = Machine.stats m tid in
      [ s.loads; s.stores; s.rmws; s.fences; s.clock_reads; s.cache_misses; s.drains;
        s.forced_drains; s.exit_drains; s.max_residency ]
    in
    (!results, Machine.now m, stats 0, stats 1, !calls)
  in
  let results, clock, s0, s1, calls = run ~skip:true in
  let results', clock', s0', s1', calls' = run ~skip:false in
  let ints = Alcotest.(list int) in
  Alcotest.check ints "results" results' results;
  check_int "clock" clock' clock;
  Alcotest.check ints "thread 0 stats" s0' s0;
  Alcotest.check ints "thread 1 stats" s1' s1;
  let loads = List.hd s0 in
  check_int "stepping tests every load" loads calls';
  check_bool (Printf.sprintf "%d test calls < %d loads" calls loads) true (calls < loads);
  check_bool "the CAS spun" true (List.nth s1 2 > 100)

(* Two threads whose probes share a line take turns at being its last
   reader, which decides whether a later store to the line waits for a
   read-for-ownership; the machine must not skip them together. Thread
   1 stores to the line after its deadline exit and fences, so the
   stats and the clock show any difference. *)
let test_parked_share_line () =
  let run ~skip ~backoff0 ~backoff1 ~deadline =
    let cfg = await_cfg Config.Tso ~interrupts:false ~jitter:0.0 in
    let m = Machine.create cfg in
    let w = Machine.alloc_global m 8 in
    ignore
      (Machine.spawn m (fun () ->
           ignore (Sim.await (w + 1) ~until:(fun v -> v = 1) ~backoff:backoff0 ~deadline:(deadline + 500))));
    ignore
      (Machine.spawn m (fun () ->
           ignore (Sim.await w ~until:(fun v -> v = 1) ~backoff:backoff1 ~deadline);
           Sim.store w 5;
           Sim.fence ()));
    let reason = if skip then Machine.run m else Machine.run ~stop_when:(fun _ -> false) m in
    check_bool "finished" true (reason = Machine.All_finished);
    let stats tid =
      let s = Machine.stats m tid in
      [ s.loads; s.clock_reads; s.cache_misses; s.drains; s.max_residency ]
    in
    (Machine.now m, stats 0, stats 1)
  in
  List.iter
    (fun (backoff0, backoff1, deadline) ->
      let name = Printf.sprintf "backoffs %d/%d deadline %d: " backoff0 backoff1 deadline in
      let clock, s0, s1 = run ~skip:true ~backoff0 ~backoff1 ~deadline in
      let clock', s0', s1' = run ~skip:false ~backoff0 ~backoff1 ~deadline in
      check_int (name ^ "clock") clock' clock;
      Alcotest.(check (list int)) (name ^ "thread 0 stats") s0' s0;
      Alcotest.(check (list int)) (name ^ "thread 1 stats") s1' s1)
    (List.concat_map
       (fun (b0, b1) -> List.init 48 (fun i -> (b0, b1, 2000 + i)))
       [ (20, 0); (20, 7); (3, 5) ])

(* A skipped probe is its line's last reader, as stepping would leave
   it. Thread 1 reads [w] once and sleeps; thread 2's failed iterations
   make the machine skip thread 0 before its own next load of [w].
   Whether thread 1's later store to [w] must first regain ownership
   depends on who read [w] last. *)
let test_skipped_probe_last_reader () =
  let run ~skip ~at =
    let cfg = await_cfg Config.Tso ~interrupts:false ~jitter:0.0 in
    let m = Machine.create cfg in
    let w = Machine.alloc_global m 8 and other = Machine.alloc_global m 8 in
    ignore (Machine.spawn m (fun () -> ignore (Sim.await w ~until:(fun v -> v = 1) ~backoff:7 ~deadline:6000)));
    ignore
      (Machine.spawn m (fun () ->
           Sim.work at;
           ignore (Sim.load w);
           Sim.stall_for 2000;
           Sim.store w 9;
           Sim.fence ()));
    ignore
      (Machine.spawn m (fun () -> ignore (Sim.await other ~until:(fun v -> v = 1) ~backoff:3 ~deadline:6000)));
    let reason = if skip then Machine.run m else Machine.run ~stop_when:(fun _ -> false) m in
    check_bool "finished" true (reason = Machine.All_finished);
    let s = Machine.stats m 1 in
    (Machine.now m, s.max_residency)
  in
  List.iter
    (fun at ->
      let clock, res = run ~skip:true ~at and clock', res' = run ~skip:false ~at in
      check_int (Printf.sprintf "load at %d: clock" at) clock' clock;
      check_int (Printf.sprintf "load at %d: thread 1 store residency" at) res' res)
    (List.init 12 (fun i -> 500 + i))

(* A probe whose two loads map to one cache set misses on every
   iteration: it never parks, and skipping changes nothing. *)
let test_probe_cache_conflict () =
  let run ~skip =
    let cfg = await_cfg Config.Tso ~interrupts:false ~jitter:0.0 in
    let m = Machine.create cfg in
    let a = Machine.alloc_global m 8 in
    let b = a + (8 lsl cfg.Config.cache_bits) in
    let calls = ref 0 in
    ignore
      (Machine.spawn m (fun () ->
           ignore
             (Sim.probe
                [|
                  Sim.Load (a, Some (fun vs -> incr calls; vs.(0) = 1));
                  Sim.Load (b, None);
                  Sim.Clock (Some 3000);
                |]
                [| 0; 0 |] ~backoff:7)));
    let reason = if skip then Machine.run m else Machine.run ~stop_when:(fun _ -> false) m in
    check_bool "finished" true (reason = Machine.All_finished);
    let s = Machine.stats m 0 in
    ([ Machine.now m; s.loads; s.clock_reads; s.cache_misses ], !calls)
  in
  let got, calls = run ~skip:true and expected, _ = run ~skip:false in
  Alcotest.(check (list int)) "clock, loads, clock reads, misses" expected got;
  check_int "every load misses" (List.nth expected 1) (List.nth expected 3);
  check_int "a test call per iteration" (List.nth expected 1 / 2) calls

(* The machine's allocation per simulated load and per store is
   deterministic, so it is pinned as a ceiling: 5 and 6 minor words,
   plus half a word for the run's fixed cost spread over 20,000
   operations. Per load: the effect [E_load a] (3 words: header,
   constructor, address) and its continuation (2: header, stack). Per
   store: [E_store (a, v)] (4: header, constructor, address, value) and
   the continuation (2: header, stack). The machine keeps the opcode,
   operands and continuation in the thread's own fields, and a buffered
   store in int arrays, so neither the hand-off nor the store buffer
   allocates. *)
let test_minor_words_per_access () =
  let per_op body =
    let n = 20_000 in
    let m = Machine.create Config.default in
    let g = Machine.alloc_global m 8 in
    ignore (Machine.spawn m (fun () -> body g n));
    let w0 = Gc.minor_words () in
    ignore (Machine.run m);
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let load = per_op (fun g n -> for _ = 1 to n do ignore (Sim.load g) done) in
  let store = per_op (fun g n -> for i = 1 to n do Sim.store g i done) in
  check_bool (Printf.sprintf "%.3f minor words per load < 5.5" load) true (load < 5.5);
  check_bool (Printf.sprintf "%.3f minor words per store < 6.5" store) true (store < 6.5)

(* Malformed step lists are the thread's error, before any step runs. *)
let test_probe_rejects () =
  List.iter
    (fun (name, steps, values) ->
      let m = Machine.create sc_config in
      ignore (Machine.spawn m (fun () -> ignore (Sim.probe steps values ~backoff:0)));
      check_bool name true
        (match Machine.run m with
        | _ -> false
        | exception Machine.Thread_failure { tid = 0; exn = Invalid_argument _ } -> true))
    [
      ("no access", [| Sim.Clock (Some 5) |], [||]);
      ("CAS not first", [| Sim.Load (8, None); Sim.Cas { addr = 8; expected = 0; desired = 1 } |], [| 0 |]);
      ( "two CASes",
        [| Sim.Cas { addr = 8; expected = 0; desired = 1 }; Sim.Cas { addr = 9; expected = 0; desired = 1 } |],
        [||] );
      ("a Store with no access before it", [| Sim.Clock None; Sim.Store (8, fun _ -> 1); Sim.Load (8, None) |], [| 0 |]);
      ("too few value slots", [| Sim.Load (8, None); Sim.Load (9, Some (fun _ -> true)) |], [| 0 |]);
    ]

(* ------------------------------------------------------------------ *)
(* Tick loop: a grid of mixed workloads pinned to recorded outcomes    *)
(* ------------------------------------------------------------------ *)

(* Thread [tid]'s body over 16 lines of 8 words at [g] and a lock word:
   [steps] steps drawn from its own stream, each a load, a store, a fenced
   store, a CAS, an FAA, work, a stall, a one-load await or a two-load
   probe with a deadline, or a CAS-probe lock held for 10 ticks. *)
let grid_body m g ~lock ~steps ~tid () =
  let rng = Rng.create (Int64.of_int (1000 + tid)) in
  let word () = g + Rng.int rng 128 in
  let i = ref 0 in
  while !i < steps && not (Sim.stopping ()) do
    incr i;
    match Rng.int rng 11 with
    | 0 -> ignore (Sim.load (word ()))
    | 1 -> Sim.store (word ()) ((tid * 1000) + !i)
    | 2 ->
        Sim.store (word ()) (tid + !i);
        Sim.fence ()
    | 3 -> ignore (Sim.cas (word ()) ~expected:0 ~desired:(tid + 1))
    | 4 -> ignore (Sim.faa (word ()) 1)
    | 5 -> Sim.work (Rng.int rng 50)
    | 6 -> Sim.stall_for (Rng.int rng 300)
    | 7 ->
        let parity = tid land 1 in
        ignore
          (Sim.await (word ()) ~until:(fun v -> v land 1 = parity) ~backoff:(Rng.int rng 8)
             ~deadline:(Machine.now m + 150))
    | 8 ->
        let a = word () and b = word () in
        ignore
          (Sim.probe
             [| Sim.Load (a, None); Sim.Load (b, Some (fun vs -> vs.(0) = vs.(1))); Sim.Clock (Some (Machine.now m + 120)) |]
             [| 0; 0 |] ~backoff:(Rng.int rng 6))
    | 9 ->
        ignore (Sim.probe [| Sim.Cas { addr = lock; expected = 0; desired = 1 } |] [||] ~backoff:5);
        Sim.work 10;
        Sim.store lock 0
    | _ -> Sim.stall_until (Machine.now m + Rng.int rng 100)
  done

(* What a grid run is judged by: the stop reason and clock, then
   digests of every thread's stats and residency maxima per drain kind,
   and of the words the threads touch. *)
let grid_outcome m g reason =
  let reason =
    match reason with
    | Machine.All_finished -> "finished"
    | Machine.Max_ticks -> "max_ticks"
    | Machine.Stop_condition -> "stop"
  in
  let b = Buffer.create 1024 in
  for tid = 0 to Machine.thread_count m - 1 do
    let s = Machine.stats m tid in
    Printf.bprintf b "%d %d %d %d %d %d %d %d %d %d|" s.loads s.stores s.rmws s.fences
      s.clock_reads s.cache_misses s.drains s.forced_drains s.exit_drains s.max_residency;
    List.iter
      (fun k -> Printf.bprintf b "%d," (Tbtso_obs.Hist.max_value (Machine.residency_by_kind m tid k)))
      Machine.drain_kinds;
    Buffer.add_char b ';'
  done;
  let mem = Buffer.create 1024 in
  for i = 0 to 128 do
    Printf.bprintf mem "%d," (Memory.read (Machine.memory m) (g + i))
  done;
  let digest b = String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12 in
  Printf.sprintf "%s@%d stats %s mem %s" reason (Machine.now m) (digest b) (digest mem)

let grid_run consistency ~interrupts ~jitter ~stop_when ~nthreads =
  let cfg =
    {
      Config.default with
      consistency;
      costs = { Config.default_costs with interrupt = 5 };
      interrupt_period = interrupts;
      jitter;
      seed = 29L;
    }
  in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 136 in
  let lock = g + 128 in
  for tid = 0 to nthreads - 1 do
    ignore (Machine.spawn m (grid_body m g ~lock ~steps:(if nthreads < 8 then 200 else 40) ~tid))
  done;
  let first =
    if stop_when then Machine.run ~stop_when:(fun m -> Machine.now m >= 3000) m
    else Machine.run ~max_ticks:3000 m
  in
  let at_first = grid_outcome m g first in
  Machine.request_stop m;
  let last = Machine.run m in
  at_first ^ " / " ^ grid_outcome m g last

let grid_cases =
  List.concat_map
    (fun consistency ->
      List.concat_map
        (fun interrupts ->
          List.concat_map
            (fun jitter ->
              List.concat_map
                (fun stop_when ->
                  List.map
                    (fun nthreads ->
                      ( Printf.sprintf "%s irq %s jitter %g %s %d threads" (consistency_name consistency)
                          (match interrupts with Some p -> string_of_int p | None -> "none")
                          jitter
                          (if stop_when then "stop_when" else "max_ticks")
                          nthreads,
                        fun () -> grid_run consistency ~interrupts ~jitter ~stop_when ~nthreads ))
                    [ 3; 70 ])
                [ false; true ])
            [ 0.0; 0.2 ])
        [ None; Some 97 ])
    Config.[ Sc; Tso; Tbtso 50; Tso_spatial 2; Tbtso_hw { tau = 30; quiesce = 10 } ]

(* Recorded with a tick loop that visited every thread in every phase
   of every tick. *)
let grid_pinned =
  [
    ("sc irq none jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats 6e6b8db5fc5c mem 77025ec31b7b / finished@3182 stats 354bb33cc929 mem 77025ec31b7b");
    ("sc irq none jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats 5ff884700b96 mem 154da9902162 / finished@3428 stats 74f8f93bb953 mem 96adde614bd7");
    ("sc irq none jitter 0 stop_when 3 threads",
      "stop@3008 stats 6e6b8db5fc5c mem 77025ec31b7b / finished@3182 stats 354bb33cc929 mem 77025ec31b7b");
    ("sc irq none jitter 0 stop_when 70 threads",
      "stop@3000 stats 5ff884700b96 mem 154da9902162 / finished@3428 stats 74f8f93bb953 mem 96adde614bd7");
    ("sc irq none jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats fd888c726be5 mem df71e88e58e1 / finished@3221 stats efd597648fce mem df71e88e58e1");
    ("sc irq none jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats 29e6dc08e2a8 mem 7817586bb883 / finished@3424 stats 7f2711da2e77 mem 72c7a776df9c");
    ("sc irq none jitter 0.2 stop_when 3 threads",
      "stop@3000 stats fd888c726be5 mem df71e88e58e1 / finished@3221 stats efd597648fce mem df71e88e58e1");
    ("sc irq none jitter 0.2 stop_when 70 threads",
      "stop@3000 stats 29e6dc08e2a8 mem 7817586bb883 / finished@3424 stats 7f2711da2e77 mem 72c7a776df9c");
    ("sc irq 97 jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats a68179d3fe47 mem 77025ec31b7b / finished@3214 stats 38e370b774e0 mem 77025ec31b7b");
    ("sc irq 97 jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats ed6d9d0d12bc mem e9973fdd7575 / finished@3421 stats cba9635b4d0a mem f218cf5eb377");
    ("sc irq 97 jitter 0 stop_when 3 threads",
      "stop@3006 stats a68179d3fe47 mem 77025ec31b7b / finished@3214 stats 38e370b774e0 mem 77025ec31b7b");
    ("sc irq 97 jitter 0 stop_when 70 threads",
      "stop@3000 stats ed6d9d0d12bc mem e9973fdd7575 / finished@3421 stats cba9635b4d0a mem f218cf5eb377");
    ("sc irq 97 jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 68341e9e6756 mem df71e88e58e1 / finished@3252 stats b91ce381d0d0 mem df71e88e58e1");
    ("sc irq 97 jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats 9cbde388416a mem e39165b28335 / finished@3408 stats 8309bef58df4 mem ae4ff978951e");
    ("sc irq 97 jitter 0.2 stop_when 3 threads",
      "stop@3000 stats 68341e9e6756 mem df71e88e58e1 / finished@3252 stats b91ce381d0d0 mem df71e88e58e1");
    ("sc irq 97 jitter 0.2 stop_when 70 threads",
      "stop@3000 stats 9cbde388416a mem e39165b28335 / finished@3408 stats 8309bef58df4 mem ae4ff978951e");
    ("tso irq none jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats 96a2eb94dcb4 mem 12fcc3e6ddc0 / finished@3063 stats 96a2eb94dcb4 mem 12fcc3e6ddc0");
    ("tso irq none jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats b43d0db39a58 mem a521e29c43cb / finished@5527 stats b68552102cb9 mem 9a86391f8626");
    ("tso irq none jitter 0 stop_when 3 threads",
      "stop@3019 stats 96a2eb94dcb4 mem 12fcc3e6ddc0 / finished@3063 stats 96a2eb94dcb4 mem 12fcc3e6ddc0");
    ("tso irq none jitter 0 stop_when 70 threads",
      "stop@3000 stats b43d0db39a58 mem a521e29c43cb / finished@5527 stats b68552102cb9 mem 9a86391f8626");
    ("tso irq none jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 6cc4d2c8205d mem 64bf73e18549 / finished@3059 stats 075dc5c2ec08 mem fb71477db7a3");
    ("tso irq none jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats 448da8691595 mem 52b8fc68dcb1 / finished@5744 stats 103ece88d63e mem 8d828b4e5936");
    ("tso irq none jitter 0.2 stop_when 3 threads",
      "stop@3000 stats 6cc4d2c8205d mem 64bf73e18549 / finished@3059 stats 075dc5c2ec08 mem fb71477db7a3");
    ("tso irq none jitter 0.2 stop_when 70 threads",
      "stop@3000 stats 448da8691595 mem 52b8fc68dcb1 / finished@5744 stats 103ece88d63e mem 8d828b4e5936");
    ("tso irq 97 jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats 5c32db734a84 mem dd7441712e69 / finished@3248 stats 6bfaec1e5135 mem dd7441712e69");
    ("tso irq 97 jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats ca07ba248fd9 mem acfafaae4575 / finished@5209 stats 8fc2a08b2115 mem 81d603ce76f6");
    ("tso irq 97 jitter 0 stop_when 3 threads",
      "stop@3001 stats 5c32db734a84 mem dd7441712e69 / finished@3248 stats 6bfaec1e5135 mem dd7441712e69");
    ("tso irq 97 jitter 0 stop_when 70 threads",
      "stop@3000 stats ca07ba248fd9 mem acfafaae4575 / finished@5209 stats 8fc2a08b2115 mem 81d603ce76f6");
    ("tso irq 97 jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 480d622a39ed mem 64bf73e18549 / finished@3082 stats 2400cf3f75fe mem fb71477db7a3");
    ("tso irq 97 jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats 53e5128f40d1 mem 892f81cc3a41 / finished@5304 stats 4f311b108ef2 mem ef9f9845e803");
    ("tso irq 97 jitter 0.2 stop_when 3 threads",
      "stop@3000 stats 480d622a39ed mem 64bf73e18549 / finished@3082 stats 2400cf3f75fe mem fb71477db7a3");
    ("tso irq 97 jitter 0.2 stop_when 70 threads",
      "stop@3000 stats 53e5128f40d1 mem 892f81cc3a41 / finished@5304 stats 4f311b108ef2 mem ef9f9845e803");
    ("tbtso:50 irq none jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats fe2891cf6018 mem 12fcc3e6ddc0 / finished@3053 stats fe2891cf6018 mem 12fcc3e6ddc0");
    ("tbtso:50 irq none jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats a9c9b0b2b98c mem 64b5520e9e14 / finished@5642 stats 659f6162d112 mem c5c3f0b98cd2");
    ("tbtso:50 irq none jitter 0 stop_when 3 threads",
      "stop@3009 stats fe2891cf6018 mem 12fcc3e6ddc0 / finished@3053 stats fe2891cf6018 mem 12fcc3e6ddc0");
    ("tbtso:50 irq none jitter 0 stop_when 70 threads",
      "stop@3000 stats a9c9b0b2b98c mem 64b5520e9e14 / finished@5642 stats 659f6162d112 mem c5c3f0b98cd2");
    ("tbtso:50 irq none jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 694c4e16d637 mem fb71477db7a3 / finished@3056 stats d6560c4fe9bb mem fb71477db7a3");
    ("tbtso:50 irq none jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats dd9c7d0edf98 mem 354df9076bee / finished@5765 stats d7296dca1a73 mem 49e2ec5d86e2");
    ("tbtso:50 irq none jitter 0.2 stop_when 3 threads",
      "stop@3000 stats 694c4e16d637 mem fb71477db7a3 / finished@3056 stats d6560c4fe9bb mem fb71477db7a3");
    ("tbtso:50 irq none jitter 0.2 stop_when 70 threads",
      "stop@3000 stats dd9c7d0edf98 mem 354df9076bee / finished@5765 stats d7296dca1a73 mem 49e2ec5d86e2");
    ("tbtso:50 irq 97 jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats d13a2859dd9c mem dd7441712e69 / finished@3241 stats 8dd6f3052b93 mem dd7441712e69");
    ("tbtso:50 irq 97 jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats 34f5ec56c936 mem 4f52e6731cab / finished@5244 stats 491f4cd05ecf mem ece9011b98f5");
    ("tbtso:50 irq 97 jitter 0 stop_when 3 threads",
      "stop@3001 stats d13a2859dd9c mem dd7441712e69 / finished@3241 stats 8dd6f3052b93 mem dd7441712e69");
    ("tbtso:50 irq 97 jitter 0 stop_when 70 threads",
      "stop@3000 stats 34f5ec56c936 mem 4f52e6731cab / finished@5244 stats 491f4cd05ecf mem ece9011b98f5");
    ("tbtso:50 irq 97 jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 480d622a39ed mem 64bf73e18549 / finished@3082 stats 2400cf3f75fe mem fb71477db7a3");
    ("tbtso:50 irq 97 jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats 8c82ef92110d mem a82b766b6fcb / finished@5339 stats e33073601a6a mem b3f609603586");
    ("tbtso:50 irq 97 jitter 0.2 stop_when 3 threads",
      "stop@3000 stats 480d622a39ed mem 64bf73e18549 / finished@3082 stats 2400cf3f75fe mem fb71477db7a3");
    ("tbtso:50 irq 97 jitter 0.2 stop_when 70 threads",
      "stop@3000 stats 8c82ef92110d mem a82b766b6fcb / finished@5339 stats e33073601a6a mem b3f609603586");
    ("tsos:2 irq none jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats c9b62fd2e3b0 mem 12fcc3e6ddc0 / finished@3063 stats c9b62fd2e3b0 mem 12fcc3e6ddc0");
    ("tsos:2 irq none jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats 85a5c3f42a41 mem 8129970a4df8 / finished@5588 stats a7205c84f1f5 mem 1409bc90d1ae");
    ("tsos:2 irq none jitter 0 stop_when 3 threads",
      "stop@3019 stats c9b62fd2e3b0 mem 12fcc3e6ddc0 / finished@3063 stats c9b62fd2e3b0 mem 12fcc3e6ddc0");
    ("tsos:2 irq none jitter 0 stop_when 70 threads",
      "stop@3000 stats 85a5c3f42a41 mem 8129970a4df8 / finished@5588 stats a7205c84f1f5 mem 1409bc90d1ae");
    ("tsos:2 irq none jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 997e29363511 mem 64bf73e18549 / finished@3059 stats 96d366ea8612 mem fb71477db7a3");
    ("tsos:2 irq none jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats 8a98e3dc607a mem cc31bec5de0d / finished@5648 stats 719ec5346d78 mem e54003e7a4ec");
    ("tsos:2 irq none jitter 0.2 stop_when 3 threads",
      "stop@3000 stats 997e29363511 mem 64bf73e18549 / finished@3059 stats 96d366ea8612 mem fb71477db7a3");
    ("tsos:2 irq none jitter 0.2 stop_when 70 threads",
      "stop@3000 stats 8a98e3dc607a mem cc31bec5de0d / finished@5648 stats 719ec5346d78 mem e54003e7a4ec");
    ("tsos:2 irq 97 jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats f38df9e4a0aa mem dd7441712e69 / finished@3023 stats 6cdd2e4becc5 mem dd7441712e69");
    ("tsos:2 irq 97 jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats e6cce5778587 mem 0918ffc434e3 / finished@5316 stats 5771cd48d4a7 mem af71d914072d");
    ("tsos:2 irq 97 jitter 0 stop_when 3 threads",
      "stop@3001 stats f38df9e4a0aa mem dd7441712e69 / finished@3023 stats 6cdd2e4becc5 mem dd7441712e69");
    ("tsos:2 irq 97 jitter 0 stop_when 70 threads",
      "stop@3000 stats e6cce5778587 mem 0918ffc434e3 / finished@5316 stats 5771cd48d4a7 mem af71d914072d");
    ("tsos:2 irq 97 jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 22c5fd305770 mem 70fe79721e31 / finished@3088 stats 22c5fd305770 mem 70fe79721e31");
    ("tsos:2 irq 97 jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats e8fd76a9d1cf mem 892f81cc3a41 / finished@5304 stats f0b46deb292a mem ef9f9845e803");
    ("tsos:2 irq 97 jitter 0.2 stop_when 3 threads",
      "stop@3006 stats 22c5fd305770 mem 70fe79721e31 / finished@3088 stats 22c5fd305770 mem 70fe79721e31");
    ("tsos:2 irq 97 jitter 0.2 stop_when 70 threads",
      "stop@3000 stats e8fd76a9d1cf mem 892f81cc3a41 / finished@5304 stats f0b46deb292a mem ef9f9845e803");
    ("hw:30/10 irq none jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats 2c226de645ff mem 64bf73e18549 / finished@3068 stats 1fcaf5ebe842 mem 64bf73e18549");
    ("hw:30/10 irq none jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats a90a79dc12e8 mem e0ee5fe36b8c / finished@5962 stats 0e93f6bc92a5 mem 4d36fd3f2914");
    ("hw:30/10 irq none jitter 0 stop_when 3 threads",
      "stop@3001 stats 2c226de645ff mem 64bf73e18549 / finished@3068 stats 1fcaf5ebe842 mem 64bf73e18549");
    ("hw:30/10 irq none jitter 0 stop_when 70 threads",
      "stop@3000 stats a90a79dc12e8 mem e0ee5fe36b8c / finished@5962 stats 0e93f6bc92a5 mem 4d36fd3f2914");
    ("hw:30/10 irq none jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 4e8ad5ccef67 mem 64bf73e18549 / finished@3098 stats 93b8965bb484 mem 64bf73e18549");
    ("hw:30/10 irq none jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats bf4a65b90550 mem 874e0512a70a / finished@6286 stats c69a8db6eae6 mem a8e9e19f9748");
    ("hw:30/10 irq none jitter 0.2 stop_when 3 threads",
      "stop@3000 stats 4e8ad5ccef67 mem 64bf73e18549 / finished@3098 stats 93b8965bb484 mem 64bf73e18549");
    ("hw:30/10 irq none jitter 0.2 stop_when 70 threads",
      "stop@3000 stats bf4a65b90550 mem 874e0512a70a / finished@6286 stats c69a8db6eae6 mem a8e9e19f9748");
    ("hw:30/10 irq 97 jitter 0 max_ticks 3 threads",
      "max_ticks@3000 stats 3f80187a506a mem dd7441712e69 / finished@3129 stats a1f8930329e7 mem dd7441712e69");
    ("hw:30/10 irq 97 jitter 0 max_ticks 70 threads",
      "max_ticks@3000 stats a7ce606b1f54 mem 5683bec03e81 / finished@5792 stats 82117a2df1d6 mem 409d2800dd50");
    ("hw:30/10 irq 97 jitter 0 stop_when 3 threads",
      "stop@3000 stats 3f80187a506a mem dd7441712e69 / finished@3129 stats a1f8930329e7 mem dd7441712e69");
    ("hw:30/10 irq 97 jitter 0 stop_when 70 threads",
      "stop@3000 stats a7ce606b1f54 mem 5683bec03e81 / finished@5792 stats 82117a2df1d6 mem 409d2800dd50");
    ("hw:30/10 irq 97 jitter 0.2 max_ticks 3 threads",
      "max_ticks@3000 stats 1fb292d7acc3 mem dd7441712e69 / finished@3067 stats 195bc34ea821 mem dd7441712e69");
    ("hw:30/10 irq 97 jitter 0.2 max_ticks 70 threads",
      "max_ticks@3000 stats fdd4cc29e4b0 mem 22293dbeca58 / finished@5808 stats 759985d8189d mem ebe32d797597");
    ("hw:30/10 irq 97 jitter 0.2 stop_when 3 threads",
      "stop@3001 stats 1fb292d7acc3 mem dd7441712e69 / finished@3067 stats 195bc34ea821 mem dd7441712e69");
    ("hw:30/10 irq 97 jitter 0.2 stop_when 70 threads",
      "stop@3000 stats fdd4cc29e4b0 mem 22293dbeca58 / finished@5808 stats 759985d8189d mem ebe32d797597")
  ]

(* The grid's workload with an event hook: every executed instruction
   and every commit, each as (tid, tick, event), in the order the machine
   emits them, over the bounded run and the run to completion. A hook
   turns probe skipping off, so this pins each stepped tick. *)
let stream_run consistency ~interrupts ~jitter ~nthreads =
  let cfg =
    {
      Config.default with
      consistency;
      costs = { Config.default_costs with interrupt = 5 };
      interrupt_period = interrupts;
      jitter;
      seed = 29L;
    }
  in
  let m = Machine.create cfg in
  let g = Machine.alloc_global m 136 in
  let lock = g + 128 in
  let b = Buffer.create (1 lsl 16) and count = ref 0 in
  Machine.set_event_hook m (fun ~tid ~now ev ->
      incr count;
      Buffer.add_string b (event_string (tid, now, ev));
      Buffer.add_char b '\n');
  for tid = 0 to nthreads - 1 do
    ignore (Machine.spawn m (grid_body m g ~lock ~steps:(if nthreads < 8 then 200 else 40) ~tid))
  done;
  ignore (Machine.run ~max_ticks:3000 m);
  Machine.request_stop m;
  ignore (Machine.run m);
  Printf.sprintf "%d events @%d %s" !count (Machine.now m)
    (String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12)

let stream_cases =
  List.concat_map
    (fun consistency ->
      List.concat_map
        (fun interrupts ->
          List.concat_map
            (fun jitter ->
              List.map
                (fun nthreads ->
                  ( Printf.sprintf "%s irq %s jitter %g %d threads" (consistency_name consistency)
                      (match interrupts with Some p -> string_of_int p | None -> "none")
                      jitter nthreads,
                    fun () -> stream_run consistency ~interrupts ~jitter ~nthreads ))
                [ 3; 70 ])
            [ 0.0; 0.2 ])
        [ None; Some 97 ])
    Config.[ Sc; Tso; Tbtso 50; Tso_spatial 2; Tbtso_hw { tau = 30; quiesce = 10 } ]

(* Recorded before the machine's instruction hand-off became int-coded. *)
let stream_pinned =
  [
    ("sc irq none jitter 0 3 threads",
      "800 events @3182 1dff7a487dc5");
    ("sc irq none jitter 0 70 threads",
      "16658 events @3428 45bf326cc292");
    ("sc irq none jitter 0.2 3 threads",
      "717 events @3221 d77f5803d1fa");
    ("sc irq none jitter 0.2 70 threads",
      "16089 events @3424 ba4923aa783b");
    ("sc irq 97 jitter 0 3 threads",
      "777 events @3214 e826f9209963");
    ("sc irq 97 jitter 0 70 threads",
      "16202 events @3421 594c58b426e5");
    ("sc irq 97 jitter 0.2 3 threads",
      "698 events @3252 d726a988d73d");
    ("sc irq 97 jitter 0.2 70 threads",
      "15397 events @3408 5051c5509a59");
    ("tso irq none jitter 0 3 threads",
      "763 events @3063 217f0798a23a");
    ("tso irq none jitter 0 70 threads",
      "25695 events @5527 f35827760353");
    ("tso irq none jitter 0.2 3 threads",
      "708 events @3059 e4a66fafda10");
    ("tso irq none jitter 0.2 70 threads",
      "25499 events @5744 ef106425e3fe");
    ("tso irq 97 jitter 0 3 threads",
      "741 events @3248 708966fc50df");
    ("tso irq 97 jitter 0 70 threads",
      "24891 events @5209 6543f359e068");
    ("tso irq 97 jitter 0.2 3 threads",
      "696 events @3082 8a34d7056bc3");
    ("tso irq 97 jitter 0.2 70 threads",
      "23071 events @5304 80124e422703");
    ("tbtso:50 irq none jitter 0 3 threads",
      "762 events @3053 798f8928e7eb");
    ("tbtso:50 irq none jitter 0 70 threads",
      "26563 events @5642 4059d5b61e2a");
    ("tbtso:50 irq none jitter 0.2 3 threads",
      "711 events @3056 f933f40abc71");
    ("tbtso:50 irq none jitter 0.2 70 threads",
      "25975 events @5765 3573ec28dfe7");
    ("tbtso:50 irq 97 jitter 0 3 threads",
      "738 events @3241 fa9a50bf7e43");
    ("tbtso:50 irq 97 jitter 0 70 threads",
      "24997 events @5244 9c12f139ca6d");
    ("tbtso:50 irq 97 jitter 0.2 3 threads",
      "696 events @3082 8a34d7056bc3");
    ("tbtso:50 irq 97 jitter 0.2 70 threads",
      "23062 events @5339 b6f23cd10d0f");
    ("tsos:2 irq none jitter 0 3 threads",
      "763 events @3063 801052784735");
    ("tsos:2 irq none jitter 0 70 threads",
      "26536 events @5588 52f70d6623c6");
    ("tsos:2 irq none jitter 0.2 3 threads",
      "708 events @3059 7f8615cbfa0e");
    ("tsos:2 irq none jitter 0.2 70 threads",
      "24759 events @5648 c956be0181cb");
    ("tsos:2 irq 97 jitter 0 3 threads",
      "734 events @3023 e3749f96377f");
    ("tsos:2 irq 97 jitter 0 70 threads",
      "25043 events @5316 6c6cc748b321");
    ("tsos:2 irq 97 jitter 0.2 3 threads",
      "697 events @3088 f771525023bf");
    ("tsos:2 irq 97 jitter 0.2 70 threads",
      "23071 events @5304 cc06e418a7bb");
    ("hw:30/10 irq none jitter 0 3 threads",
      "759 events @3068 054961c9bbff");
    ("hw:30/10 irq none jitter 0 70 threads",
      "22692 events @5962 a4486b2ca0b8");
    ("hw:30/10 irq none jitter 0.2 3 threads",
      "700 events @3098 abbea5c9bd8d");
    ("hw:30/10 irq none jitter 0.2 70 threads",
      "22268 events @6286 29cc66c3dea5");
    ("hw:30/10 irq 97 jitter 0 3 threads",
      "773 events @3129 904088e4c60e");
    ("hw:30/10 irq 97 jitter 0 70 threads",
      "22172 events @5792 61d7c112277a");
    ("hw:30/10 irq 97 jitter 0.2 3 threads",
      "679 events @3067 35ddd4a7f043");
    ("hw:30/10 irq 97 jitter 0.2 70 threads",
      "20846 events @5808 3f8a5252a2fb")
  ]

let test_event_stream () =
  List.iter
    (fun (name, run) ->
      let got = run () in
      match List.assoc_opt name stream_pinned with
      | Some expected -> Alcotest.(check string) name expected got
      | None -> Alcotest.failf "unpinned case %S: %S" name got)
    stream_cases;
  check_int "every case pinned" (List.length stream_cases) (List.length stream_pinned)

(* A thread spawned after a run takes its interrupts from its first
   due tick on, although the run already settled when the next
   interrupt was due. *)
let test_spawn_after_run_interrupts () =
  let cfg =
    { Config.default with costs = { Config.default_costs with interrupt = 5 }; interrupt_period = Some 97 }
  in
  let m = Machine.create cfg in
  let taken = ref [] in
  Machine.set_interrupt_hook m (fun ~tid ~now -> taken := (tid, now) :: !taken);
  ignore (Machine.spawn m (fun () -> Sim.work 2_000));
  check_bool "bounded" true (Machine.run ~max_ticks:500 m = Machine.Max_ticks);
  ignore (Machine.spawn m (fun () -> Sim.work 300));
  check_bool "finished" true (Machine.run m = Machine.All_finished);
  let of_tid tid = List.rev (List.filter_map (fun (t, now) -> if t = tid then Some now else None) !taken) in
  (* Thread 1's interrupts fall on the ticks ≡ 997 ≡ 27 (mod 97) it
     lives through: from 512 (the first after 500) until it finishes. *)
  Alcotest.(check (list int)) "thread 1" [ 512; 609; 706 ] (of_tid 1);
  Alcotest.(check (list int)) "thread 0" (List.init 20 (fun i -> 97 * (i + 1))) (of_tid 0)

let test_tick_grid () =
  List.iter
    (fun (name, run) ->
      let got = run () in
      match List.assoc_opt name grid_pinned with
      | Some expected -> Alcotest.(check string) name expected got
      | None -> Alcotest.failf "unpinned case %S: %S" name got)
    grid_cases;
  check_int "every case pinned" (List.length grid_cases) (List.length grid_pinned)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "tsim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "geometric cap" `Quick test_rng_geometric_cap;
          Alcotest.test_case "geometric equals float loop" `Quick test_rng_geometric_exact;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "store_buffer",
        [
          Alcotest.test_case "fifo" `Quick test_sb_fifo;
          Alcotest.test_case "forwarding newest" `Quick test_sb_forwarding_newest;
          Alcotest.test_case "ring wraparound" `Quick test_sb_interleaved_wraparound;
          Alcotest.test_case "oldest time" `Quick test_sb_oldest_time;
          Alcotest.test_case "dequeue empty raises" `Quick test_sb_dequeue_empty;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read write" `Quick test_mem_rw;
          Alcotest.test_case "alloc alignment" `Quick test_mem_alloc_alignment;
          Alcotest.test_case "alloc exhaustion" `Quick test_mem_alloc_exhaustion;
          Alcotest.test_case "poison" `Quick test_mem_poison;
          Alcotest.test_case "line versions" `Quick test_mem_line_version;
          Alcotest.test_case "untouched defaults" `Quick test_mem_untouched_defaults;
          Alcotest.test_case "zero page isolation" `Quick test_mem_zero_page_isolation;
          Alcotest.test_case "page boundary" `Quick test_mem_page_boundary;
          Alcotest.test_case "partial last page" `Quick test_mem_partial_last_page;
          Alcotest.test_case "resident bound" `Quick test_mem_resident_bound;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "conflict" `Quick test_cache_conflict;
        ] );
      ( "machine",
        [
          Alcotest.test_case "store-load forwarding" `Quick test_machine_store_load_forwarding;
          Alcotest.test_case "fence publishes" `Quick test_machine_fence_publishes;
          Alcotest.test_case "SB reordering observable under TSO" `Quick
            test_machine_sb_reordering_observable_tso;
          Alcotest.test_case "SB never reorders under SC" `Quick
            test_machine_sb_never_reorders_sc;
          Alcotest.test_case "TBTSO bounds visibility" `Quick test_machine_tbtso_bounds_visibility;
          Alcotest.test_case "TSO unbounded invisibility" `Quick
            test_machine_tso_unbounded_invisibility;
          Alcotest.test_case "cas" `Quick test_machine_cas;
          Alcotest.test_case "cas drains buffer" `Quick test_machine_cas_drains_buffer;
          Alcotest.test_case "faa xchg" `Quick test_machine_faa_xchg;
          Alcotest.test_case "faa atomic under contention" `Quick
            test_machine_faa_atomic_under_contention;
          Alcotest.test_case "clock monotonic" `Quick test_machine_clock_monotonic;
          Alcotest.test_case "work costs time" `Quick test_machine_work_costs_time;
          Alcotest.test_case "stall until" `Quick test_machine_stall_until;
          Alcotest.test_case "stall for" `Quick test_machine_stall_for;
          Alcotest.test_case "thread failure" `Quick test_machine_thread_failure;
          Alcotest.test_case "UAF detection" `Quick test_machine_uaf_detection;
          Alcotest.test_case "wild address" `Quick test_machine_wild_address;
          Alcotest.test_case "UAF on buffered commit" `Quick
            test_machine_uaf_on_buffered_store_commit;
          Alcotest.test_case "interrupts flush buffers" `Quick test_machine_interrupts_flush;
          Alcotest.test_case "interrupt hook" `Quick test_machine_interrupt_hook;
          Alcotest.test_case "stats" `Quick test_machine_stats;
          Alcotest.test_case "label hook" `Quick test_machine_label_hook;
          Alcotest.test_case "clock jump fast-forward" `Quick test_machine_clock_jump_is_fast;
          Alcotest.test_case "deadlock names pending instructions" `Quick
            test_machine_deadlock_message;
          Alcotest.test_case "drain all" `Quick test_machine_drain_all;
          Alcotest.test_case "max_ticks clamps fast-forward" `Quick
            test_machine_max_ticks_deadline;
          Alcotest.test_case "drain-kind split" `Quick test_machine_drain_kind_split;
        ] );
      ( "heap",
        [
          Alcotest.test_case "alloc free reuse" `Quick test_heap_alloc_free_reuse;
          Alcotest.test_case "alignment" `Quick test_heap_alignment;
          Alcotest.test_case "zeroing" `Quick test_heap_zeroing;
          Alcotest.test_case "double free" `Quick test_heap_double_free;
          Alcotest.test_case "bad free" `Quick test_heap_bad_free;
          Alcotest.test_case "accounting" `Quick test_heap_accounting;
          Alcotest.test_case "block size" `Quick test_heap_block_size;
          Alcotest.test_case "poison lifecycle" `Quick test_heap_poison_lifecycle;
        ] );
      ( "tbtso-hw",
        [
          Alcotest.test_case "bound emerges from bail-out" `Quick test_hw_bound_emerges;
          Alcotest.test_case "timeout rarely expires" `Quick test_hw_timeout_rarely_expires;
          Alcotest.test_case "quiescence freezes execution" `Quick
            test_hw_quiescence_freezes_execution;
        ] );
      ( "tso-spatial",
        [
          Alcotest.test_case "buffer capacity enforced" `Quick test_tsos_capacity;
          Alcotest.test_case "spatial flush makes old stores visible" `Quick
            test_tsos_spatial_flush_machine;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records sequence" `Quick test_trace_records_sequence;
          Alcotest.test_case "ring overflow" `Quick test_trace_ring_overflow;
          Alcotest.test_case "filter and pp" `Quick test_trace_filter;
          Alcotest.test_case "wraparound order" `Quick test_trace_wraparound_order;
          Alcotest.test_case "commit events" `Quick test_trace_commit_events;
          Alcotest.test_case "export parses" `Quick test_trace_export_parses;
        ] );
      ( "residency",
        [
          Alcotest.test_case "delta invariant" `Quick test_residency_delta_invariant;
        ] );
      ( "await",
        [
          Alcotest.test_case "await equals loop" `Quick test_await_equals_loop;
          Alcotest.test_case "await skips on idle machine" `Quick test_await_skips;
          Alcotest.test_case "deadline await skips" `Quick test_await_deadline_skips;
          Alcotest.test_case "await use-after-free tick" `Quick test_await_use_after_free;
          Alcotest.test_case "await kill_remaining" `Quick test_await_kill_remaining;
          Alcotest.test_case "await until raises" `Quick test_await_until_raises;
          Alcotest.test_case "parked threads skip together" `Quick test_parked_skip_together;
          Alcotest.test_case "probes sharing a line never skip together" `Quick
            test_parked_share_line;
          Alcotest.test_case "probe lines conflicting in the cache" `Quick test_probe_cache_conflict;
          Alcotest.test_case "skipped probe is the last reader" `Quick test_skipped_probe_last_reader;
          Alcotest.test_case "probe rejects malformed steps" `Quick test_probe_rejects;
          Alcotest.test_case "minor words per load and store" `Quick test_minor_words_per_access;
        ] );
      ( "tick loop",
        [
          Alcotest.test_case "pinned grid" `Quick test_tick_grid;
          Alcotest.test_case "pinned event streams" `Quick test_event_stream;
          Alcotest.test_case "spawn after a run takes interrupts" `Quick test_spawn_after_run_interrupts;
        ] );
      ( "rfo",
        [
          Alcotest.test_case "fenced store pays upgrade" `Quick test_rfo_delays_fenced_store;
          Alcotest.test_case "unfenced store hides upgrade" `Quick test_rfo_hidden_without_fence;
          Alcotest.test_case "store still commits" `Quick test_rfo_store_still_commits;
        ] );
      qsuite "properties" [ prop_sb_model; prop_heap_no_overlap; prop_machine_counter_deterministic ];
    ]
