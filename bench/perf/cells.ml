(* The simulator workloads' cells: one cell is one call of a workload
   driver (Hashtable_bench.run or Lock_bench.run) on fixed parameters,
   the unit bench/main.exe regenerates a figure point with. *)

open Tsim
open Tbtso_workload

type params = Ht of Hashtable_bench.params | Lock of Lock_bench.params

type t = { id : string; params : params }

type outcome = Ht_result of Hashtable_bench.result | Lock_result of Lock_bench.result

(* The six fig6 methods at quick scale (bench/main.ml's smr_specs): the
   OS-adapted FFHP needs timer interrupts, with a 200 us period. *)
let smr_specs =
  [
    (Smr_methods.S_hp { r = 512 }, None);
    (Smr_methods.S_ffhp { r = 512; bound = `Delta (Config.us 500) }, None);
    (Smr_methods.S_ffhp { r = 512; bound = `Os_adapted }, Some (Config.us 200));
    (Smr_methods.S_rcu { period = Config.ms 2 }, None);
    (Smr_methods.S_dta { batch = 1 }, None);
    (Smr_methods.S_stacktrack { capacity = 48 }, None);
  ]

let lock_kinds =
  [
    Lock_bench.L_pthread;
    Lock_bench.L_safepoint;
    Lock_bench.L_ffbl { delta = Config.us 500; echo = true };
    Lock_bench.L_ffbl { delta = Config.us 500; echo = false };
    Lock_bench.L_ffbl_adapted { period = Config.ms 4; echo = true };
  ]

let ht_cells ~costs ~mix ~avg_chain ~threads ~run_ticks ~seed =
  List.concat_map
    (fun (spec, interrupt) ->
      List.map
        (fun nthreads ->
          let config =
            {
              Config.default with
              Config.cache_bits = 8;
              seed = Int64.of_int seed;
              costs;
              interrupt_period = interrupt;
            }
          in
          {
            id = Printf.sprintf "%s/n=%d" (Smr_methods.name spec) nthreads;
            params =
              Ht
                {
                  Hashtable_bench.spec;
                  config;
                  nthreads;
                  mix;
                  buckets = 128;
                  avg_chain;
                  run_ticks;
                  stall = None;
                  seed;
                };
          })
        threads)
    smr_specs

(* Each workload's cells; [run_ticks] is their length, which
   Workload.all sets for the timed runs and for the golden digests. *)
let ht_read ~run_ticks ~seed =
  ht_cells ~costs:Config.haswell_costs ~mix:Hashtable_bench.Read_only ~avg_chain:64
    ~threads:[ 2; 8 ] ~run_ticks ~seed

let ht_update ~run_ticks ~seed =
  ht_cells ~costs:Config.default_costs ~mix:Hashtable_bench.Read_write ~avg_chain:4
    ~threads:[ 4; 8 ] ~run_ticks ~seed

let lock_spin ~run_ticks ~seed =
  List.concat_map
    (fun (pattern : Lock_bench.pattern) ->
      List.map
        (fun kind ->
          {
            id = Printf.sprintf "%s/%s" pattern.pattern_name (Lock_bench.kind_name kind);
            params =
              Lock
                {
                  Lock_bench.kind;
                  pattern;
                  config = { Config.default with Config.seed = Int64.of_int seed };
                  run_ticks;
                  cs_ticks = 60;
                  seed;
                };
          })
        lock_kinds)
    (Lock_bench.paper_patterns ())

let run c =
  match c.params with
  | Ht p -> Ht_result (Hashtable_bench.run p)
  | Lock p -> Lock_result (Lock_bench.run p)

(* Simulated operations a cell completed: lookups plus updates, or lock
   acquisitions by both threads. *)
let ops = function
  | Ht_result r -> r.reader_ops + r.updater_ops
  | Lock_result r -> r.owner_acquisitions + r.nonowner_acquisitions

(* Every simulated field of the result, in a fixed textual form. *)
let describe = function
  | Ht_result r ->
      Printf.sprintf
        "%s readers=%d updaters=%d reader_ops=%d updater_ops=%d ticks=%d peak_heap=%d \
         deferred=%d fences=%d rmws=%d misses=%d"
        r.method_name r.reader_threads r.updater_threads r.reader_ops r.updater_ops
        r.run_ticks r.peak_heap_words r.final_deferred r.fences r.rmws r.cache_misses
  | Lock_result r ->
      Printf.sprintf "%s owner=%d nonowner=%d ticks=%d echo_cuts=%d full_waits=%d"
        r.kind_name r.owner_acquisitions r.nonowner_acquisitions r.run_ticks r.echo_cuts
        r.full_waits

let digest o = Digest.to_hex (Digest.string (describe o))
