(** The Section 7.1 hash-table benchmark driver (Figures 6 and 7).

    [n] threads operate on a [buckets]-bucket chaining hash table whose
    chains are Michael lists, over a key universe sized so that the
    average chain length is [avg_chain] (the paper's L) with half the
    universe initially present. Read-only mode runs all threads as
    lookup loops; read/write mode splits them 3:1 into readers and
    updaters, each updater alternating insert/delete over a privately
    owned partition of the universe (the paper's workload).

    Results are deterministic for a given [params]. *)

type mix = Read_only | Read_write

type stall_spec = { at : int; duration : int }
(** Reader thread 0 stalls [duration] ticks inside its read-side section
    once the clock passes [at] (the Figure 7 experiment). *)

type params = {
  spec : Smr_methods.spec;
  config : Tsim.Config.t;
      (** [mem_words] is replaced by an address space sized for the
          worst-case heap; only the pages the run touches are backed. *)
  nthreads : int;
  mix : mix;
  buckets : int;
  avg_chain : int;
  run_ticks : int;
  stall : stall_spec option;
  seed : int;
}

type result = {
  method_name : string;
  reader_threads : int;
  updater_threads : int;
  reader_ops : int;
  updater_ops : int;
  run_ticks : int;
  peak_heap_words : int;
  final_deferred : int;
  fences : int;
  rmws : int;
  cache_misses : int;
}

val default_params : params
(** FFHP[0.5ms-sim], default TBTSO config, 8 threads, 64 buckets, L=4,
    2M ticks, no stall, seed 1. *)

val universe : params -> int
(** 2 × buckets × avg_chain keys; even keys initially present. *)

val run : params -> result

val reader_mops : result -> float
(** Reader throughput in million ops per simulated second. *)

val updater_mops : result -> float

val pp_result : Format.formatter -> result -> unit
