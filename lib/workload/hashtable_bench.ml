open Tsim
open Tbtso_structures

type mix = Read_only | Read_write

type stall_spec = { at : int; duration : int }

type params = {
  spec : Smr_methods.spec;
  config : Config.t;
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

let default_params =
  {
    spec = Smr_methods.S_ffhp { r = 512; bound = `Delta (Config.us 500) };
    config = Config.default;
    nthreads = 8;
    mix = Read_write;
    buckets = 64;
    avg_chain = 4;
    run_ticks = 2_000_000;
    stall = None;
    seed = 1;
  }

let universe p = 2 * p.buckets * p.avg_chain

(* One cache line per node, as in the paper's benchmark ("hash table
   nodes are equally sized in all implementations"). *)
let bench_node_words = 8

(* Driver-side prefill: build the initial chains directly in simulated
   memory (paying simulated time for setup would dwarf the measurement
   interval). Even keys start present, giving average chain length L. *)
let prefill machine heap ~buckets ~head_of_bucket ~bucket_of_key ~universe =
  let mem = Machine.memory machine in
  let per_bucket = Array.make buckets [] in
  for key = universe - 1 downto 0 do
    if key mod 2 = 0 then begin
      let b = bucket_of_key key in
      per_bucket.(b) <- key :: per_bucket.(b)
    end
  done;
  for b = 0 to buckets - 1 do
    let rec build = function
      | [] -> Tagged_ptr.null
      | key :: rest ->
          let tail = build rest in
          let node = Heap.alloc heap bench_node_words in
          Memory.write mem ~tid:(-1) ~at:0 node key;
          Memory.write mem ~tid:(-1) ~at:0 (node + 1) tail;
          Tagged_ptr.pack ~ptr:node ~mark:0
    in
    let chain = build (List.sort compare per_bucket.(b)) in
    Memory.write mem ~tid:(-1) ~at:0 (head_of_bucket b) chain
  done

let split_threads p =
  match p.mix with
  | Read_only -> (p.nthreads, 0)
  | Read_write ->
      let updaters = max 1 (p.nthreads / 4) in
      (p.nthreads - updaters, updaters)

let run p =
  let u = universe p in
  (* Headroom: the whole universe churning, plus reclamation deferred for
     the entire stall window (RCU under a stalled reader frees nothing,
     Figure 7's point). *)
  let stall_headroom =
    match p.stall with Some s -> s.duration / 2 | None -> 0
  in
  let heap_words = (8 * bench_node_words * u) + (1 lsl 19) + stall_headroom in
  let mem_words = heap_words + (p.buckets * 8) + (1 lsl 17) in
  let config = { p.config with Config.mem_words } in
  let machine = Machine.create config in
  let heap = Heap.create machine ~words:heap_words in
  let (Smr_methods.I { policy = (module P); handles; post_spawn; deferred }) =
    Smr_methods.instantiate p.spec machine heap ~nthreads:p.nthreads
  in
  let module H = Hash_table.Make (P) in
  let table = H.create ~node_words:bench_node_words machine heap ~buckets:p.buckets in
  prefill machine heap ~buckets:p.buckets
    ~head_of_bucket:(fun b -> H.List.head (H.bucket_list table b))
    ~bucket_of_key:(H.bucket_of_key table) ~universe:u;
  let reader_threads, updater_threads = split_threads p in
  let ops = Array.make p.nthreads 0 in
  (* Readers: tids 0 .. reader_threads-1. *)
  for i = 0 to reader_threads - 1 do
    ignore
      (Machine.spawn machine (fun () ->
           let h = handles.(i) in
           let rng = Rng.create (Int64.of_int ((p.seed * 1_000_003) + i)) in
           let stalled = ref false in
           while not (Sim.stopping ()) do
             let k = Rng.int rng u in
             ignore (H.lookup table h k);
             ops.(i) <- ops.(i) + 1;
             (* The Figure 7 stall: reader 0 blocks inside its read-side
                section (hazard pointers still published, no quiescent
                state announced). *)
             (match p.stall with
             | Some { at; duration } when i = 0 && not !stalled ->
                 if Sim.clock () >= at then begin
                   stalled := true;
                   Sim.stall_for duration
                 end
             | Some _ | None -> ());
             P.quiescent h
           done))
  done;
  (* Updaters: each owns the keys congruent to its index and alternates
     insert/delete over them (the paper's updater workload). *)
  for j = 0 to updater_threads - 1 do
    let tid = reader_threads + j in
    ignore
      (Machine.spawn machine (fun () ->
           let h = handles.(tid) in
           let mine = ref [] in
           for k = u - 1 downto 0 do
             if k mod updater_threads = j then mine := k :: !mine
           done;
           let mine = Array.of_list !mine in
           let present = Array.map (fun k -> k mod 2 = 0) mine in
           let idx = ref 0 in
           while not (Sim.stopping ()) do
             let i = !idx in
             idx := (!idx + 1) mod Array.length mine;
             let k = mine.(i) in
             if present.(i) then begin
               if H.delete table h k then present.(i) <- false
             end
             else if H.insert table h k then present.(i) <- true;
             ops.(tid) <- ops.(tid) + 1;
             P.quiescent h
           done))
  done;
  post_spawn ();
  ignore (Machine.run ~max_ticks:(p.run_ticks - Machine.now machine) machine);
  Machine.request_stop machine;
  (* Grace, counted from the stop: let loops observe the stop flag;
     covers the stall duration and the RCU reclaimer period (clock jumps
     keep this cheap). *)
  let grace = (match p.stall with Some s -> s.at + s.duration | None -> 0) + 200_000_000 in
  ignore (Machine.run ~max_ticks:grace machine);
  Machine.kill_remaining machine;
  let sum_range lo hi f =
    let acc = ref 0 in
    for i = lo to hi do
      acc := !acc + f (Machine.stats machine i)
    done;
    !acc
  in
  let reader_ops = Array.fold_left ( + ) 0 (Array.sub ops 0 reader_threads) in
  let updater_ops =
    Array.fold_left ( + ) 0 (Array.sub ops reader_threads updater_threads)
  in
  {
    method_name = Smr_methods.name p.spec;
    reader_threads;
    updater_threads;
    reader_ops;
    updater_ops;
    run_ticks = p.run_ticks;
    peak_heap_words = Heap.peak_words heap;
    final_deferred = deferred ();
    fences = sum_range 0 (p.nthreads - 1) (fun (s : Machine.thread_stats) -> s.fences);
    rmws = sum_range 0 (p.nthreads - 1) (fun (s : Machine.thread_stats) -> s.rmws);
    cache_misses =
      sum_range 0 (p.nthreads - 1) (fun (s : Machine.thread_stats) -> s.cache_misses);
  }

let reader_mops r =
  let seconds = float_of_int r.run_ticks /. float_of_int (Config.ticks_per_us * 1_000_000) in
  float_of_int r.reader_ops /. seconds /. 1_000_000.0

let updater_mops r =
  let seconds = float_of_int r.run_ticks /. float_of_int (Config.ticks_per_us * 1_000_000) in
  float_of_int r.updater_ops /. seconds /. 1_000_000.0

let pp_result fmt r =
  Format.fprintf fmt
    "%s: readers=%d updaters=%d reader_ops=%d updater_ops=%d peak_words=%d deferred=%d"
    r.method_name r.reader_threads r.updater_threads r.reader_ops r.updater_ops
    r.peak_heap_words r.final_deferred
