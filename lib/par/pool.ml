type worker_stats = { domain : int; tasks : int; busy_s : float }

(* Mutable per-domain slot; slot [i] is written only by domain [i]
   (slot 0 by the caller), so no locking is needed around updates. *)
type slot = { mutable s_tasks : int; mutable s_busy : float }

(* One queued chunk: its task count, the runner (which never raises:
   task exceptions are captured into the submission's error cell) and
   the completion signal. [exec] charges the chunk to its domain's slot
   {e before} signalling, so a caller woken by the last completion
   reads up-to-date [stats]. *)
type chunk = { ntasks : int; run : unit -> unit; finish : unit -> unit }

type t = {
  size : int;
  mutex : Mutex.t;
  work_available : Condition.t;  (* signalled on enqueue and shutdown *)
  job_done : Condition.t;  (* signalled when a submission's last chunk ends *)
  queue : chunk Queue.t;
  mutable closed : bool;
  mutable joined : bool;
  mutable spawned : unit Domain.t array;
  slots : slot array;
  profiler : Tbtso_obs.Span.t;
}

let max_domains = 8

let default_domains () = min (Domain.recommended_domain_count ()) max_domains

(* Run one queued chunk outside the lock, charging its wall time and
   task count to this domain's slot, then signal its completion. With a
   recording profiler each chunk is one [pool.chunk] span on the
   executing domain's buffer — this is where the per-domain span
   buffers the tasks fill get created and later merged from. *)
let exec t id c =
  let slot = t.slots.(id) in
  let t0 = Unix.gettimeofday () in
  Tbtso_obs.Span.with_span t.profiler "pool.chunk" (fun () ->
      Tbtso_obs.Span.count t.profiler "tasks" c.ntasks;
      c.run ());
  slot.s_busy <- slot.s_busy +. (Unix.gettimeofday () -. t0);
  slot.s_tasks <- slot.s_tasks + c.ntasks;
  c.finish ()

let worker t id =
  Mutex.lock t.mutex;
  let rec loop () =
    match Queue.take_opt t.queue with
    | Some chunk ->
        Mutex.unlock t.mutex;
        exec t id chunk;
        Mutex.lock t.mutex;
        loop ()
    | None ->
        if t.closed then Mutex.unlock t.mutex
        else begin
          Condition.wait t.work_available t.mutex;
          loop ()
        end
  in
  loop ()

let create ?domains ?(profiler = Tbtso_obs.Span.disabled) () =
  let size = max 1 (match domains with Some n -> n | None -> default_domains ()) in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      job_done = Condition.create ();
      queue = Queue.create ();
      closed = false;
      joined = false;
      spawned = [||];
      slots = Array.init size (fun _ -> { s_tasks = 0; s_busy = 0.0 });
      profiler;
    }
  in
  t.spawned <-
    Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let domains t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  if not t.joined then begin
    t.joined <- true;
    Array.iter Domain.join t.spawned
  end

let with_pool ?domains ?profiler f =
  let t = create ?domains ?profiler () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Sequential fast path: a pool of one is an in-line map (the caller is
   the only worker), with exceptions propagating as usual. *)
let map_inline t f xs =
  let slot = t.slots.(0) in
  Array.map
    (fun x ->
      let t0 = Unix.gettimeofday () in
      let y = f x in
      slot.s_busy <- slot.s_busy +. (Unix.gettimeofday () -. t0);
      slot.s_tasks <- slot.s_tasks + 1;
      y)
    xs

let map ?chunk t f xs =
  if t.closed then invalid_arg "Pool.map: pool was shut down";
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.size = 1 then map_inline t f xs
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 ((n + (t.size * 4) - 1) / (t.size * 4))
    in
    let nchunks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    let remaining = ref nchunks in
    (* First task exception, with backtrace; written under the pool
       mutex, read without it (a monotone None -> Some flip used only to
       skip work early, so the race is benign). *)
    let err = ref None in
    let run_chunk lo hi () =
      try
        for i = lo to hi - 1 do
          if !err = None then results.(i) <- Some (f xs.(i))
        done
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mutex;
        if !err = None then err := Some (e, bt);
        Mutex.unlock t.mutex
    in
    let finish () =
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.job_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for c = 0 to nchunks - 1 do
      let lo = c * chunk in
      let hi = min n (lo + chunk) in
      Queue.push { ntasks = hi - lo; run = run_chunk lo hi; finish } t.queue
    done;
    Condition.broadcast t.work_available;
    (* The caller works the queue too; once it runs dry, wait for the
       in-flight chunks of other domains to finish. *)
    let rec drive () =
      if !remaining > 0 then begin
        (match Queue.take_opt t.queue with
        | Some chunk ->
            Mutex.unlock t.mutex;
            exec t 0 chunk;
            Mutex.lock t.mutex
        | None -> Condition.wait t.job_done t.mutex);
        drive ()
      end
    in
    drive ();
    Mutex.unlock t.mutex;
    match !err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map (function Some y -> y | None -> assert false) results
  end

let map_list ?chunk t f xs =
  Array.to_list (map ?chunk t f (Array.of_list xs))

let stats t =
  Array.to_list
    (Array.mapi
       (fun i s -> { domain = i; tasks = s.s_tasks; busy_s = s.s_busy })
       t.slots)

let record_metrics t registry =
  let open Tbtso_obs in
  Metrics.set (Metrics.gauge registry "par.domains") (float_of_int t.size);
  let total_tasks = Metrics.counter registry "par.tasks" in
  let total_busy = Metrics.gauge registry "par.busy_s" in
  List.iter
    (fun w ->
      Metrics.add total_tasks w.tasks;
      Metrics.set total_busy (Metrics.gauge_value total_busy +. w.busy_s);
      Metrics.add
        (Metrics.counter registry (Printf.sprintf "par.domain%d.tasks" w.domain))
        w.tasks;
      let g =
        Metrics.gauge registry (Printf.sprintf "par.domain%d.busy_s" w.domain)
      in
      Metrics.set g (Metrics.gauge_value g +. w.busy_s))
    (stats t)
