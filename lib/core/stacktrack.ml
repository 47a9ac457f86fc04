open Tsim

type domain = {
  mem : Memory.t;
  nthreads : int;
  capacity : int;
  free : int -> unit;
  active : int array;  (* per-thread transaction start epoch; -1 = none *)
  mutable epoch : int;
  retired : (int * int) Queue.t;  (* (object, epoch at retire) *)
  mutable deferred : int;
}

let create_domain machine ~nthreads ~capacity ~free =
  {
    mem = Machine.memory machine;
    nthreads;
    capacity;
    free;
    active = Array.make nthreads (-1);
    epoch = 0;
    retired = Queue.create ();
    deferred = 0;
  }

let deferred d = d.deferred

type t = {
  dom : domain;
  tid : int;
  mutable read_set : (int * int) list;  (* (line, version at read) *)
  mutable nreads : int;
  mutable split_mode : bool;  (* this attempt runs as split transactions *)
  mutable commits : int;
  mutable aborts : int;
  mutable capacity_aborts : int;
  mutable splits : int;
}

let handle dom ~tid =
  {
    dom;
    tid;
    read_set = [];
    nreads = 0;
    split_mode = false;
    commits = 0;
    aborts = 0;
    capacity_aborts = 0;
    splits = 0;
  }

let commits t = t.commits

let aborts t = t.aborts

let capacity_aborts t = t.capacity_aborts

let splits t = t.splits

let txn_begin_cost = 10

let txn_commit_cost = 10

let txn_abort_cost = 25

(* In split mode StackTrack falls back to instrumenting every access in
   software (per-access tracking so the operation can resume across
   transaction boundaries) — the dominant cost of split operations in the
   original system. *)
let split_read_cost = 5

let start_txn t =
  t.read_set <- [];
  t.nreads <- 0;
  t.dom.active.(t.tid) <- t.dom.epoch;
  Sim.work txn_begin_cost

let abort t =
  t.aborts <- t.aborts + 1;
  t.dom.active.(t.tid) <- -1;
  t.read_set <- [];
  t.nreads <- 0;
  Sim.work txn_abort_cost;
  raise Smr.Op_abort

(* Validate the read set: any line rewritten since we read it means a
   real HTM transaction would have been aborted by the coherence
   protocol. *)
let read_set_valid t =
  List.for_all (fun (line, v) -> t.dom.mem |> fun m -> Memory.line_version m (line lsl Memory.line_shift) = v) t.read_set

let commit t =
  Sim.work txn_commit_cost;
  if not (read_set_valid t) then abort t;
  t.commits <- t.commits + 1;
  t.dom.epoch <- t.dom.epoch + 1;
  t.dom.active.(t.tid) <- -1;
  t.read_set <- [];
  t.nreads <- 0

(* Free retirees older than every active transaction. *)
let try_flush d =
  let min_active = Array.fold_left (fun acc e -> if e >= 0 then Int.min acc e else acc) max_int d.active in
  let rec drain () =
    match Queue.peek_opt d.retired with
    | Some (objp, snap) when snap < min_active ->
        ignore (Queue.pop d.retired);
        d.free objp;
        d.deferred <- d.deferred - 1;
        drain ()
    | Some _ | None -> ()
  in
  drain ()

module Policy = struct
  type nonrec t = t

  let name = "StackTrack"

  let begin_op t = start_txn t

  let end_op t =
    commit t;
    (* Capacity knowledge is per-attempt: the next operation starts
       optimistically in a single transaction again. *)
    t.split_mode <- false

  let abort_cleanup t =
    if t.dom.active.(t.tid) >= 0 then begin
      t.dom.active.(t.tid) <- -1;
      t.read_set <- [];
      t.nreads <- 0
    end

  let quiescent _ = ()

  let read t a =
    (* A read of freed memory would conflict with the freeing writes on
       real HTM: abort instead of faulting. *)
    if Memory.is_poisoned t.dom.mem a then abort t;
    let v = Sim.load a in
    if t.split_mode then Sim.work split_read_cost;
    let line = Memory.line_of a in
    t.read_set <- (line, Memory.line_version t.dom.mem a) :: t.read_set;
    t.nreads <- t.nreads + 1;
    let segment = if t.split_mode then Int.max 2 (t.dom.capacity / 4) else t.dom.capacity in
    if t.nreads >= segment then begin
      if t.split_mode then begin
        (* Split mode: commit this segment and continue in a fresh
           transaction. *)
        t.splits <- t.splits + 1;
        commit t;
        start_txn t
      end
      else begin
        (* First attempt overran HTM capacity: the hardware aborts the
           transaction (work wasted), and the operation retries split
           into smaller transactions — the cost that makes StackTrack
           fall behind on long chains (paper Section 7.1.1). *)
        t.capacity_aborts <- t.capacity_aborts + 1;
        t.split_mode <- true;
        abort t
      end
    end;
    v

  let protect _ ~slot:_ ~ptr:_ = ()

  let protect_copy _ ~slot:_ ~ptr:_ = ()

  let validate _ ~src:_ ~expected:_ = true

  let retire t objp =
    Queue.push (objp, t.dom.epoch) t.dom.retired;
    t.dom.deferred <- t.dom.deferred + 1;
    Sim.work 2;
    try_flush t.dom
end
