open Tsim

let idle_stamp = max_int / 2

type domain = {
  ts_base : int;  (* per-thread operation-start timestamps, one line each *)
  anchor_base : int;  (* per-thread anchors, one line each *)
  nthreads : int;
  batch : int;
  free : int -> unit;
  mutable deferred : int;
}

let line = 8

let create_domain machine ~nthreads ~batch ~free =
  let ts_base = Machine.alloc_global machine (nthreads * line) in
  let anchor_base = Machine.alloc_global machine (nthreads * line) in
  let mem = Machine.memory machine in
  (* All threads start idle. *)
  for tid = 0 to nthreads - 1 do
    Memory.write mem ~tid:(-1) ~at:0 (ts_base + (tid * line)) idle_stamp
  done;
  { ts_base; anchor_base; nthreads; batch; free; deferred = 0 }

let ts d tid = d.ts_base + (tid * line)

let anchor d tid = d.anchor_base + (tid * line)

let deferred d = d.deferred

type t = {
  dom : domain;
  tid : int;
  mutable rlist_rev : (int * int) list;  (* (object, retire time) *)
  mutable rcount : int;
}

let handle dom ~tid = { dom; tid; rlist_rev = []; rcount = 0 }

(* Free every deferred object retired before all in-flight operations
   began. Reads every thread's timestamp: the expensive updater-side scan
   the paper's evaluation highlights. *)
let scan_and_free t =
  let d = t.dom in
  let rec min_start i acc =
    if i >= d.nthreads then acc else min_start (i + 1) (Int.min acc (Sim.load (ts d i)))
  in
  let horizon = min_start 0 max_int in
  let kept = ref [] in
  List.iter
    (fun ((objp, time) as entry) ->
      if time < horizon then begin
        d.free objp;
        d.deferred <- d.deferred - 1;
        t.rcount <- t.rcount - 1;
        Sim.work 2
      end
      else kept := entry :: !kept)
    (List.rev t.rlist_rev);
  t.rlist_rev <- !kept

module Policy = struct
  type nonrec t = t

  let name = "DTA"

  let begin_op t =
    (* Timestamp the operation start; the fence makes it visible before
       any data-structure read, which is what lets reclaimers trust it. *)
    Sim.store (ts t.dom t.tid) (Sim.clock ());
    Sim.fence ();
    (* The anchor CAS the fast path pays at least once per operation. *)
    ignore (Sim.cas (anchor t.dom t.tid) ~expected:0 ~desired:1)

  let end_op t =
    Sim.store (ts t.dom t.tid) idle_stamp;
    (* The paper's DTA stamps begin AND end "including issuing a fence":
       the end stamp must be promptly visible or reclaimers would treat
       the thread as still inside the old operation. *)
    Sim.fence ()

  let abort_cleanup _ = ()

  let quiescent _ = ()

  let read _ a = Sim.load a

  let protect _ ~slot:_ ~ptr:_ = ()

  let protect_copy _ ~slot:_ ~ptr:_ = ()

  let validate _ ~src:_ ~expected:_ = true

  let retire t objp =
    t.rlist_rev <- (objp, Sim.clock ()) :: t.rlist_rev;
    t.rcount <- t.rcount + 1;
    t.dom.deferred <- t.dom.deferred + 1;
    if t.rcount >= t.dom.batch then scan_and_free t
end
