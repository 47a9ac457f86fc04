open Tsim

type t = {
  readers : int;  (* active reader count *)
  writer : int;  (* writer-present bit *)
  l : Spinlock.Tas.t;  (* serializes writers *)
}

let create machine =
  {
    readers = Machine.alloc_global machine 8;
    writer = Machine.alloc_global machine 8;
    l = Spinlock.Tas.create machine;
  }

let rec read_lock t =
  ignore (Sim.faa t.readers 1);
  if Sim.load t.writer <> 0 then begin
    (* Writer active or arriving: back out and wait. *)
    ignore (Sim.faa t.readers (-1));
    ignore (Sim.await t.writer ~until:(fun w -> w = 0) ~backoff:10);
    read_lock t
  end

let read_unlock t = ignore (Sim.faa t.readers (-1))

let write_lock t =
  Spinlock.Tas.lock t.l;
  Sim.store t.writer 1;
  Sim.fence ();
  ignore (Sim.await t.readers ~until:(fun n -> n = 0) ~backoff:10)

let write_unlock t =
  Sim.store t.writer 0;
  Spinlock.Tas.unlock t.l
