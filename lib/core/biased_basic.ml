open Tsim

type t = {
  flag0 : int;  (* owner's flag *)
  flag1 : int;  (* non-owner's flag *)
  l : Spinlock.Tas.t;
  mutable fast : int;
  mutable slow : int;
}

let create machine =
  {
    flag0 = Machine.alloc_global machine 8;
    flag1 = Machine.alloc_global machine 8;
    l = Spinlock.Tas.create machine;
    fast = 0;
    slow = 0;
  }

(* Figure 3b. *)
let owner_lock t =
  Sim.store t.flag0 1;
  Sim.fence ();
  if Sim.load t.flag1 <> 0 then begin
    (* Back off in favour of the non-owner and queue on L. *)
    Sim.store t.flag0 0;
    Spinlock.Tas.lock t.l;
    t.slow <- t.slow + 1
  end
  else t.fast <- t.fast + 1

(* Figure 3c: which path we took is recorded in flag0 itself. *)
let owner_unlock t =
  if Sim.load t.flag0 <> 0 then Sim.store t.flag0 0
  else Spinlock.Tas.unlock t.l

(* Figure 3d. *)
let nonowner_lock t =
  Spinlock.Tas.lock t.l;
  Sim.store t.flag1 1;
  Sim.fence ();
  ignore (Sim.await t.flag0 ~until:(fun f0 -> f0 = 0) ~backoff:10)

let nonowner_unlock t =
  Sim.store t.flag1 0;
  Spinlock.Tas.unlock t.l

let owner_fast_acquisitions t = t.fast

let owner_slow_acquisitions t = t.slow
