open Tsim

(* A flag packs (version, raised-bit): 63-bit version, 1-bit f. *)
let encode ~v ~f = (v lsl 1) lor f

let version x = x lsr 1

let raised x = x land 1

type t = {
  flag0 : int;  (* owner's flag *)
  flag1 : int;  (* non-owner's flag *)
  l : Spinlock.Tas.t;
  bound : Bound.t;
  echo : bool;
  mutable fast : int;
  mutable slow : int;
  mutable echo_cuts : int;
  mutable full_waits : int;
}

let create machine ~bound ~echo =
  {
    flag0 = Machine.alloc_global machine 8;
    flag1 = Machine.alloc_global machine 8;
    l = Spinlock.Tas.create machine;
    bound;
    echo;
    fast = 0;
    slow = 0;
    echo_cuts = 0;
    full_waits = 0;
  }

(* Figure 3f: raise flag0 with NO fence; if the non-owner flag is up,
   back off and acquire L, echoing the non-owner's version while
   spinning. *)
let owner_lock t =
  Sim.store t.flag0 (encode ~v:0 ~f:1);
  let f1 = Sim.load t.flag1 in
  if raised f1 <> 0 then begin
    Sim.store t.flag0 (encode ~v:0 ~f:0);
    if t.echo then
      (* Until trylock succeeds, echo: load flag1 and store its version
         to flag0, telling the non-owner we are spinning on L so it can
         stop its Δ wait. *)
      ignore
        (Sim.probe
           [|
             Spinlock.Tas.trylock_step t.l;
             Sim.Load (t.flag1, None);
             Sim.Store (t.flag0, fun vs -> encode ~v:(version vs.(0)) ~f:0);
           |]
           [| 0 |] ~backoff:0)
    else Spinlock.Tas.trylock_until t.l ~backoff:10;
    t.slow <- t.slow + 1
  end
  else t.fast <- t.fast + 1

(* Figure 3g: both branches lower flag0 (clearing any echo residue); the
   f bit of the current value says which path lock() took. *)
let owner_unlock t =
  let f0 = Sim.load t.flag0 in
  if raised f0 <> 0 then Sim.store t.flag0 (encode ~v:0 ~f:0)
  else begin
    Sim.store t.flag0 (encode ~v:0 ~f:0);
    Spinlock.Tas.unlock t.l
  end

(* Figure 3h. *)
let nonowner_lock t =
  Spinlock.Tas.lock t.l;
  let v = version (Sim.load t.flag1) + 1 in
  Sim.store t.flag1 (encode ~v ~f:1);
  Sim.fence ();
  let now = Sim.clock () in
  (* await (all owner stores issued before [now] visible) or (echo):
     either way it is then safe to trust what we read in flag0. One
     probe: load flag0 and exit on the echo, then the bound's steps (a
     clock deadline, or a clock read and each core's entry). *)
  let echoed values = version values.(0) = v in
  let steps =
    Array.append [| Sim.Load (t.flag0, Some echoed) |] (Bound.visible_steps t.bound ~after:now ~slot:1)
  in
  let values = Array.make (Array.length steps) 0 in
  if Sim.probe steps values ~backoff:10 = 0 then t.echo_cuts <- t.echo_cuts + 1
  else t.full_waits <- t.full_waits + 1;
  (* await flag0.f = 0. *)
  ignore (Sim.await t.flag0 ~until:(fun f0 -> raised f0 = 0) ~backoff:10)

let nonowner_unlock t =
  let v = version (Sim.load t.flag1) + 1 in
  Sim.store t.flag1 (encode ~v ~f:0);
  Spinlock.Tas.unlock t.l

let owner_fast_acquisitions t = t.fast

let owner_slow_acquisitions t = t.slow

let nonowner_echo_cuts t = t.echo_cuts

let nonowner_full_waits t = t.full_waits
