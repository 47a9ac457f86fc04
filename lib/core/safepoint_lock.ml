open Tsim

type t = {
  flag0 : int;  (* owner's lock word (informational fast-path store) *)
  req : int;  (* pending revocation token; 0 = none *)
  grant : int;  (* token of the last revocation the owner acknowledged *)
  seq : int;  (* revocation token source *)
  l : Spinlock.Tas.t;
  mutable fast : int;
  mutable slow : int;
  mutable in_fast_cs : bool;  (* owner-local: which path lock() took *)
}

let create machine =
  {
    flag0 = Machine.alloc_global machine 8;
    req = Machine.alloc_global machine 8;
    grant = Machine.alloc_global machine 8;
    seq = Machine.alloc_global machine 8;
    l = Spinlock.Tas.create machine;
    fast = 0;
    slow = 0;
    in_fast_cs = false;
  }

(* Reaching a safe point with a pending revocation: make our lowered lock
   word globally visible, then acknowledge the request by echoing its
   token. Tokens are unique per revocation, so a stale grant from an
   earlier round can never satisfy a later requester. *)
let serve_revocation t r =
  Sim.fence ();
  Sim.store t.grant r

(* Queue on L. Spinning here is outside any critical section, so it is a
   legitimate safe point: keep serving new revocation requests, or the
   non-owner holding L while awaiting a grant would deadlock with us.
   One probe per token: trylock, then load req and exit on a token not
   yet served, then work 10. *)
let acquire_l_serving t =
  let rec go last =
    let values = [| 0 |] in
    let fresh vs = vs.(0) <> 0 && vs.(0) <> last in
    let steps = [| Spinlock.Tas.trylock_step t.l; Sim.Load (t.req, Some fresh) |] in
    if Sim.probe steps values ~backoff:10 = 1 then begin
      serve_revocation t values.(0);
      go values.(0)
    end
  in
  go 0

let owner_lock t =
  let r = Sim.load t.req in
  if r <> 0 then begin
    (* Safe point: hand the lock over before queueing on L. *)
    serve_revocation t r;
    acquire_l_serving t;
    t.in_fast_cs <- false;
    t.slow <- t.slow + 1
  end
  else begin
    Sim.store t.flag0 1;
    (* Re-check after publishing intent: a request that arrived in the
       window is honoured before entering. *)
    let r = Sim.load t.req in
    if r <> 0 then begin
      Sim.store t.flag0 0;
      serve_revocation t r;
      acquire_l_serving t;
      t.in_fast_cs <- false;
      t.slow <- t.slow + 1
    end
    else begin
      t.in_fast_cs <- true;
      t.fast <- t.fast + 1
    end
  end

let owner_unlock t =
  if t.in_fast_cs then begin
    Sim.store t.flag0 0;
    t.in_fast_cs <- false;
    (* Safe point. *)
    let r = Sim.load t.req in
    if r <> 0 then serve_revocation t r
  end
  else Spinlock.Tas.unlock t.l

let nonowner_lock t =
  Spinlock.Tas.lock t.l;
  let token = 1 + Sim.faa t.seq 1 in
  Sim.store t.req token;
  Sim.fence ();
  (* Block until the owner acknowledges from a safe point: unbounded if
     the owner is stalled — the cost FFBL's Δ bound removes. *)
  ignore (Sim.await t.grant ~until:(fun g -> g = token) ~backoff:10)

let nonowner_unlock t =
  Sim.store t.req 0;
  Spinlock.Tas.unlock t.l

let owner_fast_acquisitions t = t.fast

let owner_slow_acquisitions t = t.slow
