open Tsim

module Ticket = struct
  type t = { next : int; serving : int; mutable acquisitions : int }

  let create machine =
    let next = Machine.alloc_global machine 8 in
    let serving = Machine.alloc_global machine 8 in
    { next; serving; acquisitions = 0 }

  let lock t =
    let my = Sim.faa t.next 1 in
    ignore (Sim.await t.serving ~until:(fun v -> v = my) ~backoff:10);
    t.acquisitions <- t.acquisitions + 1

  let unlock t =
    (* Only the holder writes [serving]; a plain store is a legal TSO
       release (x86 mutex unlock fast path). *)
    Sim.store t.serving (Sim.load t.serving + 1)

  let acquisitions t = t.acquisitions
end

module Tas = struct
  type t = { word : int }

  let create machine = { word = Machine.alloc_global machine 8 }

  let trylock t = Sim.cas t.word ~expected:0 ~desired:1

  let trylock_step t = Sim.Cas { addr = t.word; expected = 0; desired = 1 }

  let trylock_until t ~backoff = ignore (Sim.probe [| trylock_step t |] [||] ~backoff)

  let lock t =
    let rec spin backoff =
      if not (trylock t) then begin
        (* Test-and-test-and-set with bounded backoff. *)
        ignore (Sim.await t.word ~until:(fun v -> v = 0) ~backoff);
        spin (Int.min (backoff * 2) 200)
      end
    in
    spin 10

  let unlock t = Sim.store t.word 0
end
