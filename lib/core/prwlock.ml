open Tsim

type t = {
  reader_flags : int;  (* one line per reader slot *)
  acks : int;  (* one line per reader slot: echoed writer round *)
  nreaders : int;
  writer_flag : int;  (* 0 = free, otherwise the active writer's round *)
  l : Spinlock.Tas.t;  (* serializes writers *)
  bound : Bound.t;
  echo : bool;
  mutable round : int;  (* host-side; only the L holder advances it *)
  mutable backoffs : int;
  mutable echo_cut_writes : int;
  mutable full_wait_writes : int;
}

let line = 8

let create ?(echo = true) machine ~nreaders ~bound =
  {
    reader_flags = Machine.alloc_global machine (nreaders * line);
    acks = Machine.alloc_global machine (nreaders * line);
    nreaders;
    writer_flag = Machine.alloc_global machine line;
    l = Spinlock.Tas.create machine;
    bound;
    echo;
    round = 0;
    backoffs = 0;
    echo_cut_writes = 0;
    full_wait_writes = 0;
  }

let flag t r = t.reader_flags + (r * line)

let ack t r = t.acks + (r * line)

let rec read_lock t ~reader =
  (* Raise our flag — plain store, the whole point — then look at the
     writer's flag (the fence-free T0 of the flag principle). *)
  Sim.store (flag t reader) 1;
  let w = Sim.load t.writer_flag in
  if w <> 0 then begin
    t.backoffs <- t.backoffs + 1;
    Sim.store (flag t reader) 0;
    (* Echo the writer's round while waiting: because our store buffer is
       FIFO, the writer observing our ack knows every earlier store of
       ours (including the raise and the lower above) has committed, so
       it can trust our flag without waiting out Δ. *)
    let rec wait () =
      let w = Sim.load t.writer_flag in
      if w <> 0 then begin
        if t.echo then Sim.store (ack t reader) w;
        Sim.work 10;
        wait ()
      end
    in
    wait ();
    read_lock t ~reader
  end

let read_unlock t ~reader = Sim.store (flag t reader) 0

let write_lock t =
  Spinlock.Tas.lock t.l;
  t.round <- t.round + 1;
  let round = t.round in
  Sim.store t.writer_flag round;
  Sim.fence ();
  (* The asymmetric slow path: wait until every reader store issued
     before [now] is visible — or until every reader has echoed this
     round, which certifies the same thing per reader without the Δ
     wait. A reader that raises after our (already visible) flag backs
     off, so a clear flag can then be trusted. *)
  let now = Sim.clock () in
  let all_acked () =
    let rec go r = r >= t.nreaders || (Sim.load (ack t r) = round && go (r + 1)) in
    t.echo && go 0
  in
  let rec await () =
    if all_acked () then t.echo_cut_writes <- t.echo_cut_writes + 1
    else if Bound.visible_horizon t.bound ~now:(Sim.clock ()) > now then
      t.full_wait_writes <- t.full_wait_writes + 1
    else begin
      Sim.work 10;
      await ()
    end
  in
  await ();
  for r = 0 to t.nreaders - 1 do
    ignore (Sim.await (flag t r) ~until:(fun f -> f = 0) ~backoff:10)
  done

let write_unlock t =
  Sim.store t.writer_flag 0;
  Spinlock.Tas.unlock t.l

let reader_backoffs t = t.backoffs

let echo_cut_writes t = t.echo_cut_writes

let full_wait_writes t = t.full_wait_writes
