open Tsim

type placement = Same_core | Same_socket | Cross_socket

let placement_name = function
  | Same_core -> "same-core"
  | Same_socket -> "same-socket"
  | Cross_socket -> "cross-socket"

let all_placements = [ Same_core; Same_socket; Cross_socket ]

(* Log-normal body parameters (median ns, sigma) per placement, from the
   Figure 5 shapes. *)
let body_params = function
  | Same_core -> (60.0, 0.35)
  | Same_socket -> (140.0, 0.45)
  | Cross_socket -> (300.0, 0.55)

(* Box-Muller from two uniforms. *)
let gaussian rng =
  let u1 = Float.max 1e-12 (Rng.float rng) and u2 = Rng.float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let sample rng placement ~loaded =
  let median, sigma = body_params placement in
  let body = median *. exp (sigma *. gaussian rng) in
  (* Heavy tail: resource contention occasionally delays propagation.
     Under STREAM-like load the tail is fatter but still bounded around
     10 µs at the 99.9th percentile (the paper's observation). *)
  let tail_p = if loaded then 0.002 else 0.0005 in
  if Rng.float rng < tail_p then begin
    let scale = if loaded then 2_200.0 else 1_200.0 in
    body +. (scale *. (1.0 +. (3.0 *. Rng.float rng)))
  end
  else body

let sample_many ~seed placement ~loaded ~n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> sample rng placement ~loaded)

let percentiles samples ps =
  if Array.length samples = 0 then invalid_arg "Storebuf_timing.percentiles: empty";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  List.map
    (fun p ->
      let idx = int_of_float (p *. float_of_int (n - 1)) in
      (p, sorted.(max 0 (min (n - 1) idx))))
    ps

(* Writer/reader rounds on the abstract machine: the writer publishes the
   clock into [v]; the reader spins on [v] and reports visibility delay.
   Round-trip control goes through atomics so only [v]'s drain delay is
   measured. *)
let measure_on_machine ?config ~rounds ~extra_reader_distance () =
  let config =
    match config with
    | Some c -> c
    | None -> Config.(with_drain (Drain_geometric { p = 0.3; cap = 1000 }) default)
  in
  let machine = Machine.create config in
  let v = Machine.alloc_global machine 8 in
  let ack = Machine.alloc_global machine 8 in
  let samples = ref [] in
  (* Two acks per round so neither side can miss a transition of [v]. *)
  ignore
    (Machine.spawn machine (fun () ->
         for round = 1 to rounds do
           Sim.store v (Sim.clock ());
           (* Non-store work stream: the store drains on the machine's
              schedule, not because of a fence. *)
           ignore (Sim.await ack ~until:(fun a -> a >= (2 * round) - 1) ~backoff:0);
           Sim.store v 0;
           ignore (Sim.await ack ~until:(fun a -> a >= 2 * round) ~backoff:0)
         done));
  ignore
    (Machine.spawn machine (fun () ->
         for _round = 1 to rounds do
           Sim.work extra_reader_distance;
           ignore (Sim.await v ~until:(fun x -> x <> 0) ~backoff:0);
           let stamped = Sim.load v in
           let delay = Sim.clock () - stamped in
           samples := float_of_int (delay * 10) :: !samples;
           (* 10 ns per tick *)
           ignore (Sim.faa ack 1);
           ignore (Sim.await v ~until:(fun x -> x = 0) ~backoff:0);
           ignore (Sim.faa ack 1)
         done));
  ignore (Machine.run ~max_ticks:(rounds * 100_000) machine);
  Machine.kill_remaining machine;
  Array.of_list !samples
