(* Seeded random client windows for the litmus workloads: a port of the
   qcheck generator in test/test_scenario.ml onto Tsim.Rng, so that the
   benchmark's inputs depend on nothing but its seed. Same op
   frequencies, waits up to 3, and two threads of two ops each: the
   two-party shape of the paper's protocols (reader and reclaimer, owner
   and non-owner). Three-thread windows cost 30x more at the 98th
   percentile than at the median, so a run of them measures which
   windows the seed drew rather than the checker. *)

open Tsim

let reg rng = Rng.int rng 4

let addr rng = Rng.int rng 4

let wait rng = Rng.int_in rng 1 3

(* (weight, constructor) — the weights of test_scenario.ml's op_gen. *)
let ops : (int * (Rng.t -> Scenario.op)) list =
  [
    (3, fun g -> Scenario.Store (addr g, 1 + Rng.int g 2));
    (3, fun g -> Scenario.Load (addr g, reg g));
    (1, fun g -> Scenario.Loadeq (addr g, 1, 1 + Rng.int g 2));
    (1, fun _ -> Scenario.Fence);
    (1, fun g -> Scenario.Wait (wait g));
    (1, fun g -> Scenario.Cas (addr g, 0, 1, reg g));
    (1, fun _ -> Scenario.Hp_protect);
    (1, fun g -> Scenario.Hp_validate (reg g));
    (1, fun g -> Scenario.Hp_access (reg g));
    (1, fun _ -> Scenario.Hp_retire);
    (1, fun g -> Scenario.Hp_scan_free (wait g));
    (1, fun g -> Scenario.Bl_owner_lock (reg g));
    (1, fun _ -> Scenario.Bl_owner_unlock);
    (1, fun g ->
      let d = wait g in
      let rl = reg g in
      Scenario.Bl_nonowner_lock (d, rl, reg g));
    (1, fun g -> Scenario.Bl_owner_echo (reg g));
    (1, fun g ->
      let d = wait g in
      let re = reg g in
      Scenario.Bl_nonowner_echo_lock (d, re, reg g));
    (1, fun g -> Scenario.Fl_raise (addr g));
    (1, fun g ->
      let f = addr g in
      Scenario.Fl_raise_bounded (f, wait g));
    (1, fun g ->
      let f = addr g in
      Scenario.Fl_check (f, reg g));
    (1, fun _ -> Scenario.Rcu_read_lock);
    (1, fun g -> Scenario.Rcu_deref (reg g));
    (1, fun g -> Scenario.Rcu_access (reg g));
    (1, fun _ -> Scenario.Rcu_read_unlock);
    (1, fun _ -> Scenario.Rcu_remove);
    (1, fun g -> Scenario.Rcu_sync_free (wait g));
    (1, fun g -> Scenario.Sp_owner_enter (reg g));
    (1, fun _ -> Scenario.Sp_owner_exit);
    (1, fun _ -> Scenario.Sp_revoke_request);
    (1, fun g -> Scenario.Sp_revoke_wait (wait g));
    (1, fun g -> Scenario.Sp_revoke_check (reg g));
  ]

let total_weight = List.fold_left (fun acc (w, _) -> acc + w) 0 ops

let op rng =
  let rec pick k = function
    | (w, f) :: rest -> if k < w then f rng else pick (k - w) rest
    | [] -> assert false
  in
  pick (Rng.int rng total_weight) ops

let threads = 2

let ops_per_thread = 2

let window rng =
  let threads = List.init threads (fun _ -> List.init ops_per_thread (fun _ -> op rng)) in
  let t = Rng.int rng (List.length threads) in
  let r = reg rng in
  {
    Scenario.name = "perf_client";
    algorithm = "random";
    descr = [];
    threads;
    quantifier = Litmus_parse.Exists;
    condition = [ Litmus_parse.Reg_eq (t, r, 0) ];
    expect = [];
  }

(* [n] windows from [seed], each passed to [f] as it is drawn; window
   [i] comes from its own split of the seed's stream. *)
let windows ~seed n f =
  let root = Rng.create (Int64.of_int seed) in
  Array.init n (fun _ -> f (window (Rng.split root)))
