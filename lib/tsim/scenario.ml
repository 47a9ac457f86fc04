(* Bounded-scenario compiler: client windows of the lib/core algorithms
   lowered to litmus programs. See scenario.mli for the op semantics and
   the per-algorithm shared-cell layouts. *)

module Json = Tbtso_obs.Json

type op =
  | Store of int * int
  | Load of int * int
  | Loadeq of int * int * int
  | Fence
  | Wait of int
  | Cas of int * int * int * int
  | Hp_protect
  | Hp_validate of int
  | Hp_access of int
  | Hp_retire
  | Hp_scan_free of int
  | Bl_owner_lock of int
  | Bl_owner_unlock
  | Bl_nonowner_lock of int * int * int
  | Bl_owner_echo of int
  | Bl_nonowner_echo_lock of int * int * int
  | Fl_raise of int
  | Fl_raise_bounded of int * int
  | Fl_check of int * int
  | Rcu_read_lock
  | Rcu_deref of int
  | Rcu_access of int
  | Rcu_read_unlock
  | Rcu_remove
  | Rcu_sync_free of int
  | Sp_owner_enter of int
  | Sp_owner_exit
  | Sp_revoke_request
  | Sp_revoke_wait of int
  | Sp_revoke_check of int

(* Shared-cell layouts (cells x y z w = 0-3; everything starts at 0, so
   "present / quiescent" is 0 and "removed / raised / freed" is a
   non-zero write). *)

(* FFHP *)
let hp_slot = 0 (* 0 = object published, 1 = unlinked *)
let hp_hazard = 1 (* 1 = reader protecting *)
let hp_obj = 2 (* 1 = reclaimed; reading 1 is a use-after-free *)

(* FFBL / biased *)
let bl_owner = 0
let bl_nonowner = 1
let bl_data = 2
let bl_lock = 3

(* RCU (QSBR) *)
let rcu_flag = 0 (* 1 = inside a read-side section *)
let rcu_slot = 1 (* 0 = published, 1 = unpublished *)
let rcu_obj = 2 (* 1 = reclaimed *)

(* Safepoint / biased revocation *)
let sp_bias = 0
let sp_revoke = 1

let lower = function
  | Store (a, v) -> [ Litmus.Store (a, v) ]
  | Load (a, r) -> [ Litmus.Load (a, r) ]
  | Loadeq (a, v, skip) -> [ Litmus.Loadeq (a, v, skip) ]
  | Fence -> [ Litmus.Fence ]
  | Wait n -> [ Litmus.Wait n ]
  | Cas (a, e, d, r) -> [ Litmus.Cas (a, e, d, r) ]
  | Hp_protect -> [ Litmus.Store (hp_hazard, 1) ]
  | Hp_validate r -> [ Litmus.Load (hp_slot, r) ]
  | Hp_access r -> [ Litmus.Load (hp_obj, r) ]
  | Hp_retire -> [ Litmus.Store (hp_slot, 1); Litmus.Fence ]
  | Hp_scan_free d ->
      [ Litmus.Wait d; Litmus.Loadeq (hp_hazard, 1, 1); Litmus.Store (hp_obj, 1) ]
  | Bl_owner_lock r -> [ Litmus.Store (bl_owner, 1); Litmus.Load (bl_nonowner, r) ]
  | Bl_owner_unlock -> [ Litmus.Store (bl_owner, 0) ]
  | Bl_nonowner_lock (d, r_l, r) ->
      [
        Litmus.Cas (bl_lock, 0, 1, r_l);
        Litmus.Store (bl_nonowner, 1);
        Litmus.Fence;
        Litmus.Wait d;
        Litmus.Load (bl_owner, r);
      ]
  | Bl_owner_echo r ->
      [
        Litmus.Store (bl_data, 1);
        Litmus.Load (bl_nonowner, r);
        Litmus.Store (bl_owner, 2);
      ]
  | Bl_nonowner_echo_lock (d, r_echo, r_data) ->
      [
        Litmus.Store (bl_nonowner, 1);
        Litmus.Fence;
        Litmus.Load (bl_owner, r_echo);
        Litmus.Loadeq (bl_owner, 2, 1);
        Litmus.Wait d;
        Litmus.Load (bl_data, r_data);
      ]
  | Fl_raise f -> [ Litmus.Store (f, 1) ]
  | Fl_raise_bounded (f, d) -> [ Litmus.Store (f, 1); Litmus.Fence; Litmus.Wait d ]
  | Fl_check (f, r) -> [ Litmus.Load (f, r) ]
  | Rcu_read_lock -> [ Litmus.Store (rcu_flag, 1) ]
  | Rcu_deref r -> [ Litmus.Load (rcu_slot, r) ]
  | Rcu_access r -> [ Litmus.Load (rcu_obj, r) ]
  | Rcu_read_unlock -> [ Litmus.Store (rcu_flag, 0) ]
  | Rcu_remove -> [ Litmus.Store (rcu_slot, 1); Litmus.Fence ]
  | Rcu_sync_free d ->
      [ Litmus.Wait d; Litmus.Loadeq (rcu_flag, 1, 1); Litmus.Store (rcu_obj, 1) ]
  | Sp_owner_enter r -> [ Litmus.Store (sp_bias, 1); Litmus.Load (sp_revoke, r) ]
  | Sp_owner_exit -> [ Litmus.Store (sp_bias, 0) ]
  | Sp_revoke_request -> [ Litmus.Store (sp_revoke, 1); Litmus.Fence ]
  | Sp_revoke_wait d -> [ Litmus.Wait d ]
  | Sp_revoke_check r -> [ Litmus.Load (sp_bias, r) ]

type polarity = Unreachable | Reachable

let polarity_name = function
  | Unreachable -> "unreachable"
  | Reachable -> "reachable"

type t = {
  name : string;
  algorithm : string;
  descr : string list;
  threads : op list list;
  quantifier : Litmus_parse.quantifier;
  condition : Litmus_parse.term list;
  expect : (Litmus.mode * polarity) list;
}

let program s = List.map (fun ops -> List.concat_map lower ops) s.threads

let to_litmus s =
  {
    Litmus_parse.name = s.name;
    program = program s;
    quantifier = s.quantifier;
    condition = s.condition;
  }

(* --- rendering ------------------------------------------------------- *)

let addr_name a =
  (* Total, so well_formed can quote an out-of-range instruction. *)
  if a >= 0 && a < 4 then [| "x"; "y"; "z"; "w" |].(a)
  else Printf.sprintf "[%d]" a

let instr_line = function
  | Litmus.Store (a, v) -> Printf.sprintf "store %s %d" (addr_name a) v
  | Litmus.Load (a, r) -> Printf.sprintf "load %s -> r%d" (addr_name a) r
  | Litmus.Loadeq (a, v, skip) ->
      Printf.sprintf "loadeq %s %d skip %d" (addr_name a) v skip
  | Litmus.Fence -> "fence"
  | Litmus.Wait n -> Printf.sprintf "wait %d" n
  | Litmus.Cas (a, e, d, r) ->
      Printf.sprintf "cas %s %d %d -> r%d" (addr_name a) e d r

let term_string = function
  | Litmus_parse.Reg_eq (t, r, v) -> Printf.sprintf "%d:r%d = %d" t r v
  | Litmus_parse.Mem_eq (a, v) -> Printf.sprintf "%s = %d" (addr_name a) v

let condition_string terms = String.concat {| /\ |} (List.map term_string terms)

let quantifier_keyword = function
  | Litmus_parse.Exists -> "exists"
  | Litmus_parse.Forall -> "forall"

let render s =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "name: %s" s.name;
  line "# Generated by Tsim.Scenario from lib/core/%s -- do not edit;" s.algorithm;
  line "# regenerate with `tbtso-litmus scenarios emit`.";
  List.iter (fun d -> line "# %s" d) s.descr;
  if s.expect <> [] then
    line "# expect: %s"
      (String.concat " "
         (List.map
            (fun (m, p) ->
              Printf.sprintf "%s=%s" (Litmus_parse.mode_id m) (polarity_name p))
            s.expect));
  List.iter
    (fun ops ->
      line "thread";
      List.iter (fun i -> line "  %s" (instr_line i)) (List.concat_map lower ops))
    s.threads;
  line "%s %s" (quantifier_keyword s.quantifier) (condition_string s.condition);
  Buffer.contents b

(* --- validity -------------------------------------------------------- *)

let well_formed s =
  let err fmt = Printf.ksprintf (fun m -> Error (s.name ^ ": " ^ m)) fmt in
  let nthreads = List.length s.threads in
  if nthreads < 1 || nthreads > 4 then err "%d threads (want 1-4)" nthreads
  else
    let addr_ok a = a >= 0 && a < 4 in
    let reg_ok r = r >= 0 && r < 4 in
    let bad_instr = function
      | Litmus.Store (a, _) -> not (addr_ok a)
      | Litmus.Load (a, r) -> not (addr_ok a && reg_ok r)
      | Litmus.Loadeq (a, _, skip) -> not (addr_ok a && skip >= 0)
      | Litmus.Fence -> false
      | Litmus.Wait n -> n < 0
      | Litmus.Cas (a, _, _, r) -> not (addr_ok a && reg_ok r)
    in
    let bad_term = function
      | Litmus_parse.Reg_eq (t, r, _) -> not (t >= 0 && t < nthreads && reg_ok r)
      | Litmus_parse.Mem_eq (a, _) -> not (addr_ok a)
    in
    match List.find_opt bad_instr (List.concat (program s)) with
    | Some i -> err "instruction out of range: %s" (instr_line i)
    | None -> (
        match List.find_opt bad_term s.condition with
        | Some t ->
            err "condition term out of range: %s"
              (match t with
              | Litmus_parse.Reg_eq (th, r, v) ->
                  Printf.sprintf "%d:r%d = %d" th r v
              | Litmus_parse.Mem_eq (a, v) -> Printf.sprintf "[%d] = %d" a v)
        | None ->
            if s.condition = [] then err "empty condition"
            else if s.expect <> [] && s.quantifier <> Litmus_parse.Exists then
              err "polarity expectations only make sense on exists scenarios"
            else Ok ())

(* --- curated registry ------------------------------------------------ *)

(* The standard polarity grid for a fence-free publish raced against a
   fenced checker that waits out 4: the bad state needs the publish to
   stay buffered past the checker's wait, so it is unreachable under SC
   and under TBTSO[delta <= 4] -- and in fact through delta = 9, because
   the checker's own fence/load steps add drain slack on top of the
   wait; both oracles put the first reachable point at delta = 10
   (12 for the 3-thread flag). The grid brackets that boundary with
   delta = 8 (safe) and delta = 16 (unsafe); unbounded TSO is always
   unsafe. Confirmed by test_scenario.ml and the CI scenario gate. *)
let bounded_grid =
  [
    (Litmus.M_sc, Unreachable);
    (Litmus.M_tso, Reachable);
    (Litmus.M_tbtso 1, Unreachable);
    (Litmus.M_tbtso 4, Unreachable);
    (Litmus.M_tbtso 8, Unreachable);
    (Litmus.M_tbtso 16, Reachable);
  ]

let registry =
  [
    {
      name = "flag_principle";
      algorithm = "flag.ml";
      descr =
        [
          "Flag principle (t0_fence_free vs t1_bounded): T0 raises its";
          "flag fence-free and checks T1's; T1 raises, fences, waits out";
          "the bound, then checks T0's. Both reading 0 means both entered";
          "the critical section.";
        ];
      threads =
        [ [ Fl_raise 0; Fl_check (1, 0) ]; [ Fl_raise_bounded (1, 4); Fl_check (0, 0) ] ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (0, 0, 0); Litmus_parse.Reg_eq (1, 0, 0) ];
      expect = bounded_grid @ [ (Litmus.M_tsos 2, Reachable) ];
    };
    {
      name = "flag_refute_no_wait";
      algorithm = "flag.ml";
      descr =
        [
          "Refutation (t1_unsound_no_wait): the bounded side fences but";
          "does not wait, so T0's fence-free raise can outlive T1's";
          "check as soon as delta exceeds the checker's own drain slack";
          "(first reachable at delta = 5, vs 10 with the wait). The";
          "wait, not the fence, is what scales safety with the bound.";
        ];
      threads =
        [ [ Fl_raise 0; Fl_check (1, 0) ]; [ Fl_raise 1; Fence; Fl_check (0, 0) ] ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (0, 0, 0); Litmus_parse.Reg_eq (1, 0, 0) ];
      expect =
        [
          (Litmus.M_sc, Unreachable);
          (Litmus.M_tso, Reachable);
          (Litmus.M_tbtso 1, Unreachable);
          (Litmus.M_tbtso 4, Unreachable);
          (Litmus.M_tbtso 8, Reachable);
        ];
    };
    {
      name = "flag_principle_3";
      algorithm = "flag.ml";
      descr =
        [
          "Three-thread flag principle: two fence-free raisers against";
          "one bounded checker that inspects both. All three in the";
          "section at once needs two distinct publishes buffered past";
          "the wait.";
        ];
      threads =
        [
          [ Fl_raise 0; Fl_check (1, 0) ];
          [ Fl_raise_bounded (1, 4); Fl_check (0, 0); Fl_check (2, 1) ];
          [ Fl_raise 2; Fl_check (1, 0) ];
        ];
      quantifier = Litmus_parse.Exists;
      condition =
        [
          Litmus_parse.Reg_eq (0, 0, 0);
          Litmus_parse.Reg_eq (1, 0, 0);
          Litmus_parse.Reg_eq (1, 1, 0);
          Litmus_parse.Reg_eq (2, 0, 0);
        ];
      expect = bounded_grid;
    };
    {
      name = "ffhp_retire_scan";
      algorithm = "ffhp.ml";
      descr =
        [
          "FFHP protect/validate vs retire/scan: the reader publishes its";
          "hazard pointer without a fence, validates the slot, then";
          "dereferences; the reclaimer unlinks (atomic, hence the fence),";
          "ages the retiree past the delta horizon, scans, and frees only";
          "if the hazard pointer is clear. Bad state: validated (r0 = 0)";
          "yet read reclaimed memory (r1 = 1).";
        ];
      threads =
        [ [ Hp_protect; Hp_validate 0; Hp_access 1 ]; [ Hp_retire; Hp_scan_free 4 ] ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (0, 0, 0); Litmus_parse.Reg_eq (0, 1, 1) ];
      expect = bounded_grid;
    };
    {
      name = "ffhp_refute_unprotected";
      algorithm = "ffhp.ml";
      descr =
        [
          "Refutation: the same window without Hp_protect. The scan sees";
          "no hazard pointer, so the use-after-free is reachable even";
          "under SC -- the protect publish, not the memory model, is";
          "what makes ffhp_retire_scan safe.";
        ];
      threads = [ [ Hp_validate 0; Hp_access 1 ]; [ Hp_retire; Hp_scan_free 4 ] ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (0, 0, 0); Litmus_parse.Reg_eq (0, 1, 1) ];
      expect =
        [
          (Litmus.M_sc, Reachable);
          (Litmus.M_tso, Reachable);
          (Litmus.M_tbtso 4, Reachable);
        ];
    };
    {
      name = "ffbl_revoke_acquire";
      algorithm = "ffbl.ml";
      descr =
        [
          "FFBL owner fast path vs non-owner slow path: the owner raises";
          "its flag fence-free and checks the non-owner flag; the";
          "non-owner serializes on the internal lock, raises, fences,";
          "waits out the bound, then checks the owner flag. Both";
          "entering (r0 = 0 on both sides) is the mutual-exclusion";
          "violation.";
        ];
      threads = [ [ Bl_owner_lock 0 ]; [ Bl_nonowner_lock (4, 0, 1) ] ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (0, 0, 0); Litmus_parse.Reg_eq (1, 1, 0) ];
      expect = bounded_grid;
    };
    {
      name = "ffbl_echo_cut";
      algorithm = "ffbl.ml";
      descr =
        [
          "FFBL echo optimization: the backing-off owner observes the";
          "non-owner flag and echoes it into its own flag behind a";
          "buffered protected store; a non-owner that sees the echo may";
          "skip the delta wait entirely because FIFO buffers commit the";
          "protected store first. Seeing the echo (r0 = 2) with a stale";
          "protected read (r1 = 0) is impossible in EVERY mode -- the";
          "echo cut is a buffer-order argument, not a timing one.";
        ];
      threads = [ [ Bl_owner_echo 0 ]; [ Bl_nonowner_echo_lock (4, 0, 1) ] ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (1, 0, 2); Litmus_parse.Reg_eq (1, 1, 0) ];
      expect =
        [
          (Litmus.M_sc, Unreachable);
          (Litmus.M_tso, Unreachable);
          (Litmus.M_tbtso 1, Unreachable);
          (Litmus.M_tbtso 4, Unreachable);
          (Litmus.M_tbtso 8, Unreachable);
        ];
    };
    {
      name = "rcu_grace_period";
      algorithm = "rcu.ml";
      descr =
        [
          "QSBR read-side section vs bounded grace period: the reader";
          "announces presence without a fence, dereferences and accesses,";
          "then quiesces; the updater unpublishes (atomic), waits out the";
          "bound, and frees unless the presence flag is visible. Bad";
          "state: dereferenced while published (r0 = 0) yet read";
          "reclaimed memory (r1 = 1).";
        ];
      threads =
        [
          [ Rcu_read_lock; Rcu_deref 0; Rcu_access 1; Rcu_read_unlock ];
          [ Rcu_remove; Rcu_sync_free 4 ];
        ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (0, 0, 0); Litmus_parse.Reg_eq (0, 1, 1) ];
      expect = bounded_grid;
    };
    {
      name = "safepoint_revoke";
      algorithm = "safepoint_lock.ml";
      descr =
        [
          "Safepoint-style bias revocation: the owner re-biases";
          "fence-free and checks for a revoke request; the revoker posts";
          "the request, fences, waits out the bound (the TBTSO";
          "replacement for waiting until the next safepoint), then";
          "inspects the bias word. Both inside is the violation. The";
          "wait of 8 pushes the first reachable point to delta = 14";
          "(vs 10 for the wait-4 windows): delta = 10 is still safe";
          "here and already unsafe there.";
        ];
      threads =
        [ [ Sp_owner_enter 0 ]; [ Sp_revoke_request; Sp_revoke_wait 8; Sp_revoke_check 1 ] ];
      quantifier = Litmus_parse.Exists;
      condition = [ Litmus_parse.Reg_eq (0, 0, 0); Litmus_parse.Reg_eq (1, 1, 0) ];
      expect =
        [
          (Litmus.M_sc, Unreachable);
          (Litmus.M_tso, Reachable);
          (Litmus.M_tbtso 1, Unreachable);
          (Litmus.M_tbtso 8, Unreachable);
          (Litmus.M_tbtso 10, Unreachable);
          (Litmus.M_tbtso 16, Reachable);
        ];
    };
  ]

let () =
  (* The registry is the source of litmus/gen and of the CI gate; a
     malformed entry must fail fast, not emit garbage. *)
  List.iter
    (fun s ->
      match well_formed s with
      | Ok () -> ()
      | Error m -> invalid_arg ("Scenario.registry: " ^ m))
    registry

let find name = List.find_opt (fun s -> s.name = name) registry
let file_name s = "gen_" ^ s.name ^ ".litmus"

let emit ~dir scenarios =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun s ->
      let path = Filename.concat dir (file_name s) in
      let oc = open_out path in
      output_string oc (render s);
      close_out oc;
      path)
    scenarios

(* --- checking expectations ------------------------------------------- *)

type mode_report = {
  verdict : Litmus_fanout.verdict;
  expected : polarity;
  reachable : bool option;
  pass : bool option;
}

type report = { scenario : t; modes : mode_report list }

(* "Is the condition's bad state reachable?" from one oracle's (holds,
   complete) pair. A found exists-witness is definitive even on a
   partial exploration; absence needs completeness. For forall the
   polarity flips: a violating outcome is itself the witness. *)
let decide quantifier ~holds ~complete =
  let witness =
    match quantifier with Litmus_parse.Exists -> holds | Litmus_parse.Forall -> not holds
  in
  if witness then Some true else if complete then Some false else None

let mode_report_of expected (v : Litmus_fanout.verdict) =
  let q = v.task.test.Litmus_parse.quantifier in
  let explorer =
    match v.result with
    | Some r -> decide q ~holds:r.Litmus_parse.holds ~complete:r.complete
    | None -> None
  in
  let sat =
    match v.sat with
    | Some sc ->
        decide q ~holds:sc.Litmus_fanout.sat_holds ~complete:sc.sat_complete
    | None -> None
  in
  let reachable = match explorer with Some _ -> explorer | None -> sat in
  let pass =
    if v.disagree <> None then None
    else Option.map (fun r -> r = (expected = Reachable)) reachable
  in
  { verdict = v; expected; reachable; pass }

let check ?pool ?max_states ?(oracle = Litmus_fanout.Both) ?profiler scenarios =
  let tasks =
    List.concat_map
      (fun s ->
        let test = to_litmus s in
        let path = file_name s in
        List.map (fun (mode, _) -> { Litmus_fanout.path; test; mode }) s.expect)
      scenarios
  in
  let verdicts =
    Litmus_fanout.check ?pool ?max_states ~oracle ?profiler tasks
  in
  let rec regroup scenarios verdicts acc =
    match scenarios with
    | [] ->
        assert (verdicts = []);
        List.rev acc
    | s :: rest ->
        let modes, remaining =
          List.fold_left
            (fun (modes, vs) (_, expected) ->
              match vs with
              | v :: vs -> (mode_report_of expected v :: modes, vs)
              | [] -> assert false)
            ([], verdicts) s.expect
        in
        regroup rest remaining ({ scenario = s; modes = List.rev modes } :: acc)
  in
  regroup scenarios verdicts []

let severity r =
  let rank = function `Ok -> 0 | `Inconclusive -> 1 | `Mismatch -> 2 | `Disagree -> 3 in
  List.fold_left
    (fun worst m ->
      let s =
        if m.verdict.Litmus_fanout.disagree <> None then `Disagree
        else
          match m.pass with
          | Some true -> `Ok
          | Some false -> `Mismatch
          | None -> `Inconclusive
      in
      if rank s > rank worst then s else worst)
    `Ok r.modes

let severity_name = function
  | `Ok -> "ok"
  | `Mismatch -> "mismatch"
  | `Inconclusive -> "inconclusive"
  | `Disagree -> "disagree"

(* Same precedence as Litmus_fanout.exit_code: a provably-wrong oracle
   (3) dominates a false claim (1), which dominates a budget cut (2). *)
let exit_code reports =
  List.fold_left
    (fun code r ->
      match severity r with
      | `Disagree -> 3
      | `Mismatch -> if code = 3 then code else 1
      | `Inconclusive -> if code = 3 || code = 1 then code else 2
      | `Ok -> code)
    0 reports

let mode_json m =
  Json.obj
    [
      ( "mode",
        Json.String (Litmus_parse.mode_id m.verdict.Litmus_fanout.task.mode) );
      ("expected", Json.String (polarity_name m.expected));
      ( "reachable",
        match m.reachable with Some b -> Json.Bool b | None -> Json.Null );
      ("pass", match m.pass with Some b -> Json.Bool b | None -> Json.Null);
      ("check", Litmus_fanout.record m.verdict);
    ]

let report_json r =
  Json.obj
    [
      ("scenario", Json.String r.scenario.name);
      ("algorithm", Json.String r.scenario.algorithm);
      ("file", Json.String (file_name r.scenario));
      ("severity", Json.String (severity_name (severity r)));
      ("modes", Json.List (List.map mode_json r.modes));
    ]

let json_doc ~registry reports =
  Json.obj
    [
      ("schema", Json.String "tbtso-scenario/4");
      ("scenarios", Json.List (List.map report_json reports));
      ("totals", Tbtso_obs.Metrics.to_json registry);
    ]
