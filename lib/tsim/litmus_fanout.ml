module Json = Tbtso_obs.Json

type oracle = Explorer | Sat | Both

type task = { path : string; test : Litmus_parse.t; mode : Litmus.mode }

type sat_check = {
  sat_holds : bool;
  sat_outcome_count : int;
  sat_complete : bool;
  sat_stats : Axiomatic.stats;
}

type robust_check = {
  robust_holds : bool;
  robust_witness : Litmus.outcome option;
}

type verdict = {
  task : task;
  result : Litmus_parse.check_result option;
  sat : sat_check option;
  disagree : Litmus.outcome list option;
  robustness : robust_check option;
}

let load ~modes paths =
  List.concat_map
    (fun path ->
      let text =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let test = Litmus_parse.parse text in
      List.map (fun mode -> { path; test; mode }) modes)
    paths

let sat_of test (r : Axiomatic.result) =
  {
    sat_holds = Litmus_parse.holds_on test r.outcomes;
    sat_outcome_count = List.length r.outcomes;
    sat_complete = r.complete;
    sat_stats = r.stats;
  }

(* SC-robustness of a mode, decided by one incremental containment
   query against the session's SC baseline. *)
let robust_of sess mode =
  match Axiomatic.robust sess mode with
  | `Robust -> { robust_holds = true; robust_witness = None }
  | `Witness w -> { robust_holds = false; robust_witness = Some w }

(* The tasks grouped by file, in first-occurrence order, each paired
   with its index in [tasks]. The key includes the program, so that
   hand-built tasks reusing a path never share a session across
   different programs. *)
let group_by_file tasks =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i t ->
      let key = (t.path, t.test.Litmus_parse.program) in
      match Hashtbl.find_opt groups key with
      | Some cell -> cell := (i, t) :: !cell
      | None ->
          Hashtbl.add groups key (ref [ (i, t) ]);
          order := key :: !order)
    tasks;
  List.rev_map (fun key -> List.rev !(Hashtbl.find groups key)) !order

let check ?pool ?max_states ?(oracle = Explorer)
    ?(profiler = Tbtso_obs.Span.disabled) ?(robust = false) tasks =
  (* The unit of work is the file: [load] fans each file out into one
     task per mode, and the SAT side of every mode is one query on a
     single per-file [Axiomatic.session] — the encode (and, for
     [robust], the SC baseline) is mode-independent, so each further
     mode costs one incremental query on the retained clause database,
     learned clauses included, instead of a fresh encode. The session
     is built on first use, so explorer-only runs never encode.

     Each task runs inside one span labelled [file:mode] on whichever
     domain the pool hands its file to, so a profiled [-j N] check shows
     the schedule across domain tracks. *)
  let files = group_by_file tasks in
  let one sess scr task =
    Tbtso_obs.Span.with_span profiler
      (Printf.sprintf "%s:%s"
         (Filename.basename task.path)
         (Litmus_parse.mode_id task.mode))
    @@ fun () ->
    let robustness =
      if robust then Some (robust_of (Lazy.force sess) task.mode) else None
    in
    let sat () = Axiomatic.enumerate_session (Lazy.force sess) task.mode in
    let explore () =
      Litmus.explore_in (Lazy.force scr) ~mode:task.mode ?max_states ~profiler ()
    in
    match oracle with
    | Explorer ->
        {
          task;
          result = Some (Litmus_parse.check_explored task.test (explore ()));
          sat = None;
          disagree = None;
          robustness;
        }
    | Sat ->
        {
          task;
          result = None;
          sat = Some (sat_of task.test (sat ()));
          disagree = None;
          robustness;
        }
    | Both ->
        let op = explore () in
        let sx = sat () in
        (* A partial exploration is a sound subset for either oracle, so
           a disagreement is provable whenever an outcome escapes a
           COMPLETE other side; with both sides complete the symmetric
           difference is the witness set. *)
        let diff a b = List.filter (fun o -> not (List.mem o b)) a in
        let witnesses =
          match (op.Litmus.complete, sx.Axiomatic.complete) with
          | true, true ->
              diff op.Litmus.outcomes sx.Axiomatic.outcomes
              @ diff sx.Axiomatic.outcomes op.Litmus.outcomes
          | true, false -> diff sx.Axiomatic.outcomes op.Litmus.outcomes
          | false, true -> diff op.Litmus.outcomes sx.Axiomatic.outcomes
          | false, false -> []
        in
        {
          task;
          result = Some (Litmus_parse.check_explored task.test op);
          sat = Some (sat_of task.test sx);
          disagree =
            (match List.sort compare witnesses with
            | [] -> None
            | ws -> Some ws);
          robustness;
        }
  in
  let run_file = function
    | [] -> []
    | (_, t0) :: _ as its ->
        let program = t0.test.Litmus_parse.program in
        let sess = lazy (Axiomatic.session ~profiler program) in
        let scr = lazy (Litmus.scratch program) in
        List.map (fun (i, t) -> (i, one sess scr t)) its
  in
  let scattered =
    match pool with
    | None -> List.map run_file files
    | Some pool -> Tbtso_par.Pool.map_list pool run_file files
  in
  (* Scatter the verdicts back to task order; [Pool.map_list] preserves
     order, so seq vs [-j N] stays byte-identical. *)
  let out = Array.make (List.length tasks) None in
  List.iter (List.iter (fun (i, v) -> out.(i) <- Some v)) scattered;
  Array.to_list out
  |> List.map (function
       | Some v -> v
       | None -> assert false (* every index scattered exactly once *))

let disagreement_witness v =
  match v.disagree with None -> None | Some ws -> Some (List.hd ws)

(* Budget exhaustion is a reported result, never an exception: an
   [exists] witness found in a partial exploration is still definitive,
   everything else degrades to "inconclusive". *)
let severity_of quantifier ~complete ~holds =
  match (quantifier, complete, holds) with
  | Litmus_parse.Exists, _, true -> `Ok
  | Litmus_parse.Exists, true, false -> `Ok
  | Litmus_parse.Exists, false, false -> `Inconclusive
  | Litmus_parse.Forall, true, true -> `Ok
  | Litmus_parse.Forall, true, false -> `Violated
  | Litmus_parse.Forall, false, _ -> `Inconclusive

let severity v =
  if v.disagree <> None then `Disagree
  else
    let q = v.task.test.Litmus_parse.quantifier in
    let sides =
      (match v.result with
      | Some r ->
          [ severity_of q ~complete:r.Litmus_parse.complete ~holds:r.Litmus_parse.holds ]
      | None -> [])
      @
      match v.sat with
      | Some sc ->
          [ severity_of q ~complete:sc.sat_complete ~holds:sc.sat_holds ]
      | None -> []
    in
    let rank = function
      | `Ok -> 0
      | `Inconclusive -> 1
      | `Violated -> 2
      | `Disagree -> 3
    in
    List.fold_left
      (fun acc s -> if rank s > rank acc then s else acc)
      (`Ok : [ `Ok | `Violated | `Inconclusive | `Disagree ])
      sides

let verdict_cell quantifier ~complete ~holds =
  match (quantifier, complete, holds) with
  | Litmus_parse.Exists, _, true -> "witness OBSERVABLE"
  | Litmus_parse.Exists, true, false -> "witness impossible"
  | Litmus_parse.Forall, true, true -> "invariant holds"
  | Litmus_parse.Forall, true, false -> "invariant VIOLATED"
  | (Litmus_parse.Exists | Litmus_parse.Forall), false, _ ->
      "INCONCLUSIVE (state budget exceeded)"

let verdict_string v =
  match v.disagree with
  | Some ws ->
      Printf.sprintf "ORACLE DISAGREEMENT (%d outcome%s differ)"
        (List.length ws)
        (if List.length ws = 1 then "" else "s")
  | None -> (
      let q = v.task.test.Litmus_parse.quantifier in
      match (v.result, v.sat) with
      | Some r, _ ->
          verdict_cell q ~complete:r.Litmus_parse.complete
            ~holds:r.Litmus_parse.holds
      | None, Some sc ->
          verdict_cell q ~complete:sc.sat_complete ~holds:sc.sat_holds
      | None, None -> "NO ORACLE RAN")

let exit_code verdicts =
  List.fold_left
    (fun code v ->
      match severity v with
      | `Disagree -> 3
      | `Violated -> if code = 3 then code else 1
      | `Inconclusive -> if code = 3 || code = 1 then code else 2
      | `Ok -> code)
    0 verdicts

let sat_json sc =
  Json.obj
    [
      ("holds", Json.Bool sc.sat_holds);
      ("outcomes", Json.Int sc.sat_outcome_count);
      ("complete", Json.Bool sc.sat_complete);
      ("stats", Axiomatic.stats_json sc.sat_stats);
    ]

let record v =
  let base =
    match v.result with
    | Some r -> (
        match Litmus_parse.check_result_json r with
        | Json.Obj fields -> fields
        | _ -> [])
    | None -> []
  in
  let sat_fields =
    match v.sat with Some sc -> [ ("sat", sat_json sc) ] | None -> []
  in
  let robust_fields =
    match v.robustness with
    | None -> []
    | Some rc ->
        [
          ( "robust",
            Json.obj
              (("holds", Json.Bool rc.robust_holds)
              ::
              (match rc.robust_witness with
              | Some w -> [ ("witness", Adviser.outcome_json w) ]
              | None -> [])) );
        ]
  in
  let agree_fields =
    match (v.result, v.sat) with
    | Some _, Some _ -> [ ("oracles_agree", Json.Bool (v.disagree = None)) ]
    | _ -> []
  in
  Json.obj
    (("file", Json.String v.task.path)
    :: ("name", Json.String v.task.test.Litmus_parse.name)
    :: ("mode", Json.String (Litmus_parse.mode_name v.task.mode))
    :: ("verdict", Json.String (verdict_string v))
    :: (base @ sat_fields @ robust_fields @ agree_fields))

let json_doc ~registry verdicts =
  let schema =
    if List.exists (fun v -> v.sat <> None) verdicts then "tbtso-sat/5"
    else "tbtso-litmus/5"
  in
  Json.obj
    [
      ("schema", Json.String schema);
      ("results", Json.List (List.map record verdicts));
      ("totals", Tbtso_obs.Metrics.to_json registry);
    ]
