(* Fence-elimination adviser: answers the paper's design question —
   how large may Δ grow before a program stops being SC-robust, and
   which fences buy robustness back under plain TSO — with incremental
   queries against one Axiomatic session. *)

module Json = Tbtso_obs.Json
module Span = Tbtso_obs.Span

type verdict =
  | Always_robust
  | Breaks_at of { max_robust : int; min_unsafe : int }
  | Never_robust

type fence_advice =
  | No_fences_needed
  | Fence_after of (int * int) list
  | No_fence_set_suffices

type confirmation = Confirmed | Mismatch of string | Inconclusive of string

type report = {
  file : string;
  name : string;
  horizon : int;
  sc_count : int;
  verdict : verdict;
  witness : Litmus.outcome option;
  fence : fence_advice option;
  stats : Axiomatic.stats;
  confirmation : confirmation option;
}

let is_robust sess ?fences mode =
  match Axiomatic.robust sess ?fences mode with
  | `Robust -> true
  | `Witness _ -> false

(* Largest robust Δ by binary search over the activation grid.
   Robustness is antitone in Δ (TBTSO[Δ] ⊆ TBTSO[Δ+1] and both contain
   SC), and TBTSO[Δ ≥ H] ≡ TSO, so the search space is [1, H]. *)
let minimal_delta sess =
  match Axiomatic.robust sess Litmus.M_tso with
  | `Robust -> (Always_robust, None)
  | `Witness w -> (
      match Axiomatic.robust sess (Litmus.M_tbtso 1) with
      | `Witness w1 -> (Never_robust, Some w1)
      | `Robust ->
          (* invariant: robust at lo, not robust at hi (hi ≥ H ≡ TSO) *)
          let lo = ref 1 and hi = ref (max 2 (Axiomatic.horizon sess)) in
          while !hi - !lo > 1 do
            let mid = (!lo + !hi) / 2 in
            if is_robust sess (Litmus.M_tbtso mid) then lo := mid
            else hi := mid
          done;
          let w =
            match Axiomatic.robust sess (Litmus.M_tbtso !hi) with
            | `Witness w -> w
            | `Robust -> w
          in
          (Breaks_at { max_robust = !lo; min_unsafe = !hi }, Some w))

(* Minimal-by-inclusion fence set restoring SC-robustness under plain
   TSO: start from every site fenced, greedily drop sites whose removal
   keeps the program robust (robustness is antitone in fence removal,
   so a single monotone elimination pass yields a minimal set). *)
let minimal_fences sess =
  if is_robust sess Litmus.M_tso then No_fences_needed
  else
    let all = Axiomatic.fence_sites sess in
    if not (is_robust sess ~fences:all Litmus.M_tso) then No_fence_set_suffices
    else
      Fence_after
        (List.fold_left
           (fun keep f ->
             let trial = List.filter (fun g -> g <> f) keep in
             if is_robust sess ~fences:trial Litmus.M_tso then trial else keep)
           all all)

(* Explorer cross-check of a verdict: the operational oracle must see
   outcome-set equality with SC exactly up to the reported threshold. *)
let confirm ?max_states program verdict =
  let explore mode =
    let r = Litmus.explore ~mode ?max_states program in
    if r.Litmus.complete then Ok r.Litmus.outcomes
    else Error (Litmus_parse.mode_id mode)
  in
  let check mode ~want_equal sc =
    match explore mode with
    | Error m -> Inconclusive (Printf.sprintf "explorer budget at %s" m)
    | Ok out ->
        if (out = sc) = want_equal then Confirmed
        else
          Mismatch
            (Printf.sprintf "explorer %s %s SC, adviser said otherwise"
               (Litmus_parse.mode_id mode)
               (if out = sc then "equals" else "differs from"))
  in
  match explore Litmus.M_sc with
  | Error m -> Inconclusive (Printf.sprintf "explorer budget at %s" m)
  | Ok sc -> (
      let all_of = function
        | [] -> Confirmed
        | Confirmed :: rest -> (
            match
              List.find_opt (function Confirmed -> false | _ -> true) rest
            with
            | Some bad -> bad
            | None -> Confirmed)
        | bad :: _ -> bad
      in
      match verdict with
      | Always_robust -> check Litmus.M_tso ~want_equal:true sc
      | Never_robust -> check (Litmus.M_tbtso 1) ~want_equal:false sc
      | Breaks_at { max_robust; min_unsafe } ->
          all_of
            [
              check (Litmus.M_tbtso max_robust) ~want_equal:true sc;
              check (Litmus.M_tbtso min_unsafe) ~want_equal:false sc;
            ])

let advise ?(fences = false) ?(verify = false) ?max_states
    ?(profiler = Span.disabled) ~file (test : Litmus_parse.t) =
  let sess = Axiomatic.session ~profiler test.Litmus_parse.program in
  let verdict, witness =
    Span.with_span profiler "advise.binary_search" (fun () ->
        minimal_delta sess)
  in
  let fence =
    if fences then
      Some
        (Span.with_span profiler "advise.fence_set" (fun () ->
             minimal_fences sess))
    else None
  in
  let confirmation =
    if verify then
      Some
        (Span.with_span profiler "advise.confirm" (fun () ->
             confirm ?max_states test.Litmus_parse.program verdict))
    else None
  in
  {
    file;
    name = test.Litmus_parse.name;
    horizon = Axiomatic.horizon sess;
    sc_count = List.length (Axiomatic.sc_outcomes sess);
    verdict;
    witness;
    fence;
    stats = Axiomatic.session_stats sess;
    confirmation;
  }

let verdict_string = function
  | Always_robust -> "robust at every Δ"
  | Breaks_at { max_robust; min_unsafe } ->
      Printf.sprintf "robust up to Δ=%d, breaks at Δ=%d" max_robust min_unsafe
  | Never_robust -> "never robust"

let fence_string = function
  | No_fences_needed -> "no fences needed"
  | No_fence_set_suffices -> "no fence set suffices"
  | Fence_after [] -> "no fences needed"
  | Fence_after sites ->
      "fence after "
      ^ String.concat ", "
          (List.map (fun (i, k) -> Printf.sprintf "t%d:%d" i k) sites)

let outcome_json (o : Litmus.outcome) =
  Json.Obj
    [
      ( "regs",
        Json.List
          (Array.to_list
             (Array.map
                (fun row ->
                  Json.List (Array.to_list (Array.map (fun v -> Json.Int v) row)))
                o.Litmus.regs)) );
      ( "mem",
        Json.List (Array.to_list (Array.map (fun v -> Json.Int v) o.Litmus.mem))
      );
    ]

let site_json (i, k) = Json.List [ Json.Int i; Json.Int k ]

let report_json r =
  let verdict_fields =
    match r.verdict with
    | Always_robust -> [ ("robust", Json.String "always") ]
    | Breaks_at { max_robust; min_unsafe } ->
        [
          ("robust", Json.String "bounded");
          ("max_robust_delta", Json.Int max_robust);
          ("min_unsafe_delta", Json.Int min_unsafe);
        ]
    | Never_robust -> [ ("robust", Json.String "never") ]
  in
  let fence_fields =
    match r.fence with
    | None -> []
    | Some No_fences_needed ->
        [ ("fences", Json.Obj [ ("needed", Json.Bool false) ]) ]
    | Some No_fence_set_suffices ->
        [
          ( "fences",
            Json.Obj [ ("needed", Json.Bool true); ("sites", Json.Null) ] );
        ]
    | Some (Fence_after sites) ->
        [
          ( "fences",
            Json.Obj
              [
                ("needed", Json.Bool true);
                ("sites", Json.List (List.map site_json sites));
              ] );
        ]
  in
  let confirmation_fields =
    match r.confirmation with
    | None -> []
    | Some Confirmed -> [ ("verified", Json.Bool true) ]
    | Some (Mismatch m) ->
        [ ("verified", Json.Bool false); ("mismatch", Json.String m) ]
    | Some (Inconclusive m) ->
        [ ("verified", Json.Null); ("inconclusive", Json.String m) ]
  in
  Json.Obj
    ([
       ("file", Json.String r.file);
       ("name", Json.String r.name);
       ("horizon", Json.Int r.horizon);
       ("sc_outcomes", Json.Int r.sc_count);
       ("verdict", Json.String (verdict_string r.verdict));
     ]
    @ verdict_fields
    @ (match r.witness with
      | Some w -> [ ("witness", outcome_json w) ]
      | None -> [])
    @ fence_fields @ confirmation_fields
    @ [ ("stats", Axiomatic.stats_json r.stats) ])

let json_doc ~registry reports =
  Json.obj
    [
      ("schema", Json.String "tbtso-advise/2");
      ("results", Json.List (List.map report_json reports));
      ("totals", Tbtso_obs.Metrics.to_json registry);
    ]

(* Exit-code policy, mirroring tbtso-litmus check: 3 for a proven
   adviser/explorer mismatch, 2 for an inconclusive cross-check, 0
   otherwise. *)
let exit_code reports =
  List.fold_left
    (fun code r ->
      match r.confirmation with
      | Some (Mismatch _) -> 3
      | Some (Inconclusive _) -> if code = 3 then code else 2
      | _ -> code)
    0 reports
