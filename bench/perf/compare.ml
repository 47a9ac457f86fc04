(* [perf.exe compare]: judge a change's runs against its parent's with
   the bounds BENCHMARK.json fixes, by the rules of a regression gate on
   a small, noisy host:

   - a metric regresses when the change's median is worse than the
     parent's by more than its bound;
   - it is unresolved, not unchanged, when either side's quartile spread
     is wider than the bound, unless one side's every run beats every
     run of the other: then the medians decide as above;
   - a gain needs at least ten pairs, wins in nine tenths of them (ties
     count for neither side), and medians further apart than the
     parent's quartile spread;
   - any increase in failed operations is reported and fails the gate. *)

module Json = Tbtso_obs.Json

type run = { failed : int; values : (string * float) list }

type metric = { name : string; unit : string; lower_is_better : bool; bound : float }

let member_exn key j =
  match Json.member key j with Some v -> v | None -> failwith ("missing field " ^ key)

let number = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith "expected a number"

(* A run's output: its last line is the result object. *)
let run_of_output text =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  match List.rev lines with
  | [] -> failwith "empty run output"
  | last :: _ ->
      let j = Json.of_string last in
      let values =
        match member_exn "metrics" j with
        | Json.Obj fields -> List.map (fun (k, v) -> (k, number (member_exn "value" v))) fields
        | _ -> failwith "metrics is not an object"
      in
      { failed = int_of_float (number (member_exn "failed" j)); values }

let metrics_of_spec j =
  match member_exn "end_to_end" j with
  | Json.List ms ->
      List.map
        (fun m ->
          let str k = match member_exn k m with Json.String s -> s | _ -> failwith k in
          {
            name = str "name";
            unit = str "unit";
            lower_is_better = str "better" = "lower";
            bound = number (member_exn "bound" m);
          })
        ms
  | _ -> failwith "end_to_end is not a list"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A run directory holds one file per run, [WORKLOAD.K.json]; runs pair
   up across directories by [K]. *)
let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         match String.split_on_char '.' f with
         | [ w; k; "json" ] -> (
             match int_of_string_opt k with
             | Some k -> Some (w, k, run_of_output (read_file (Filename.concat dir f)))
             | None -> None)
         | _ -> None)

type verdict = Gain | Same | Regression | Unresolved

let verdict_name = function
  | Gain -> "gain"
  | Same -> "same"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

type row = {
  wins : int;
  pairs : int;
  worse_by : float;  (** Share by which the change's median is worse. *)
  verdict : verdict;
}

let spread xs =
  if List.length xs < 2 then 0.
  else
    let q1, q3 = Stats.quartiles xs in
    q3 -. q1

let judge metric ~parent ~change =
  let beats x y = if metric.lower_is_better then x < y else x > y in
  let mp = Stats.median parent and mc = Stats.median change in
  let worse_by = (if metric.lower_is_better then mc -. mp else mp -. mc) /. mp in
  let pairs = min (List.length parent) (List.length change) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.length (List.filter (fun (p, c) -> beats c p) (List.combine (take parent) (take change)))
  in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> beats c p) parent) change in
  let all_worse = List.for_all (fun c -> List.for_all (fun p -> beats p c) parent) change in
  let wide = Float.max (spread parent /. mp) (spread change /. mc) > metric.bound in
  let verdict =
    if wide && not (all_better || all_worse) then Unresolved
    else if worse_by > metric.bound then Regression
    else if
      pairs >= 10 && wins * 10 >= 9 * pairs && beats mc mp
      && Float.abs (mc -. mp) > spread parent
    then Gain
    else Same
  in
  { wins; pairs; worse_by; verdict }

let summary xs =
  if List.length xs < 2 then Printf.sprintf "%.6g" (Stats.median xs)
  else
    let q1, q3 = Stats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g]" (Stats.median xs) q1 q3

(* Compare the run directories; prints one row per workload x metric and
   returns whether the gate passes. *)
let compare_dirs ~spec dir_a dir_b =
  let metrics = metrics_of_spec spec in
  let a = load_dir dir_a and b = load_dir dir_b in
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _) -> w) a) in
  let ok = ref true in
  Printf.printf "%-13s %-13s %-5s %-36s %-36s %8s %6s %6s  %s\n" "workload" "metric" "unit"
    "parent median [q1, q3]" "change median [q1, q3]" "worse" "wins" "bound" "verdict";
  List.iter
    (fun w ->
      let runs side =
        List.sort compare
          (List.filter_map (fun (w', k, r) -> if w' = w then Some (k, r) else None) side)
      in
      let ra = List.map snd (runs a) and rb = List.map snd (runs b) in
      if rb = [] then begin
        Printf.printf "%-13s no change runs\n" w;
        ok := false
      end
      else begin
        List.iter
          (fun m ->
            let values rs = List.filter_map (fun r -> List.assoc_opt m.name r.values) rs in
            let parent = values ra and change = values rb in
            if parent = [] || change = [] then
              Printf.printf "%-13s %-13s missing\n" w m.name
            else
              let r = judge m ~parent ~change in
              if r.verdict = Regression then ok := false;
              Printf.printf "%-13s %-13s %-5s %-36s %-36s %+7.1f%% %2d/%-3d %5.0f%%  %s\n" w m.name
                m.unit (summary parent) (summary change) (100. *. r.worse_by) r.wins r.pairs
                (100. *. m.bound) (verdict_name r.verdict))
          metrics;
        let failed rs = List.fold_left (fun acc r -> acc + r.failed) 0 rs in
        if failed rb > failed ra then begin
          ok := false;
          Printf.printf "%-13s failed operations rose from %d to %d\n" w (failed ra) (failed rb)
        end
      end)
    workloads;
  !ok
