(* The benchmark's command line; see README.md. *)

open Perfbench
module Json = Tbtso_obs.Json

let usage =
  {|usage:
  perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
      Run workload W (all of them, each in a child process, when W is
      omitted) and print its metrics; the last line is the result JSON.
      Defaults: --seed 1 --seconds 12 --trace 0. A traced run writes a
      Chrome trace to perf-out/.
  perf.exe sweep --out DIR [--runs N] [--seed N] [--seconds S]
      N runs of every workload, at seeds S, S+1, ..., written to
      DIR/W.K.json; then the median, quartiles and spread of each metric.
  perf.exe ab EXE_A EXE_B --out DIR [--pairs N] [--seed N] [--seconds S]
      [--spec BENCHMARK.json]
      N interleaved pairs of two builds, alternating which runs first,
      into DIR/a and DIR/b, then compare them.
  perf.exe compare [--spec BENCHMARK.json] DIR_A DIR_B
      Judge the runs in DIR_B against those in DIR_A with the bounds of
      the spec; exits 1 on a regression or more failed operations.
  perf.exe baseline --out FILE [--runs N] [--seed N] [--seconds S]
      N same-seed runs of every workload plus one traced run each,
      summarised as JSON.
  perf.exe golden [--write]
      Check (or rewrite) the golden digests of the simulator workloads.
|}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* [--key value] options, [--flag] switches and positional arguments. *)
let parse_args ~switches args =
  let is_option k = String.length k > 2 && String.sub k 0 2 = "--" in
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | k :: rest when List.mem k switches -> go ((k, "") :: opts) pos rest
    | k :: v :: rest when is_option k -> go ((k, v) :: opts) pos rest
    | k :: _ when is_option k -> die "%s needs a value\n%s" k usage
    | p :: rest -> go opts (p :: pos) rest
  in
  go [] [] args

let check_known opts known =
  List.iter
    (fun (k, _) -> if not (List.mem k known) then die "unknown option %s\n%s" k usage)
    opts

let int_opt opts key ~default ~min =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= min -> n
      | _ -> die "%s wants an integer >= %d, got %S" key min v)

let str_opt opts key ~default = Option.value ~default (List.assoc_opt key opts)

(* Short enough that a run of every workload takes under a minute;
   BENCHMARK.json's runs are longer. *)
let default_seconds = 12

let workload_names = List.map (fun (w : Workload.t) -> w.name) Workload.all

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* ---------------------------------------------------------------- *)

let run_one ~workload ~seed ~seconds ~trace =
  let w =
    match Workload.find workload with Some w -> w | None -> die "unknown workload %s" workload
  in
  let trace_file =
    if trace then begin
      mkdir_p "perf-out";
      Some (Printf.sprintf "perf-out/%s-seed%d.trace.json" workload seed)
    end
    else None
  in
  let r = Workload.run ?trace_file ~scale:Workload.Full w ~seed ~seconds ~trace in
  Printf.printf "workload %s, seed %d, %d s%s\n" workload seed seconds
    (if trace then ", traced" else "");
  List.iter (fun l -> Printf.printf "  %s\n" l) r.notes;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) r.metrics;
  Printf.printf "  failed %d of %d attempted\n" r.failed r.attempted;
  print_endline (Json.to_string (Workload.result_json r));
  exit (if r.correct then 0 else 1)

(* Run [exe] with the benchmark arguments in a child process and return
   its standard output and whether it exited 0. *)
let child ~exe ~workload ~seed ~seconds ~trace =
  let args =
    [|
      exe;
      "--workload";
      workload;
      "--seed";
      string_of_int seed;
      "--seconds";
      string_of_int seconds;
      "--trace";
      (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (out, ok)

let self_exe () = Sys.executable_name

(* The result of a run's output, or [None] when it printed none. *)
let parse_run text =
  match Compare.run_of_output text with
  | r -> Some r
  | exception (Failure _ | Json.Parse_error _) -> None

let run_all ~seed ~seconds ~trace =
  let results =
    List.map
      (fun (w : Workload.t) ->
        let out, ok = child ~exe:(self_exe ()) ~workload:w.name ~seed ~seconds ~trace in
        print_string out;
        (w.name, ok, parse_run out))
      Workload.all
  in
  print_endline "\nsummary";
  List.iter
    (fun (name, ok, r) ->
      Printf.printf "  %-13s %s" name (if ok then "ok" else "FAILED");
      (match r with
      | Some (r : Compare.run) ->
          List.iter (fun (m, v) -> Printf.printf "  %s=%.6g" m v) r.values
      | None -> print_string "  (no result)");
      print_newline ())
    results;
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)

(* Median, quartiles and spread (quartile distance over the median) of
   each metric across a workload's runs. *)
let summarise runs =
  match runs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          let xs = List.filter_map (fun (r : Compare.run) -> List.assoc_opt name r.values) runs in
          let med = Stats.median xs in
          let q1, q3 = if List.length xs >= 2 then Stats.quartiles xs else (med, med) in
          (name, med, q1, q3, if med = 0. then 0. else (q3 -. q1) /. med))
        first.Compare.values

(* [runs] untraced runs of each workload in child processes, saved as
   [out/W.K.json]. *)
let sweep_runs ~runs ~seed ~same_seed ~seconds ~out =
  mkdir_p out;
  List.map
    (fun workload ->
      let rs =
        List.init runs (fun k ->
            let seed = if same_seed then seed else seed + k in
            let text, ok = child ~exe:(self_exe ()) ~workload ~seed ~seconds ~trace:false in
            write_file (Filename.concat out (Printf.sprintf "%s.%d.json" workload k)) text;
            if not ok then Printf.printf "%s run %d (seed %d) failed\n%!" workload k seed;
            parse_run text)
      in
      (workload, List.filter_map Fun.id rs))
    workload_names

let print_summary results =
  Printf.printf "%-13s %-32s %14s %14s %14s %8s\n" "workload" "metric" "median" "q1" "q3" "spread";
  List.iter
    (fun (workload, rs) ->
      List.iter
        (fun (name, med, q1, q3, spread) ->
          Printf.printf "%-13s %-32s %14.6g %14.6g %14.6g %7.2f%%\n" workload name med q1 q3
            (100. *. spread))
        (summarise rs))
    results

let sweep opts =
  check_known opts
    [ "--out"; "--runs"; "--seed"; "--seconds" ];
  let out =
    match List.assoc_opt "--out" opts with Some d -> d | None -> die "sweep needs --out DIR"
  in
  let results =
    sweep_runs
      ~runs:(int_opt opts "--runs" ~default:10 ~min:1)
      ~seed:(int_opt opts "--seed" ~default:1 ~min:0)
      ~same_seed:false
      ~seconds:(int_opt opts "--seconds" ~default:default_seconds ~min:0)
      ~out
  in
  print_summary results

(* Compare.compare_dirs, with unreadable runs reported as a usage
   error. *)
let compare_dirs ~spec a b =
  match Compare.compare_dirs ~spec a b with
  | ok -> ok
  | exception (Sys_error msg | Failure msg) -> die "compare: %s" msg
  | exception Json.Parse_error { message; _ } -> die "compare: malformed JSON: %s" message

let load_spec path =
  match Json.of_string (Compare.read_file path) with
  | j -> j
  | exception (Sys_error _ | Json.Parse_error _ | Failure _) -> die "cannot read the spec %s" path

let compare opts dirs =
  check_known opts [ "--spec" ];
  match dirs with
  | [ a; b ] ->
      let spec = load_spec (str_opt opts "--spec" ~default:"BENCHMARK.json") in
      exit (if compare_dirs ~spec a b then 0 else 1)
  | _ -> die "compare wants two run directories\n%s" usage

let ab opts exes =
  check_known opts [ "--out"; "--pairs"; "--seed"; "--seconds"; "--spec" ];
  let exe_a, exe_b =
    match exes with [ a; b ] -> (a, b) | _ -> die "ab wants two executables\n%s" usage
  in
  let out =
    match List.assoc_opt "--out" opts with Some d -> d | None -> die "ab needs --out DIR"
  in
  let spec = load_spec (str_opt opts "--spec" ~default:"BENCHMARK.json") in
  let pairs = int_opt opts "--pairs" ~default:10 ~min:1 in
  let seed = int_opt opts "--seed" ~default:1 ~min:0 in
  let seconds = int_opt opts "--seconds" ~default:default_seconds ~min:0 in
  let dir_a = Filename.concat out "a" and dir_b = Filename.concat out "b" in
  mkdir_p dir_a;
  mkdir_p dir_b;
  for k = 0 to pairs - 1 do
    let seed = seed + k in
    List.iter
      (fun workload ->
        let one exe dir =
          let text, _ = child ~exe ~workload ~seed ~seconds ~trace:false in
          write_file (Filename.concat dir (Printf.sprintf "%s.%d.json" workload k)) text
        in
        if k mod 2 = 0 then begin
          one exe_a dir_a;
          one exe_b dir_b
        end
        else begin
          one exe_b dir_b;
          one exe_a dir_a
        end)
      workload_names;
    Printf.printf "pair %d of %d done\n%!" (k + 1) pairs
  done;
  exit (if compare_dirs ~spec dir_a dir_b then 0 else 1)

let baseline opts =
  check_known opts [ "--out"; "--runs"; "--seed"; "--seconds" ];
  let out =
    match List.assoc_opt "--out" opts with Some f -> f | None -> die "baseline needs --out FILE"
  in
  let runs = int_opt opts "--runs" ~default:5 ~min:2 in
  let seed = int_opt opts "--seed" ~default:1 ~min:0 in
  let seconds = int_opt opts "--seconds" ~default:default_seconds ~min:0 in
  let untraced =
    sweep_runs ~runs ~seed ~same_seed:true ~seconds ~out:"perf-out/baseline-runs"
  in
  print_summary untraced;
  let doc =
    Json.Obj
      [
        ("schema", Json.String "tbtso-perf-baseline/1");
        ("seed", Json.Int seed);
        ("seconds", Json.Int seconds);
        ("runs", Json.Int runs);
        ( "workloads",
          Json.Obj
            (List.map
               (fun (workload, rs) ->
                 let traced, _ = child ~exe:(self_exe ()) ~workload ~seed ~seconds ~trace:true in
                 let traced =
                   match parse_run traced with
                   | Some r -> r
                   | None -> die "baseline: the traced run of %s printed no result" workload
                 in
                 let failed = List.fold_left (fun acc (r : Compare.run) -> acc + r.failed) 0 rs in
                 ( workload,
                   Json.Obj
                     [
                       ("failed", Json.Int failed);
                       ( "end_to_end",
                         Json.Obj
                           (List.map
                              (fun (name, med, q1, q3, _) ->
                                ( name,
                                  Json.Obj
                                    [
                                      ("median", Json.Float med);
                                      ("q1", Json.Float q1);
                                      ("q3", Json.Float q3);
                                      ( "runs",
                                        Json.List
                                          (List.map
                                             (fun (r : Compare.run) ->
                                               Json.Float (List.assoc name r.values))
                                             rs) );
                                    ] ))
                              (summarise rs)) );
                       ("traced_failed", Json.Int traced.failed);
                       ( "per_layer",
                         Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) traced.values) );
                     ] ))
               untraced) );
      ]
  in
  Json.write_file out doc;
  Printf.printf "wrote %s\n" out

(* Check the golden digests, or rewrite golden.json from a fresh run. *)
let golden opts =
  check_known opts [ "--write" ];
  let sims =
    List.filter_map
      (fun (w : Workload.t) ->
        Option.map (fun (ticks, cells) -> (w, ticks, cells)) (Workload.golden_cells w))
      Workload.all
  in
  if List.mem_assoc "--write" opts then begin
    let path = "bench/perf/golden.json" in
    let doc =
      List.map
        (fun ((w : Workload.t), ticks, cells) ->
          ( w.name,
            ticks,
            List.map (fun (c : Cells.t) -> (c.id, Cells.digest (Cells.run c))) cells ))
        sims
    in
    write_file path (Golden.render doc);
    Printf.printf "wrote %s\n" path
  end
  else begin
    let tally = Workload.tally () in
    List.iter (fun (w, _, _) -> Workload.check_golden tally w) sims;
    Printf.printf "golden: %d cells checked, %d failed\n" tally.attempted tally.failed;
    exit (if tally.failed = 0 then 0 else 1)
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "sweep" :: rest ->
      let opts, _ = parse_args ~switches:[] rest in
      sweep opts
  | "compare" :: rest ->
      let opts, pos = parse_args ~switches:[] rest in
      compare opts pos
  | "ab" :: rest ->
      let opts, pos = parse_args ~switches:[] rest in
      ab opts pos
  | "baseline" :: rest ->
      let opts, _ = parse_args ~switches:[] rest in
      baseline opts
  | "golden" :: rest ->
      let opts, _ = parse_args ~switches:[ "--write" ] rest in
      golden opts
  | ("help" | "--help" | "-h") :: _ -> print_string usage
  | args -> (
      let opts, pos = parse_args ~switches:[] args in
      if pos <> [] then die "unexpected argument %s\n%s" (List.hd pos) usage;
      check_known opts [ "--workload"; "--seed"; "--seconds"; "--trace" ];
      let seed = int_opt opts "--seed" ~default:1 ~min:0 in
      let seconds = int_opt opts "--seconds" ~default:default_seconds ~min:0 in
      let trace =
        match str_opt opts "--trace" ~default:"0" with
        | "0" -> false
        | "1" -> true
        | v -> die "--trace wants 0 or 1, got %S" v
      in
      match List.assoc_opt "--workload" opts with
      | Some workload -> run_one ~workload ~seed ~seconds ~trace
      | None -> run_all ~seed ~seconds ~trace)
