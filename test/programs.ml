(* Random litmus programs and the SAT oracle's mode grid, shared by the
   test executables (test_litmus, test_sat). *)

open Tsim.Litmus

let print_program p =
  String.concat " || "
    (List.map
       (fun t ->
         String.concat "; "
           (List.map
              (function
                | Store (a, v) -> Printf.sprintf "st x%d=%d" a v
                | Load (a, r) -> Printf.sprintf "r%d=ld x%d" r a
                | Loadeq (a, v, s) -> Printf.sprintf "ldeq x%d=%d skip %d" a v s
                | Fence -> "fence"
                | Wait d -> Printf.sprintf "wait %d" d
                | Cas (a, e, d, r) -> Printf.sprintf "r%d=cas x%d %d->%d" r a e d)
              t))
       p)

(* Three-thread programs with slightly longer waits, to exercise the
   time-leap, slack-saturation and sleep-set machinery of the explorer
   against the naive tick-by-tick oracle: one to three threads of one
   to four instructions over two addresses and three registers. *)
let instr_gen3 =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a v -> Store (a, 1 + v)) (int_bound 1) (int_bound 2));
        (4, map2 (fun a r -> Load (a, r)) (int_bound 1) (int_bound 2));
        (1, return Fence);
        (1, map (fun d -> Wait (1 + d)) (int_bound 6));
        (1, map2 (fun a r -> Cas (a, 0, 1, r)) (int_bound 1) (int_bound 2));
        (1, map2 (fun a s -> Loadeq (a, 0, 1 + s)) (int_bound 1) (int_bound 1));
      ])

let program_gen3 =
  QCheck.Gen.(
    int_range 1 3 >>= fun n ->
    list_repeat n (list_size (int_range 1 4) instr_gen3))

let program_arb3 = QCheck.make ~print:print_program program_gen3

(* The modes CI's oracle-agreement step checks over the corpus. *)
let sat_corpus_modes = [ M_sc; M_tso; M_tbtso 1; M_tbtso 4; M_tbtso 64 ]

(* The litmus corpora, [litmus/] and [litmus/gen/]. *)

let corpus_paths () =
  (* dune runtest runs in _build/default/test; the corpus is a declared
     dependency one level up. *)
  match
    List.find_opt
      (fun dir -> Sys.file_exists dir && Sys.is_directory dir)
      [ "../litmus"; "litmus" ]
  with
  | None -> []
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".litmus")
      |> List.sort compare
      |> List.map (Filename.concat dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let gen_corpus_paths () =
  match
    List.find_opt
      (fun dir -> Sys.file_exists dir && Sys.is_directory dir)
      [ "../litmus/gen"; "litmus/gen" ]
  with
  | None -> []
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".litmus")
      |> List.sort compare
      |> List.map (Filename.concat dir)
