type quantifier = Exists | Forall

type term = Reg_eq of int * int * int | Mem_eq of int * int

type t = {
  name : string;
  program : Litmus.instr list list;
  quantifier : quantifier;
  condition : term list;
}

exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

let addr_names = [ ("x", 0); ("y", 1); ("z", 2); ("w", 3) ]

let addr_of_string lineno s =
  match List.assoc_opt (String.lowercase_ascii s) addr_names with
  | Some a -> a
  | None -> fail lineno (Printf.sprintf "unknown address %S (use x, y, z or w)" s)

let reg_of_string lineno s =
  match String.lowercase_ascii s with
  | "r0" -> 0
  | "r1" -> 1
  | "r2" -> 2
  | "r3" -> 3
  | _ -> fail lineno (Printf.sprintf "unknown register %S (use r0..r3)" s)

let int_of lineno s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail lineno (Printf.sprintf "expected an integer, got %S" s)

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* A negative count would deadlock the explorer or loop a [loadeq]
   onto itself, and the oracles refuse it. *)
let count_of lineno what s =
  let v = int_of lineno s in
  if v < 0 then fail lineno (Printf.sprintf "negative %s %d" what v);
  v

let parse_instr lineno toks =
  match toks with
  | [ "store"; a; v ] -> Litmus.Store (addr_of_string lineno a, int_of lineno v)
  | [ "load"; a; "->"; r ] | [ "load"; a; r ] ->
      Litmus.Load (addr_of_string lineno a, reg_of_string lineno r)
  | [ "loadeq"; a; v; "skip"; n ] ->
      Litmus.Loadeq
        (addr_of_string lineno a, int_of lineno v, count_of lineno "skip" n)
  | [ "fence" ] -> Litmus.Fence
  | [ "wait"; n ] -> Litmus.Wait (count_of lineno "wait" n)
  | [ "cas"; a; e; d; "->"; r ] ->
      Litmus.Cas (addr_of_string lineno a, int_of lineno e, int_of lineno d, reg_of_string lineno r)
  | _ -> fail lineno (Printf.sprintf "cannot parse instruction %S" (String.concat " " toks))

(* A condition term: "T:rN = V" or "ADDR = V". *)
let parse_term lineno s =
  let s = String.trim s in
  match String.index_opt s '=' with
  | None -> fail lineno (Printf.sprintf "condition term %S lacks '='" s)
  | Some eq ->
      let lhs = String.trim (String.sub s 0 eq) in
      let rhs = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
      let value = int_of lineno rhs in
      (match String.index_opt lhs ':' with
      | Some colon ->
          let tid = int_of lineno (String.trim (String.sub lhs 0 colon)) in
          let reg =
            reg_of_string lineno (String.trim (String.sub lhs (colon + 1) (String.length lhs - colon - 1)))
          in
          Reg_eq (tid, reg, value)
      | None -> Mem_eq (addr_of_string lineno lhs, value))

let split_on_substring ~sep s =
  let sep_len = String.length sep in
  let rec go start acc =
    match
      let rec find i =
        if i + sep_len > String.length s then None
        else if String.sub s i sep_len = sep then Some i
        else find (i + 1)
      in
      find start
    with
    | Some i -> go (i + sep_len) (String.sub s start (i - start) :: acc)
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
  in
  go 0 []

let parse text =
  let lines = String.split_on_char '\n' text in
  let name = ref "litmus" in
  let threads = ref [] in
  let current = ref None in
  let quantifier = ref None in
  let condition = ref [] in
  let condition_line = ref 0 in
  let flush_current () =
    match !current with
    | Some instrs -> threads := List.rev instrs :: !threads
    | None -> ()
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some h -> String.sub raw 0 h
        | None -> raw
      in
      let line = String.trim line in
      if line <> "" then begin
        match tokens line with
        | [ "thread" ] ->
            flush_current ();
            current := Some []
        | "name:" :: rest -> name := String.concat " " rest
        | quant :: _ when quant = "exists" || quant = "forall" ->
            if !quantifier <> None then fail lineno "duplicate condition line";
            flush_current ();
            current := None;
            quantifier := Some (if quant = "exists" then Exists else Forall);
            condition_line := lineno;
            let cond_text = String.sub line 6 (String.length line - 6) in
            condition := List.map (parse_term lineno) (split_on_substring ~sep:"/\\" cond_text)
        | toks -> (
            match !current with
            | None -> fail lineno "instruction outside a thread block"
            | Some instrs -> current := Some (parse_instr lineno toks :: instrs))
      end)
    lines;
  flush_current ();
  let program = List.rev !threads in
  if program = [] then fail 0 "no thread blocks";
  let nthreads = List.length program in
  List.iter
    (function
      | Reg_eq (tid, _, _) when tid < 0 || tid >= nthreads ->
          fail !condition_line
            (Printf.sprintf "condition names thread %d, but the file has %d"
               tid nthreads)
      | Reg_eq _ | Mem_eq _ -> ())
    !condition;
  match !quantifier with
  | None -> fail 0 "missing exists/forall condition line"
  | Some quantifier -> { name = !name; program; quantifier; condition = !condition }

let chop_prefix ~prefix s =
  if String.starts_with ~prefix s then
    let n = String.length prefix in
    Some (String.sub s n (String.length s - n))
  else None

let mode_of_string s =
  let bounded what make rest =
    match int_of_string_opt rest with
    | Some v when v >= 1 -> Ok (make v)
    | Some _ | None -> Error (`Msg (Printf.sprintf "bad %s in %S" what s))
  in
  let low = String.lowercase_ascii s in
  match low with
  | "sc" -> Ok Litmus.M_sc
  | "tso" -> Ok Litmus.M_tso
  | _ -> (
      match chop_prefix ~prefix:"tbtso:" low with
      | Some rest -> bounded "TBTSO bound" (fun d -> Litmus.M_tbtso d) rest
      | None -> (
          match chop_prefix ~prefix:"tsos:" low with
          | Some rest -> bounded "TSO[S] capacity" (fun c -> Litmus.M_tsos c) rest
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "unknown mode %S (sc, tso, tbtso:N, tsos:N)" s))))

let mode_name = function
  | Litmus.M_sc -> "SC"
  | Litmus.M_tso -> "TSO"
  | Litmus.M_tbtso d -> Printf.sprintf "TBTSO[%d]" d
  | Litmus.M_tsos s -> Printf.sprintf "TSO[S=%d]" s

let mode_id = function
  | Litmus.M_sc -> "sc"
  | Litmus.M_tso -> "tso"
  | Litmus.M_tbtso d -> Printf.sprintf "tbtso:%d" d
  | Litmus.M_tsos s -> Printf.sprintf "tsos:%d" s

let satisfies t (o : Litmus.outcome) =
  List.for_all
    (function
      | Reg_eq (tid, reg, v) ->
          tid >= 0 && tid < Array.length o.regs && o.regs.(tid).(reg) = v
      | Mem_eq (addr, v) -> o.mem.(addr) = v)
    t.condition

type check_result = {
  holds : bool;
  outcome_count : int;
  complete : bool;
  stats : Litmus.stats;
}

let holds_on t outcomes =
  match t.quantifier with
  | Exists -> List.exists (satisfies t) outcomes
  | Forall -> List.for_all (satisfies t) outcomes

let check_explored t (r : Litmus.result) =
  {
    holds = holds_on t r.outcomes;
    outcome_count = List.length r.outcomes;
    complete = r.complete;
    stats = r.stats;
  }

let check ?(max_states = Litmus.default_max_states) ?profiler t ~mode =
  check_explored t (Litmus.explore ~mode ~max_states ?profiler t.program)

let check_result_json r =
  let open Tbtso_obs in
  Json.obj
    [
      ("holds", Json.Bool r.holds);
      ("outcomes", Json.Int r.outcome_count);
      ("complete", Json.Bool r.complete);
      ("stats", Litmus.stats_json r.stats);
    ]
