(* The committed golden digests: golden.json, compiled into the binary
   (see the dune rule), read once. Format:
   {"schema": "tbtso-perf-golden/1", "seed": 1,
    "workloads": {NAME: {"run_ticks": N, "cells": [{"id", "digest"}]}}} *)

module Json = Tbtso_obs.Json

let schema = "tbtso-perf-golden/1"

let doc = lazy (Json.of_string Golden_data.text)

let string_member key j = match Json.member key j with Some (Json.String s) -> Some s | _ -> None

(* [(run_ticks, [(cell id, digest)])] of a workload, if recorded. *)
let expected name =
  match Option.bind (Json.member "workloads" (Lazy.force doc)) (Json.member name) with
  | Some w -> (
      match (Json.member "run_ticks" w, Json.member "cells" w) with
      | Some (Json.Int ticks), Some (Json.List cells) ->
          Some
            ( ticks,
              List.filter_map
                (fun c ->
                  match (string_member "id" c, string_member "digest" c) with
                  | Some id, Some d -> Some (id, d)
                  | _ -> None)
                cells )
      | _ -> None)
  | None -> None

(* golden.json text for [(workload, run_ticks, [(id, digest)])], one
   cell per line so that a model change shows as a readable diff. *)
let render workloads =
  let b = Buffer.create 4096 in
  let str s = Json.to_string (Json.String s) in
  Printf.bprintf b "{\"schema\": %s, \"seed\": 1, \"workloads\": {\n" (str schema);
  List.iteri
    (fun i (name, ticks, cells) ->
      Printf.bprintf b "%s  %s: {\"run_ticks\": %d, \"cells\": [\n"
        (if i = 0 then "" else ",\n")
        (str name) ticks;
      List.iteri
        (fun j (id, d) ->
          Printf.bprintf b "%s    {\"id\": %s, \"digest\": %s}"
            (if j = 0 then "" else ",\n")
            (str id) (str d))
        cells;
      Buffer.add_string b "\n  ]}")
    workloads;
  Buffer.add_string b "\n}}\n";
  Buffer.contents b
