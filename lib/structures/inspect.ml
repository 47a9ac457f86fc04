open Tsim

let list_nodes mem ~head =
  let limit = mem.Memory.words in
  let rec walk link acc n =
    if n > limit then failwith "Inspect.list_nodes: cycle detected";
    let v = Memory.read mem link in
    let node = Tagged_ptr.ptr v in
    if node = 0 then List.rev acc
    else
      let key = Memory.read mem node in
      let nxt = Memory.read mem (node + 1) in
      walk (node + 1) ((node, key, Tagged_ptr.mark nxt) :: acc) (n + 1)
  in
  walk head [] 0

let list_keys mem ~head =
  list_nodes mem ~head
  |> List.filter_map (fun (_, key, mark) -> if mark = 0 then Some key else None)

let rec sorted_and_unique = function
  | a :: (b :: _ as rest) -> a < b && sorted_and_unique rest
  | [ _ ] | [] -> true
