open Tsim

type t =
  | Delta of int
  | Core_array of { base : int; ncores : int; stride : int }

let visible_horizon t ~now =
  match t with
  | Delta d -> now - d
  | Core_array { base; ncores; stride } ->
      let rec scan i acc =
        if i >= ncores then acc
        else scan (i + 1) (Int.min acc (Sim.load (base + (i * stride))))
      in
      (* A core's kernel entry at time [a] drained all its stores issued
         before [a]; the global horizon is the minimum over cores. *)
      scan 0 max_int

let visible_steps t ~after ~slot =
  match t with
  | Delta d -> [| Sim.Clock (Some (after + d)) |]
  | Core_array { ncores = 0; _ } ->
      (* No core to wait for: the horizon is already past. *)
      [| Sim.Clock (Some min_int) |]
  | Core_array { base; ncores; stride } ->
      let past values =
        let h = ref max_int in
        for i = slot to slot + ncores - 1 do
          h := Int.min !h values.(i)
        done;
        !h > after
      in
      Array.append [| Sim.Clock None |]
        (Array.init ncores (fun i ->
             Sim.Load (base + (i * stride), if i = ncores - 1 then Some past else None)))

let wait_visible t ~since =
  match t with
  | Delta d ->
      (* The deadline is a property of global time: sleeping is exactly
         as good as spinning here. *)
      Sim.stall_until (since + d + 1)
  | Core_array { ncores = 0; _ } -> ignore (Sim.clock ())
  | Core_array { ncores; _ } ->
      ignore (Sim.probe (visible_steps t ~after:since ~slot:0) (Array.make ncores 0) ~backoff:50)

let pp fmt = function
  | Delta d -> Format.fprintf fmt "TBTSO[Δ=%d ticks]" d
  | Core_array { ncores; _ } -> Format.fprintf fmt "x86-adapted[%d cores]" ncores
