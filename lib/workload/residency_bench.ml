open Tsim
module Json = Tbtso_obs.Json

type per_thread = {
  tid : int;
  stats : Machine.thread_stats;
  residency : Tbtso_obs.Hist.t;
  by_kind : (Machine.drain_kind * Tbtso_obs.Hist.t) list;
}

type run = {
  label : string;
  config : Config.t;
  run_ticks : int;
  threads : per_thread list;
  max_residency : int;
  delta_bound : int option;
}

let bound_ok r =
  match r.delta_bound with None -> true | Some d -> r.max_residency <= d

let consistency_label (c : Config.consistency) =
  match c with
  | Config.Sc -> "sc"
  | Config.Tso -> "tso"
  | Config.Tbtso _ -> "tbtso"
  | Config.Tso_spatial _ -> "tsos"
  | Config.Tbtso_hw _ -> "tbtso_hw"

let delta_bound_of (c : Config.consistency) =
  match c with
  | Config.Tbtso delta -> Some delta
  | Config.Tbtso_hw { tau; quiesce } -> Some (tau + quiesce)
  | Config.Sc | Config.Tso | Config.Tso_spatial _ -> None

let run ?label ?trace ?(nthreads = 4) ?(work_gap = 20) ~config ~run_ticks () =
  let label =
    match label with Some l -> l | None -> consistency_label config.Config.consistency
  in
  let machine = Machine.create config in
  (match trace with Some tr -> Trace.attach ~commits:true tr machine | None -> ());
  let g = Machine.alloc_global machine (nthreads * 8) in
  for i = 0 to nthreads - 1 do
    ignore
      (Machine.spawn machine (fun () ->
           let v = ref 0 in
           while not (Sim.stopping ()) do
             incr v;
             Sim.store (g + (i * 8)) !v;
             ignore (Sim.load (g + ((i + 1) mod nthreads * 8)));
             Sim.work work_gap
           done))
  done;
  ignore (Machine.run ~max_ticks:(run_ticks - Machine.now machine) machine);
  Machine.request_stop machine;
  (* Wind-down budget: every thread is within one loop iteration of
     observing the stop flag. *)
  ignore (Machine.run ~max_ticks:(16 * (work_gap + 64)) machine);
  Machine.kill_remaining machine;
  Machine.drain_all machine;
  let threads =
    List.init nthreads (fun tid ->
        let by_kind =
          List.filter_map
            (fun kind ->
              let h = Machine.residency_by_kind machine tid kind in
              if Tbtso_obs.Hist.count h = 0 then None else Some (kind, h))
            Machine.drain_kinds
        in
        {
          tid;
          stats = Machine.stats machine tid;
          residency = Machine.residency machine tid;
          by_kind;
        })
  in
  let max_residency =
    List.fold_left (fun acc t -> max acc t.stats.Machine.max_residency) 0 threads
  in
  {
    label;
    config;
    run_ticks;
    threads;
    max_residency;
    delta_bound = delta_bound_of config.Config.consistency;
  }

let per_thread_json t =
  Json.obj
    [
      ("tid", Json.Int t.tid);
      ("max_residency", Json.Int t.stats.Machine.max_residency);
      ("stores", Json.Int t.stats.Machine.stores);
      ("drains", Json.Int t.stats.Machine.drains);
      ("forced_drains", Json.Int t.stats.Machine.forced_drains);
      ("exit_drains", Json.Int t.stats.Machine.exit_drains);
      ("residency", Tbtso_obs.Hist.to_json t.residency);
      ( "by_kind",
        Json.Obj
          (List.map
             (fun (kind, h) ->
               (Machine.drain_kind_name kind, Tbtso_obs.Hist.to_json h))
             t.by_kind) );
    ]

let run_json r =
  Json.obj
    [
      ("label", Json.String r.label);
      ("consistency", Json.String (consistency_label r.config.Config.consistency));
      ( "delta",
        match r.delta_bound with Some d -> Json.Int d | None -> Json.Null );
      ("run_ticks", Json.Int r.run_ticks);
      ("nthreads", Json.Int (List.length r.threads));
      ("max_residency", Json.Int r.max_residency);
      ("bound_ok", Json.Bool (bound_ok r));
      ("threads", Json.List (List.map per_thread_json r.threads));
    ]
