(* The explore-cover leg: an exhaustive bounded search of EBR over
   Harris's list that finds no violation, timed at 1 and at 2 domains.
   The search never touches native or serve code; its time is spent in
   the simulated scheduler, heap, monitor, fingerprints and visited
   table. *)

module Ex = Era_explore.Explore
module Sched = Era_sched.Sched
module App = Era.Applicability

let ops_per_thread = 5
let bound = 2

(* The target's own seed is fixed: a different seed draws different
   operations and so searches a space of a different size, which would
   turn a seed change into a workload change. *)
let target_seed = 2

let target () =
  App.explore_target ~ops_per_thread ~seed:target_seed
    (Option.get (Era_smr.Registry.find "ebr"))
    App.Harris

let config ?(bound = bound) ~domains () =
  {
    Ex.default_config with
    Ex.max_preemptions = bound;
    max_runs = max_int;
    shrink = false;
    domains;
  }

(* Counts and times gathered by wrapping [target.make] and the
   [Sched.Controlled] pick it is handed. Only for a 1-domain search:
   the counters are plain fields. Every call is counted; every
   [pick_stride]-th pick is timed. *)
type probe = {
  mutable makes : int;
  mutable make_ns : int;
  mutable picks : int;
  mutable pick_ns : int;
  mutable picks_timed : int;
}

let pick_stride = 16

let new_probe () =
  { makes = 0; make_ns = 0; picks = 0; pick_ns = 0; picks_timed = 0 }

let wrap p (t : Ex.target) =
  let make ~trace strategy =
    let strategy =
      match strategy with
      | Sched.Controlled pick ->
        Sched.Controlled
          (fun s ->
            p.picks <- p.picks + 1;
            if p.picks land (pick_stride - 1) = 0 then begin
              let t0 = Stat.now_ns () in
              let r = pick s in
              p.pick_ns <- p.pick_ns + (Stat.now_ns () - t0);
              p.picks_timed <- p.picks_timed + 1;
              r
            end
            else pick s)
      | other -> other
    in
    let t0 = Stat.now_ns () in
    let sched = t.Ex.make ~trace strategy in
    p.make_ns <- p.make_ns + (Stat.now_ns () - t0);
    p.makes <- p.makes + 1;
    sched
  in
  { t with Ex.make }

type search = {
  domains : int;
  verdict_s : float;
  stats : Ex.stats;
  checks_failed : string list;
  layers : (string * float) list;
}

let checks (r : Ex.search_result) =
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ("no_violation", r.Ex.res_cex = None);
      ("levels", r.Ex.res_stats.Ex.levels_completed = bound + 1);
      ("no_failed_runs", r.Ex.res_stats.Ex.failed_runs = 0);
    ]

let run ?probe ~domains () =
  let t = target () in
  let t = match probe with None -> t | Some p -> wrap p t in
  let t0 = Stat.now () in
  let r = Ex.explore ~config:(config ~domains ()) t in
  let verdict_s = Stat.now () -. t0 in
  (r, verdict_s)

let layers_of_probe p ~verdict_s (st : Ex.stats) =
  let ms ns = float_of_int ns /. 1e6 in
  let pick_ns =
    if p.picks_timed = 0 then 0.
    else
      float_of_int p.picks
      *. Float.max 0.
           ((float_of_int p.pick_ns /. float_of_int p.picks_timed)
           -. Lazy.force Stat.clock_overhead_ns)
  in
  let make_ms = ms p.make_ns in
  let pick_ms = pick_ns /. 1e6 in
  [
    ("explore.runs", float_of_int st.Ex.runs);
    ("explore.states", float_of_int st.Ex.states);
    ("explore.pruned", float_of_int st.Ex.pruned);
    ( "explore.prune_ratio",
      float_of_int st.Ex.pruned /. float_of_int (max 1 st.Ex.runs) );
    ("explore.make_ms", make_ms);
    ("explore.pick_ms", pick_ms);
    ("explore.exec_ms", (verdict_s *. 1e3) -. make_ms -. pick_ms);
    ("explore.states_per_s", float_of_int st.Ex.states /. verdict_s);
  ]

let domain_runs_max_share (st : Ex.stats) =
  float_of_int (List.fold_left max 0 st.Ex.per_domain_runs)
  /. float_of_int (max 1 st.Ex.runs)

let search ?(traced = false) ~domains () =
  let probe = if traced then Some (new_probe ()) else None in
  let r, verdict_s = run ?probe ~domains () in
  let st = r.Ex.res_stats in
  let layers =
    match probe with
    | Some p -> layers_of_probe p ~verdict_s st
    | None ->
      if domains > 1 then
        [ ("explore.domain_runs_max_share", domain_runs_max_share st) ]
      else []
  in
  { domains; verdict_s; stats = st; checks_failed = checks r; layers }

(* Set-up: a bound-1 pass over the same target warms the search code
   and the allocator without covering the measured space. *)
let setup () =
  ignore (Ex.explore ~config:(config ~bound:1 ~domains:1 ()) (target ()))
