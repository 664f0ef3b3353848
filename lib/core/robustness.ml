open Era_sim
module Sched = Era_sched.Sched

type clazz =
  | Robust
  | Weakly_robust
  | Not_robust

type measurement = {
  scheme : string;
  churn_series : (int * int) list;
  size_series : (int * int) list;
  churn_slope : float;
  size_slope : float;
  clazz : clazz;
}

let clazz_name = function
  | Robust -> "robust"
  | Weakly_robust -> "weakly robust"
  | Not_robust -> "not robust"

(* One churn-sweep point: the Figure 1 workload. *)
let churn_point scheme ~rounds =
  let r = Figure1.run ~rounds scheme in
  match r.Figure1.outcome with
  | Figure1.Robustness_violated { retired_end; _ } -> retired_end
  | Figure1.Safety_violated _ | Figure1.Survived _ -> (
    (* Retired backlog at the end of the churn, from the series. *)
    match List.rev r.Figure1.series with (_, v) :: _ -> v | [] -> 0)

(* Pre-fill keys 1..size, stall a reader holding a pointer to node 1,
   then have a worker delete and re-insert every key but 1 once. The
   stalled reader pins whatever the scheme's granularity pins. *)
let stalled_reader_run (module S : Era_smr.Smr_intf.S) structure ~size =
  let node1_addr = ref (-1) in
  let reader_at_node1 = function
    | Event.Access { tid = 0; addr; kind = Event.Read; _ } ->
      addr = !node1_addr
    | _ -> false
  in
  let sched =
    Applicability.fresh ~threads:2
      (Sched.Script
         [
           Sched.Run_until (0, reader_at_node1);
           Sched.Finish 1;
           Sched.Finish_bounded (0, (size * 512) + 100_000);
         ])
  in
  let heap = Sched.heap sched in
  let ext = Sched.external_ctx sched ~tid:1 in
  let make =
    Applicability.instantiate (module S) structure
      (S.create heap ~nthreads:2) ext
  in
  let set_ops ctx =
    match make ~record:false ctx with
    | Applicability.Set_ops o -> o
    | Applicability.Stack_ops _ | Applicability.Queue_ops _ ->
      invalid_arg "stalled_reader_run: set structures only"
  in
  Applicability.fill (make ~record:false ext) (List.init size (fun i -> i + 1));
  (node1_addr :=
     match
       List.find_opt (fun (_, _, key) -> key = 1) (Heap.live_nodes heap)
     with
     | Some (addr, _, _) -> addr
     | None -> failwith "stalled_reader_run: node 1 missing");
  Sched.spawn sched ~tid:0 (fun ctx -> ignore ((set_ops ctx).contains size));
  Sched.spawn sched ~tid:1 (fun ctx ->
      let ops = set_ops ctx in
      for k = 2 to size do
        ignore (ops.delete k);
        ignore (ops.insert k)
      done);
  ignore (Sched.run sched);
  let mon = Sched.monitor sched in
  (Monitor.max_retired mon, Monitor.time mon)

let size_sweep_point scheme ~size =
  fst (stalled_reader_run scheme Applicability.Harris ~size)

let slope points =
  match points, List.rev points with
  | (x0, y0) :: _, (x1, y1) :: _ when x1 > x0 ->
    float_of_int (y1 - y0) /. float_of_int (x1 - x0)
  | _ -> 0.0

let default_churn = [ 128; 256; 512; 1024 ]
let default_sizes = [ 32; 64; 128; 256 ]

let classify ?(churn_points = default_churn) ?(size_points = default_sizes)
    ((module S : Era_smr.Smr_intf.S) as scheme) =
  let churn_series =
    List.map (fun m -> (m, churn_point scheme ~rounds:m)) churn_points
  in
  let size_series =
    List.map (fun s -> (s, size_sweep_point (module S) ~size:s)) size_points
  in
  let churn_slope = slope churn_series in
  let size_slope = slope size_series in
  let clazz =
    if churn_slope > 0.1 then Not_robust
    else if size_slope > 0.25 then Weakly_robust
    else Robust
  in
  { scheme = S.name; churn_series; size_series; churn_slope; size_slope;
    clazz }

let pp_measurement fmt m =
  Fmt.pf fmt "%-6s %-14s | churn slope %.3f %a | size slope %.3f %a" m.scheme
    (clazz_name m.clazz) m.churn_slope
    Fmt.(
      brackets (list ~sep:comma (pair ~sep:(Fmt.any ":") int int)))
    m.churn_series m.size_slope
    Fmt.(
      brackets (list ~sep:comma (pair ~sep:(Fmt.any ":") int int)))
    m.size_series
