open Era_sim
module Sched = Era_sched.Sched
module Workload = Era_workload.Workload
module Audit = Era_smr.Phase_audit

type report = {
  structure : Applicability.structure;
  runs : int;
  total_ops : int;
  discipline_violations : (string * int) list;
}

let clean r = r.discipline_violations = []

let audit ?(runs = 10) ?(threads = 3) ?(ops_per_thread = 40) ?(seed = 11)
    structure =
  let violations = Hashtbl.create 8 in
  let total_ops = ref 0 in
  for i = 0 to runs - 1 do
    let sched =
      Applicability.fresh ~threads
        (Sched.Random (Rng.create (seed + (i * 613))))
    in
    let g = Audit.create (Sched.heap sched) ~nthreads:threads in
    let make =
      Applicability.instantiate (module Audit) structure g
        (Sched.external_ctx sched ~tid:0)
    in
    for tid = 0 to threads - 1 do
      Sched.spawn sched ~tid (fun ctx ->
          Applicability.run_ops (make ~record:false ctx)
            (Rng.create ((seed * 31) + tid))
            ~ops:ops_per_thread ~keys:(Workload.Uniform 6)
            ~mix:Workload.balanced)
    done;
    ignore (Sched.run sched);
    total_ops := !total_ops + (threads * ops_per_thread);
    List.iter
      (fun (msg, n) ->
        let prev = Option.value (Hashtbl.find_opt violations msg) ~default:0 in
        Hashtbl.replace violations msg (prev + n))
      (Audit.discipline_violations g)
  done;
  {
    structure;
    runs;
    total_ops = !total_ops;
    discipline_violations =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) violations []
      |> List.sort compare;
  }

let audit_all ?runs ?seed () =
  List.map (fun st -> audit ?runs ?seed st) Applicability.structures

(* A client that violates the discipline on purpose: it reads a pointer
   in one read phase, crosses a phase boundary, dereferences the stale
   permission in the next read phase, and CASes from a read phase. *)
let negative_control () =
  let sched = Applicability.fresh ~threads:1 Sched.Round_robin in
  let ext = Sched.external_ctx sched ~tid:0 in
  let g = Audit.create (Sched.heap sched) ~nthreads:1 in
  let t = Audit.thread g ext in
  let anchor = Era_sched.Mem.alloc_sentinel ext ~key:0 in
  Audit.begin_op t;
  let n1 = Audit.alloc t ~key:1 in
  Audit.enter_write_phase t ~reserve:[];
  ignore (Audit.cas t ~via:anchor ~field:0 ~expected:Word.Null ~desired:n1);
  Audit.end_op t;
  Audit.begin_op t;
  Audit.enter_read_phase t;
  let p = Audit.read t ~via:anchor ~field:0 in
  Audit.enter_read_phase t;  (* phase boundary drops p's permission *)
  ignore (Audit.read t ~via:p ~field:0);  (* stale-permission dereference *)
  ignore (Audit.cas t ~via:anchor ~field:0 ~expected:p ~desired:p);
  (* CAS from a read phase *)
  Audit.end_op t;
  Audit.discipline_violations g

let pp_report fmt r =
  if clean r then
    Fmt.pf fmt "%-13s access-aware discipline CLEAN over %d ops"
      (Applicability.structure_name r.structure)
      r.total_ops
  else
    Fmt.pf fmt "%-13s discipline VIOLATED: %a"
      (Applicability.structure_name r.structure)
      Fmt.(list ~sep:semi (pair ~sep:(Fmt.any " x") string int))
      r.discipline_violations
