open Era_sim
module Sched = Era_sched.Sched
module Workload = Era_workload.Workload

type structure =
  | Harris
  | Michael
  | Hash
  | Hash_michael
  | Stack
  | Queue

let structures = [ Harris; Michael; Hash; Hash_michael; Stack; Queue ]

let structure_name = function
  | Harris -> "harris-list"
  | Michael -> "michael-list"
  | Hash -> "hash-harris"
  | Hash_michael -> "hash-michael"
  | Stack -> "treiber-stack"
  | Queue -> "ms-queue"

(* Accepts the canonical names above plus the obvious short forms, so CLI
   users can say [--structure harris]. *)
let structure_of_name s =
  match String.lowercase_ascii s with
  | "harris-list" | "harris" -> Some Harris
  | "michael-list" | "michael" -> Some Michael
  | "hash-harris" | "hash" -> Some Hash
  | "hash-michael" -> Some Hash_michael
  | "treiber-stack" | "treiber" | "stack" -> Some Stack
  | "ms-queue" | "queue" -> Some Queue
  | _ -> None

type verdict = {
  scheme : string;
  structure : structure;
  fuzz_runs : int;
  violations : int;
  first_violation : Event.t option;
  non_linearizable : int;
  progress_failures : int;
  adversarial_unsafe : bool;
  neutralize_unsafe : bool;
  crashed : int;
}

let applicable v =
  v.violations = 0 && v.non_linearizable = 0 && v.progress_failures = 0
  && (not v.adversarial_unsafe)
  && (not v.neutralize_unsafe)
  && v.crashed = 0

let spec_of = function
  | Harris | Michael | Hash | Hash_michael ->
    (module Era_history.Spec.Int_set : Era_history.Spec.S)
  | Stack -> (module Era_history.Spec.Int_stack)
  | Queue -> (module Era_history.Spec.Int_queue)

(* ------------------------------------------------------------------ *)
(* Cells                                                              *)
(* ------------------------------------------------------------------ *)

type handle =
  | Set_ops of Era_sets.Set_intf.ops
  | Stack_ops of Era_sets.Treiber_stack.stack_ops
  | Queue_ops of Era_sets.Ms_queue.queue_ops

(* The one structure dispatch: apply the structure's functor, create the
   structure through [ext], and hand back a per-thread handle maker.
   Handles are made where they are used (inside a thread's body, or on
   [ext] for a prefill), since making one registers the thread with the
   scheme. *)
let instantiate (type g)
    (module S : Era_smr.Smr_intf.S with type t = g) structure (g : g) ext =
  match structure with
  | Harris ->
    let module L = Era_sets.Harris_list.Make (S) in
    let dl = L.create ext g in
    fun ~record ctx -> Set_ops (L.ops (L.handle dl ctx) ~record)
  | Michael ->
    let module L = Era_sets.Michael_list.Make (S) in
    let dl = L.create ext g in
    fun ~record ctx -> Set_ops (L.ops (L.handle dl ctx) ~record)
  | Hash ->
    let module H = Era_sets.Hash_set.Make (S) in
    let hs = H.create ~nbuckets:4 ext g in
    fun ~record ctx -> Set_ops (H.ops (H.handle hs ctx) ~record)
  | Hash_michael ->
    let module H = Era_sets.Hash_set.Make_michael (S) in
    let hs = H.create ~nbuckets:4 ext g in
    fun ~record ctx -> Set_ops (H.ops (H.handle hs ctx) ~record)
  | Stack ->
    let module T = Era_sets.Treiber_stack.Make (S) in
    let st = T.create ext g in
    fun ~record ctx -> Stack_ops (T.ops (T.handle st ctx) ~record)
  | Queue ->
    let module Q = Era_sets.Ms_queue.Make (S) in
    let q = Q.create ext g in
    fun ~record ctx -> Queue_ops (Q.ops (Q.handle q ctx) ~record)

let fill h keys =
  match h with
  | Set_ops o -> List.iter (fun k -> ignore (o.insert k)) keys
  | Stack_ops o -> List.iter o.push keys
  | Queue_ops o -> List.iter o.enqueue keys

let run_ops h rng ~ops ~keys ~mix =
  match h with
  | Set_ops o -> Workload.run_set_ops o rng ~ops ~keys ~mix
  | Stack_ops o -> Workload.run_stack_ops o rng ~ops ~keys
  | Queue_ops o -> Workload.run_queue_ops o rng ~ops ~keys

let quiesce = function
  | Set_ops o -> o.quiesce ()
  | Stack_ops o -> o.quiesce ()
  | Queue_ops o -> o.quiesce ()

let fresh ?(trace = false) ~threads strategy =
  let mon = Monitor.create ~mode:`Record ~trace () in
  Sched.create ~nthreads:threads strategy (Heap.create mon)

(* Only the Invoke/Response stream feeds the linearizability check, so
   collect exactly those kinds through a tag subscription; every memory
   access then stays on the monitor's allocation-free fast path.
   Filtering preserves the order of operation events, which is all the
   precedence relation of the checker depends on. *)
let op_log mon =
  let log = Vec.create () in
  Monitor.subscribe_tags mon
    [ Event.tag_invoke; Event.tag_response ]
    (fun _time ev -> Vec.push log ev);
  log

let linearizes structure log =
  (Era_history.Linearize.check (spec_of structure)
     (Era_history.History.of_trace (Vec.to_list log)))
    .Era_history.Linearize.ok

let crashed sched =
  let n = ref 0 in
  for tid = 0 to Sched.nthreads sched - 1 do
    match Sched.thread_outcome sched tid with
    | Sched.Crashed _ -> incr n
    | _ -> ()
  done;
  !n

(* One worker body per thread over a fresh instance of the cell. [keys],
   [mix] and [prefill] default to the historical fuzzing workload; the
   explorer passes a smaller key range, update-heavy churn and a
   prefilled structure so interesting interleavings need very few
   quanta. Prefill runs through the external context, so every [make]
   call of an explorer target reproduces the identical initial heap. *)
let build_workers (module S : Era_smr.Smr_intf.S) structure ~seed
    ~ops_per_thread ?(keys = Workload.Uniform 6) ?(mix = Workload.balanced)
    ?(prefill = []) sched =
  let g = S.create (Sched.heap sched) ~nthreads:(Sched.nthreads sched) in
  let ext = Sched.external_ctx sched ~tid:0 in
  let make = instantiate (module S) structure g ext in
  fill (make ~record:false ext) prefill;
  fun tid ctx ->
    let h = make ~record:true ctx in
    run_ops h (Rng.create ((seed * 131) + tid)) ~ops:ops_per_thread ~keys ~mix;
    quiesce h

type run_stats = {
  r_violations : int;
  r_first : Event.t option;
  r_linearizable : bool;
  r_progress_failures : int;
  r_crashed : int;
}

let one_run scheme structure ~threads ~ops_per_thread ~seed ~progress_mode =
  let strategy =
    if progress_mode then
      (* Interleave a prefix, then force bounded solo completions: the
         executable form of the lock-freedom requirement. *)
      Sched.Script
        (List.init threads (fun tid -> Sched.Run (tid, 40 + (7 * tid)))
        @ List.init threads (fun tid -> Sched.Finish_bounded (tid, 200_000)))
    else Sched.Random (Rng.create seed)
  in
  let sched = fresh ~threads strategy in
  let mon = Sched.monitor sched in
  let ops_log = op_log mon in
  let worker = build_workers scheme structure ~seed ~ops_per_thread sched in
  for tid = 0 to threads - 1 do
    Sched.spawn sched ~tid (fun ctx -> worker tid ctx)
  done;
  ignore (Sched.run sched);
  let is_progress = function
    | Event.Violation { kind = Event.Progress_failure; _ } -> true
    | _ -> false
  in
  let all = Monitor.violations mon in
  let progress, safety = List.partition is_progress all in
  {
    r_violations = List.length safety;
    r_first = (match safety with v :: _ -> Some v | [] -> None);
    (* poisoned heap: correctness moot *)
    r_linearizable = safety <> [] || linearizes structure ops_log;
    r_progress_failures = List.length progress;
    r_crashed = crashed sched;
  }

(* Deterministic neutralization scenario (the DEBRA+ counterpart of the
   Figure 1/2 refutations). T1 runs a recorded insert(k); delete(k) on an
   otherwise-empty structure and is suspended immediately after its
   second successful CAS — the delete's marking CAS, i.e. right after the
   operation's linearization point. T0 then churns on disjoint keys,
   which drives any reclamation pass that signals laggards (DEBRA+'s
   patience-triggered neutralization, NBR's reclaim_pass). When T1
   resumes solo, a scheme whose restarts can fire past a linearization
   point re-runs the delete from the top and returns [false] for a key
   it already deleted: a deterministically non-linearizable history. NBR
   survives because the marking CAS sits inside a write phase (the signal
   stays pending); every non-neutralizing scheme trivially survives. *)
let neutralize_check (module S : Era_smr.Smr_intf.S) structure =
  match structure with
  | Stack | Queue -> false
  | Harris | Michael | Hash | Hash_michael ->
    let cas_seen = ref 0 in
    let after_second_cas = function
      | Event.Access { tid = 1; kind = Event.Cas true; _ } ->
        incr cas_seen;
        !cas_seen = 2
      | _ -> false
    in
    let sched =
      fresh ~threads:2
        (Sched.Script
           [
             Sched.Run_until (1, after_second_cas);
             Sched.Finish 0;
             Sched.Finish_bounded (1, 200_000);
           ])
    in
    let mon = Sched.monitor sched in
    let ops_log = op_log mon in
    let ext = Sched.external_ctx sched ~tid:0 in
    let make =
      instantiate (module S) structure (S.create (Sched.heap sched) ~nthreads:2) ext
    in
    let set_ops ctx =
      match make ~record:true ctx with
      | Set_ops o -> o
      | Stack_ops _ | Queue_ops _ -> assert false
    in
    Sched.spawn sched ~tid:1 (fun ctx ->
        let ops = set_ops ctx in
        ignore (ops.insert 100);
        ignore (ops.delete 100);
        ops.quiesce ());
    Sched.spawn sched ~tid:0 (fun ctx ->
        let ops = set_ops ctx in
        for i = 1 to 16 do
          let k = 1 + (i mod 8) in
          ignore (ops.insert k);
          ignore (ops.delete k)
        done;
        ops.quiesce ());
    ignore (Sched.run sched);
    let poisoned =
      List.exists
        (function
          | Event.Violation { kind = Event.Progress_failure; _ } -> false
          | _ -> true)
        (Monitor.violations mon)
    in
    crashed sched > 0 || ((not poisoned) && not (linearizes structure ops_log))

let adversarial_check scheme structure =
  match structure with
  | Harris | Hash -> (
    (* The hash set's buckets are Harris lists, so the Figure 1/2
       executions stage verbatim inside one bucket: the refutation is
       inherited. *)
    let f2 = Figure2.run scheme in
    (match f2.Figure2.outcome with
    | Figure2.Unsafe _ -> true
    | Figure2.Safe_completion _ -> false)
    ||
    let f1 = Figure1.run ~rounds:128 scheme in
    match f1.Figure1.outcome with
    | Figure1.Safety_violated _ -> true
    | Figure1.Robustness_violated _ | Figure1.Survived _ -> false)
  | Michael | Hash_michael | Stack | Queue -> false

let run ?(fuzz_runs = 20) ?(threads = 3) ?(ops_per_thread = 30) ?(seed = 7)
    ((module S : Era_smr.Smr_intf.S) as scheme) structure =
  let violations = ref 0 in
  let first = ref None in
  let non_lin = ref 0 in
  let progress = ref 0 in
  let crashed = ref 0 in
  for i = 0 to fuzz_runs - 1 do
    let progress_mode = i mod 4 = 3 in
    let st =
      one_run scheme structure ~threads ~ops_per_thread
        ~seed:(seed + (i * 997))
        ~progress_mode
    in
    violations := !violations + st.r_violations;
    if !first = None then first := st.r_first;
    if not st.r_linearizable then incr non_lin;
    progress := !progress + st.r_progress_failures;
    crashed := !crashed + st.r_crashed
  done;
  {
    scheme = S.name;
    structure;
    fuzz_runs;
    violations = !violations;
    first_violation = !first;
    non_linearizable = !non_lin;
    progress_failures = !progress;
    adversarial_unsafe = adversarial_check scheme structure;
    neutralize_unsafe = neutralize_check scheme structure;
    crashed = !crashed;
  }

(* Stall-augmented fuzzing: random schedules plus a thread frozen at a
   random point and resumed at the end — the ingredient that lets a
   black-box search stumble on Figure 1-like executions without being
   told the construction. *)
let stall_fuzz ?(threads = 3) ?(ops_per_thread = 60) ~tries ~seed scheme
    structure =
  let found = ref 0 in
  let first = ref None in
  for i = 0 to tries - 1 do
    let rng = Rng.create (seed + (i * 7919)) in
    let sched = fresh ~threads (Sched.Random rng) in
    let mon = Sched.monitor sched in
    let stall_at = 50 + Rng.int rng 400 in
    let count = ref 0 in
    Monitor.subscribe mon (fun _ ev ->
        match ev with
        | Event.Access { tid = 0; _ } ->
          incr count;
          if !count = stall_at then Sched.stall sched 0
        | _ -> ());
    (* Same first-violation record the systematic explorer produces, so
       fuzz findings and search findings report in one format. *)
    let viol = ref None in
    Monitor.subscribe_tags mon [ Event.tag_violation ] (fun _ ev ->
        match ev with
        | Event.Violation { kind = Event.Progress_failure; _ } -> ()
        | ev ->
          if !viol = None then
            viol :=
              Era_explore.Explore.violation_of_event
                ~step:(Sched.total_steps sched) ev);
    let worker =
      build_workers scheme structure ~seed:(seed + i) ~ops_per_thread sched
    in
    for tid = 0 to threads - 1 do
      Sched.spawn sched ~tid (fun ctx -> worker tid ctx)
    done;
    (match Sched.run sched with
    | Sched.No_runnable ->
      (* Everyone else done; resume the frozen thread solo. *)
      Sched.unstall sched 0;
      ignore (Sched.run sched)
    | Sched.All_finished | Sched.Script_done | Sched.Step_limit -> ());
    if !viol <> None || crashed sched > 0 then incr found;
    if !first = None then first := !viol
  done;
  {
    Era_explore.Explore.fz_tries = tries;
    fz_found = !found;
    fz_first = !first;
  }

let matrix ?fuzz_runs ?seed () =
  List.map
    (fun ((module S : Era_smr.Smr_intf.S) as scheme) ->
      ( S.name,
        List.map
          (fun st -> (st, run ?fuzz_runs ?seed scheme st))
          structures ))
    Era_smr.Registry.all

let widely_applicable verdicts =
  List.for_all (fun (_, v) -> applicable v) verdicts

(* ------------------------------------------------------------------ *)
(* Systematic exploration targets                                     *)
(* ------------------------------------------------------------------ *)

(* Defaults deliberately tiny: the Figure 1/2 executions live inside a
   couple of operations on a near-empty list, and every extra quantum
   multiplies the schedule space. Threads draw their operations from
   per-thread RNGs seeded by [(seed * 131) + tid], so the op sequences —
   and hence the choice-point structure — are schedule-independent, which
   is what makes prefix replay deterministic. *)
let explore_target ?(threads = 2) ?(ops_per_thread = 14) ?(keys = 4)
    ?(seed = 2) ?(prefill = 2) ?(lincheck = false) ?robustness_bound
    ((module S : Era_smr.Smr_intf.S) as scheme) structure =
  (* The linearizability checker assumes an empty initial structure; a
     prefill would be invisible to it (prefill ops are not recorded). *)
  let prefill = if lincheck then 0 else prefill in
  let params =
    [
      ("threads", threads);
      ("ops", ops_per_thread);
      ("keys", keys);
      ("seed", seed);
      ("prefill", prefill);
      ("lincheck", if lincheck then 1 else 0);
      ("bound", Option.value robustness_bound ~default:(-1));
    ]
  in
  let make ~trace strategy =
    let sched = fresh ~trace ~threads strategy in
    let mon = Sched.monitor sched in
    let worker =
      build_workers scheme structure ~seed ~ops_per_thread
        ~keys:(Workload.Uniform keys) ~mix:Workload.update_heavy
        ~prefill:(List.init prefill (fun i -> i + 1))
        sched
    in
    (* Linearizability as an explorable violation: record the op stream
       and have the last thread to finish run the checker, emitting a
       [Linearizability_failure] into the monitor — still inside the
       schedule, so the explorer's violation latch, shrinker and replay
       treat it exactly like a safety violation. Runs that already hit a
       safety violation skip the check (poisoned heap). *)
    let epilogue =
      if not lincheck then fun _tid -> ()
      else begin
        let ops_log = op_log mon in
        let remaining = ref threads in
        fun tid ->
          decr remaining;
          if
            !remaining = 0
            && Monitor.violation_count mon = 0
            && not (linearizes structure ops_log)
          then
            Monitor.emit mon
              (Event.Violation
                 {
                   tid;
                   kind = Event.Linearizability_failure;
                   detail = "recorded history failed to linearize";
                 })
      end
    in
    for tid = 0 to threads - 1 do
      Sched.spawn sched ~tid (fun ctx ->
          worker tid ctx;
          epilogue tid)
    done;
    sched
  in
  {
    Era_explore.Explore.name = S.name ^ "/" ^ structure_name structure;
    nthreads = threads;
    params;
    robustness_bound;
    make;
  }

let explore ?config ?threads ?ops_per_thread ?keys ?seed ?prefill ?lincheck
    ?robustness_bound scheme structure =
  Era_explore.Explore.explore ?config
    (explore_target ?threads ?ops_per_thread ?keys ?seed ?prefill ?lincheck
       ?robustness_bound scheme structure)

(* Rebuild the target a saved counterexample was found on, from its
   ["scheme/structure"] name and recorded construction parameters. *)
let target_of_counterexample (cex : Era_explore.Explore.counterexample) =
  match String.split_on_char '/' cex.c_target with
  | [ scheme_name; struct_name ] -> (
    match
      (Era_smr.Registry.find scheme_name, structure_of_name struct_name)
    with
    | Some scheme, Some structure ->
      let p k d =
        match List.assoc_opt k cex.c_params with Some v -> v | None -> d
      in
      let bound = p "bound" (-1) in
      Ok
        (explore_target ~threads:(p "threads" 2) ~ops_per_thread:(p "ops" 14)
           ~keys:(p "keys" 4) ~seed:(p "seed" 2) ~prefill:(p "prefill" 2)
           ~lincheck:(p "lincheck" 0 = 1)
           ?robustness_bound:(if bound < 0 then None else Some bound)
           scheme structure)
    | None, _ -> Error (Fmt.str "unknown scheme %S" scheme_name)
    | _, None -> Error (Fmt.str "unknown structure %S" struct_name))
  | _ ->
    Error
      (Fmt.str "malformed target name %S (expected \"scheme/structure\")"
         cex.c_target)

let pp_verdict fmt v =
  if applicable v then
    Fmt.pf fmt "%-6s %-13s applicable (%d clean fuzz runs)" v.scheme
      (structure_name v.structure)
      v.fuzz_runs
  else
    Fmt.pf fmt
      "%-6s %-13s NOT applicable (violations=%d nonlin=%d progress=%d \
       adversarial=%b neutralize=%b crashed=%d)"
      v.scheme
      (structure_name v.structure)
      v.violations v.non_linearizable v.progress_failures v.adversarial_unsafe
      v.neutralize_unsafe v.crashed
