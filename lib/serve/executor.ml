(* Worker-domain pool. Each worker loops [Fair_queue.next] -> run ->
   record; [Fair_queue]'s close/close_now semantics give the two
   shutdown paths, and the [None] return is the exit signal (the
   close-while-workers-blocked case the tests pin: stop broadcasts, all
   workers observe [None] and join). *)

module J = Era_metrics.Json
module Registry = Era_obs.Registry
module Tracer = Era_obs.Tracer
module Ex = Era_explore.Explore

type stats = {
  served : int Atomic.t;
  failed : int Atomic.t;
  aborted : int Atomic.t;
  busy : int Atomic.t;
  service_us : int Atomic.t;
}

(* Heartbeat bus: per-job sequence-numbered registry snapshots pushed by
   the worker domain executing the job and drained by daemon handler
   threads serving [follow] requests. One mutex over a small table —
   heartbeats are coarse (one per progress stride), never hot-path. *)
type heartbeats = {
  hb_m : Mutex.t;
  hb_tbl : (int, (int * J.t) list ref) Hashtbl.t;  (* newest first *)
}

let hb_cap = 256 (* per job; older beats fall off, history stays bounded *)

let create_heartbeats () =
  { hb_m = Mutex.create (); hb_tbl = Hashtbl.create 32 }

let hb_push hb (job : Job.t) registry_json =
  Mutex.lock hb.hb_m;
  let cell =
    match Hashtbl.find_opt hb.hb_tbl job.Job.id with
    | Some c -> c
    | None ->
      let c = ref [] in
      Hashtbl.replace hb.hb_tbl job.Job.id c;
      c
  in
  let seq = match !cell with (s, _) :: _ -> s + 1 | [] -> 1 in
  let entry =
    J.Obj
      [
        ("job", J.Int job.Job.id);
        ("seq", J.Int seq);
        ("ts_s", J.Float (Unix.gettimeofday ()));
        ("label", J.String (Job.kind_label job.Job.kind));
        ("registry", registry_json);
      ]
  in
  let kept =
    if List.length !cell >= hb_cap then
      List.filteri (fun i _ -> i < hb_cap - 1) !cell
    else !cell
  in
  cell := (seq, entry) :: kept;
  Mutex.unlock hb.hb_m

let hb_after hb ~job ~after =
  Mutex.lock hb.hb_m;
  let entries =
    match Hashtbl.find_opt hb.hb_tbl job with
    | None -> []
    | Some c -> List.rev (List.filter (fun (s, _) -> s > after) !c)
  in
  Mutex.unlock hb.hb_m;
  entries

type t = {
  queue : Job.t Fair_queue.t;
  st : stats;
  hb : heartbeats;
  domains : unit Domain.t array;
  stopped : bool Atomic.t;
}

let heartbeats_after t ~job ~after = hb_after t.hb ~job ~after

(* A sink the optimizer cannot delete, so Probe's spin is real work with
   a stable per-unit cost (roughly one float multiply-add per unit). *)
let probe_sink = ref 0.

let run_probe spin =
  let acc = ref 1.0 in
  for i = 1 to max 0 spin do
    acc := (!acc *. 1.0000001) +. float_of_int (i land 7)
  done;
  probe_sink := !probe_sink +. !acc

let scheme_exn name =
  match Era_smr.Registry.find name with
  | Some s -> s
  | None ->
    invalid_arg
      (Fmt.str "unknown scheme %S (expected one of: %s)" name
         (String.concat ", " Era_smr.Registry.names))

let structure_exn name =
  match Era.Applicability.structure_of_name name with
  | Some s -> s
  | None -> invalid_arg (Fmt.str "unknown structure %S" name)

(* Explorer progress snapshot in the shared registry format, so a
   [follow]er sees the same metric names mid-run that the final
   ["registry"] artifact will carry. *)
let progress_registry (p : Ex.progress) =
  let reg = Registry.create () in
  Registry.set_counter (Registry.counter reg "explore_runs") p.Ex.pg_runs;
  Registry.set_counter (Registry.counter reg "explore_states") p.Ex.pg_states;
  Registry.set_int (Registry.gauge reg "explore_level") p.Ex.pg_level;
  Registry.set_int (Registry.gauge reg "explore_frontier") p.Ex.pg_frontier;
  Registry.set_int (Registry.gauge reg "explore_deferred") p.Ex.pg_deferred;
  Registry.set_int
    (Registry.gauge reg "explore_budget_left")
    p.Ex.pg_budget_left;
  Registry.to_json reg

(* The one beat every job kind emits: pushed as the job transitions to
   [Running], so a follower always sees at least one heartbeat. *)
let start_registry started_s =
  let reg = Registry.create () in
  Registry.set (Registry.gauge reg "job_started_s") started_s;
  Registry.to_json reg

(* Run the job body; returns (note, artifacts). Raises on bad input or
   a crashing run — the caller turns that into [Failed]. [push] emits a
   mid-job heartbeat (a registry-format JSON snapshot). *)
let execute ~store ~push (job : Job.t) =
  match job.Job.kind with
  | Job.Probe { spin } ->
    run_probe spin;
    (Fmt.str "probe done (spin %d)" spin, [])
  | Job.Figure1 { scheme; rounds } ->
    let r = Era.Figure1.run ~rounds (scheme_exn scheme) in
    let key =
      Store.put store ~akind:"verdict" ~job_id:job.Job.id
        ~label:(Fmt.str "figure1/%s" scheme)
        (J.to_string
           (J.Obj
              [
                ("experiment", J.String "figure1");
                ("scheme", J.String scheme);
                ("rounds", J.Int rounds);
                ("verdict", J.String (Fmt.str "%a" Era.Figure1.pp_result r));
              ]))
    in
    (Fmt.str "%a" Era.Figure1.pp_outcome r.Era.Figure1.outcome,
     [ ("verdict", key) ])
  | Job.Figure2 { scheme } ->
    let r = Era.Figure2.run (scheme_exn scheme) in
    let note =
      match r.Era.Figure2.outcome with
      | Era.Figure2.Unsafe _ -> "UNSAFE (stale value used)"
      | Era.Figure2.Safe_completion { retired_backlog } ->
        Fmt.str "safe (retired backlog %d)" retired_backlog
    in
    let key =
      Store.put store ~akind:"verdict" ~job_id:job.Job.id
        ~label:(Fmt.str "figure2/%s" scheme)
        (J.to_string
           (J.Obj
              [
                ("experiment", J.String "figure2");
                ("scheme", J.String scheme);
                ("verdict", J.String (Fmt.str "%a" Era.Figure2.pp_result r));
              ]))
    in
    (note, [ ("verdict", key) ])
  | Job.Explore e ->
    let scheme = scheme_exn e.scheme in
    let structure = structure_exn e.structure in
    let config =
      {
        Ex.default_config with
        Ex.max_preemptions = e.preemptions;
        max_runs = e.max_runs;
        max_steps = e.steps;
        (* ~16 heartbeats over the run, however large it is. The
           callback runs on the exploring domain, so it only builds a
           small registry and takes one short critical section. *)
        progress_every = max 1 (e.max_runs / 16);
        on_progress = Some (fun p -> push (progress_registry p));
      }
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Era.Applicability.explore ~config ~seed:e.seed ?ops_per_thread:e.ops
        ?robustness_bound:e.robust_bound scheme structure
    in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    (* Per-job telemetry snapshot: the explorer's final stats in the
       shared lib/obs registry format, persisted as an artifact. *)
    let reg = Ex.stats_registry r.Ex.res_stats in
    Registry.set (Registry.gauge reg "explore_elapsed_s") elapsed_s;
    let reg_key =
      Store.put store ~akind:"registry" ~job_id:job.Job.id
        ~label:(Job.kind_label job.Job.kind)
        (Registry.to_string reg)
    in
    let artifacts = ref [ ("registry", reg_key) ] in
    let note =
      match r.Ex.res_cex with
      | None ->
        Fmt.str "no violation (%d runs, %d states)" r.Ex.res_stats.Ex.runs
          r.Ex.res_stats.Ex.states
      | Some cex ->
        let key =
          Store.put store ~akind:"counterexample" ~job_id:job.Job.id
            ~label:cex.Ex.c_target
            (J.to_string (Ex.counterexample_to_json cex))
        in
        artifacts := ("counterexample", key) :: !artifacts;
        Fmt.str "VIOLATION %a" Ex.pp_violation cex.Ex.c_violation
    in
    (note, !artifacts)

(* Persist the job's heartbeat history (what a follower would have
   seen) as one artifact, oldest beat first. *)
let persist_heartbeats hb ~store (job : Job.t) =
  match hb_after hb ~job:job.Job.id ~after:0 with
  | [] -> None
  | entries ->
    let key =
      Store.put store ~akind:"heartbeats" ~job_id:job.Job.id
        ~label:(Job.kind_label job.Job.kind)
        (J.to_string (J.List (List.map snd entries)))
    in
    Some key

let run_job ?hb ~store (job : Job.t) =
  let push body =
    match hb with None -> () | Some b -> hb_push b job body
  in
  let started_s = Unix.gettimeofday () in
  Atomic.set job.Job.progress
    { Job.status = Running; started_s; finished_s = 0.; result = None };
  push (start_registry started_s);
  let note, artifacts, status =
    match execute ~store ~push job with
    | note, artifacts -> (note, artifacts, Job.Done)
    | exception exn ->
      (Fmt.str "error: %s" (Printexc.to_string exn), [], Job.Failed)
  in
  let finished_s = Unix.gettimeofday () in
  let artifacts =
    match Option.bind hb (fun b -> persist_heartbeats b ~store job) with
    | None -> artifacts
    | Some key -> artifacts @ [ ("heartbeats", key) ]
  in
  (* Status and result land in one store, so no reader can see the
     terminal status without the result. *)
  Atomic.set job.Job.progress
    { Job.status; started_s; finished_s; result = Some { note; artifacts } }

let worker ~idx ~t0 ~tracer ~store ~queue ~hb st () =
  let rec loop () =
    match Fair_queue.next queue with
    | None -> ()
    | Some job ->
      Atomic.incr st.busy;
      let now_us () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      let ts = now_us () in
      (match tracer with
      | None -> ()
      | Some tr ->
        Tracer.begin_span tr ~ts ~tid:idx ~cat:"job"
          ~args:
            [
              ("id", J.Int job.Job.id); ("tenant", J.String job.Job.tenant);
            ]
          (Job.kind_label job.Job.kind));
      run_job ~hb ~store job;
      let ts' = now_us () in
      (match tracer with
      | None -> ()
      | Some tr -> Tracer.end_span tr ~ts:ts' ~tid:idx);
      ignore (Atomic.fetch_and_add st.service_us (ts' - ts));
      (match (Job.progress job).status with
      | Job.Done -> Atomic.incr st.served
      | _ -> Atomic.incr st.failed);
      Atomic.decr st.busy;
      loop ()
  in
  loop ()

let start ?(workers = 2) ?tracer ~queue ~store () =
  let workers = max 1 workers in
  let st =
    {
      served = Atomic.make 0;
      failed = Atomic.make 0;
      aborted = Atomic.make 0;
      busy = Atomic.make 0;
      service_us = Atomic.make 0;
    }
  in
  let t0 = Unix.gettimeofday () in
  (match tracer with
  | None -> ()
  | Some tr ->
    for i = 0 to workers - 1 do
      Tracer.set_thread_name tr ~tid:i (Fmt.str "worker-%d" i)
    done);
  let hb = create_heartbeats () in
  let domains =
    Array.init workers (fun idx ->
        Domain.spawn (worker ~idx ~t0 ~tracer ~store ~queue ~hb st))
  in
  { queue; st; hb; domains; stopped = Atomic.make false }

let stats t = t.st
let workers t = Array.length t.domains

let stop ?(drain = true) t =
  if Atomic.compare_and_set t.stopped false true then begin
    if drain then Fair_queue.close t.queue
    else begin
      let abandoned = Fair_queue.close_now t.queue in
      List.iter
        (fun (job : Job.t) ->
          Atomic.set job.Job.progress
            {
              Job.status = Aborted;
              started_s = 0.;
              finished_s = Unix.gettimeofday ();
              result =
                Some { note = "aborted: daemon stopped"; artifacts = [] };
            };
          Atomic.incr t.st.aborted)
        abandoned
    end;
    Array.iter Domain.join t.domains
  end
