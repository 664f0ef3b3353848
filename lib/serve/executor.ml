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

let beat_cap = 256 (* per job; older beats fall off, history stays bounded *)

type t = {
  queue : Job.t Fair_queue.t;
  st : stats;
  domains : unit Domain.t array;
  stopped : bool Atomic.t;
}

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

(* The one beat every job kind emits: published as the job transitions
   to [Running], so a follower always sees at least one heartbeat. *)
let start_registry started_s =
  let reg = Registry.create () in
  Registry.set (Registry.gauge reg "job_started_s") started_s;
  Registry.to_json reg

(* Run the job body; returns (note, artifacts). Raises on bad input or
   a crashing run — the caller turns that into [Failed]. [beat]
   publishes a mid-job heartbeat (a registry-format JSON snapshot). *)
let execute ~store ~beat (job : Job.t) =
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
        on_progress = Some (fun p -> beat (progress_registry p));
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

(* Append one heartbeat to the job's snapshot. *)
let beat (job : Job.t) registry_json =
  Job.publish job (fun p ->
      let seq = match p.Job.beats with (s, _) :: _ -> s + 1 | [] -> 1 in
      let body =
        J.Obj
          [
            ("job", J.Int job.Job.id);
            ("seq", J.Int seq);
            ("ts_s", J.Float (Unix.gettimeofday ()));
            ("label", J.String (Job.kind_label job.Job.kind));
            ("registry", registry_json);
          ]
      in
      {
        p with
        Job.beats =
          (seq, body) :: List.filteri (fun i _ -> i < beat_cap - 1) p.Job.beats;
      })

(* Persist the job's heartbeat history (what a follower would have
   seen) as one artifact, oldest beat first. *)
let persist_heartbeats ~store (job : Job.t) =
  Store.put store ~akind:"heartbeats" ~job_id:job.Job.id
    ~label:(Job.kind_label job.Job.kind)
    (J.to_string (J.List (List.rev_map snd (Job.progress job).Job.beats)))

let error_note exn = Fmt.str "error: %s" (Printexc.to_string exn)

(* Run the job to its outcome [(status, note, artifacts)], publishing
   [Running] and the heartbeats but not the outcome. Never raises: a
   failing run or a failing heartbeat put ends the job [Failed], so its
   worker lives on and its waiters wake. *)
let run ~store (job : Job.t) =
  let started_s = Unix.gettimeofday () in
  Job.publish job (fun p -> { p with Job.status = Running; started_s });
  beat job (start_registry started_s);
  let status, note, artifacts =
    match execute ~store ~beat:(beat job) job with
    | note, artifacts -> (Job.Done, note, artifacts)
    | exception exn -> (Job.Failed, error_note exn, [])
  in
  match persist_heartbeats ~store job with
  | key -> (status, note, artifacts @ [ ("heartbeats", key) ])
  | exception exn -> (Job.Failed, error_note exn, [])

let finish (job : Job.t) (status, note, artifacts) =
  let finished_s = Unix.gettimeofday () in
  Job.publish job (fun p ->
      { p with status; finished_s; result = Some { note; artifacts } })

let run_job ~store job = finish job (run ~store job)

let worker ~idx ~t0 ~tracer ~store ~queue st () =
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
      let outcome = run ~store job in
      let ts' = now_us () in
      (match tracer with
      | None -> ()
      | Some tr -> Tracer.end_span tr ~ts:ts' ~tid:idx);
      ignore (Atomic.fetch_and_add st.service_us (ts' - ts));
      (* Account before the terminal flip wakes the job's waiters, so
         the stats they read next include the job. *)
      (match outcome with
      | Job.Done, _, _ -> Atomic.incr st.served
      | _ -> Atomic.incr st.failed);
      Atomic.decr st.busy;
      finish job outcome;
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
  let domains =
    Array.init workers (fun idx ->
        Domain.spawn (worker ~idx ~t0 ~tracer ~store ~queue st))
  in
  { queue; st; domains; stopped = Atomic.make false }

let stats t = t.st
let workers t = Array.length t.domains

let stop ?(drain = true) t =
  if Atomic.compare_and_set t.stopped false true then begin
    if drain then Fair_queue.close t.queue
    else begin
      let abandoned = Fair_queue.close_now t.queue in
      List.iter
        (fun (job : Job.t) ->
          Atomic.incr t.st.aborted;
          Job.publish job (fun p ->
              {
                p with
                Job.status = Aborted;
                finished_s = Unix.gettimeofday ();
                result =
                  Some { note = "aborted: daemon stopped"; artifacts = [] };
              }))
        abandoned
    end;
    Array.iter Domain.join t.domains
  end
