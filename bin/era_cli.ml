(* Command-line driver for the ERA reproduction experiments.

     dune exec bin/era_cli.exe -- <command> [options]

   Commands: figure1, figure2, robustness, applicability, access-aware,
   matrix, native, ablation, stall-fuzz, explore, replay, trace, serve,
   submit, jobs, all.

   Parsing goes through Era_metrics.Run_config — the same Arg-based flag
   surface as bench/main.exe — so --schemes/--json/--domains/... behave
   identically in both front-ends.

   Exit codes: 0 success, 1 a run/check failed (violation did not
   reproduce, theorem matrix broken, unreadable input file), 2 usage
   error. *)

module M = Era_metrics.Metrics
module Rc = Era_metrics.Run_config
module Explore = Era_explore.Explore
module Tracer = Era_obs.Tracer
module Registry = Era_obs.Registry
module Sim_trace = Era_obs.Sim_trace

let commands =
  [
    "figure1"; "figure2"; "robustness"; "applicability"; "access-aware";
    "matrix"; "native"; "ablation"; "stall-fuzz"; "explore"; "replay";
    "trace"; "serve"; "submit"; "jobs"; "all";
  ]

(* [file_arg] admits the positionals of [replay <counterexample.json>],
   [trace <scenario>] and [submit <job-kind>]. *)
let cfg = Rc.parse ~prog:"era_cli" ~commands ~file_arg:true ()

let schemes () =
  let all = Era_smr.Registry.all in
  (* Reject unknown names loudly rather than silently selecting nothing. *)
  List.iter
    (fun name ->
      if not (List.exists (fun s -> Era_smr.Registry.name_of s = name) all)
      then begin
        Fmt.epr "era_cli: unknown scheme %S (expected one of: %s)@." name
          (String.concat ", " Era_smr.Registry.names);
        exit 2
      end)
    cfg.Rc.schemes;
  List.filter (fun s -> Rc.selects_scheme cfg (Era_smr.Registry.name_of s)) all

let figure1 () =
  let rounds = Rc.rounds_or cfg 256 in
  List.iter
    (fun s -> Fmt.pr "%a@." Era.Figure1.pp_result (Era.Figure1.run ~rounds s))
    (schemes ())

let figure2 () =
  List.iter
    (fun s -> Fmt.pr "%a@." Era.Figure2.pp_result (Era.Figure2.run s))
    (schemes ())

let robustness () =
  List.iter
    (fun s ->
      Fmt.pr "%a@." Era.Robustness.pp_measurement (Era.Robustness.classify s))
    (schemes ())

let applicability () =
  let fuzz_runs = Rc.fuzz_or cfg 10 in
  List.iter
    (fun s ->
      List.iter
        (fun st ->
          Fmt.pr "%a@." Era.Applicability.pp_verdict
            (Era.Applicability.run ~fuzz_runs s st))
        Era.Applicability.structures)
    (schemes ())

let access_aware () =
  List.iter
    (fun r -> Fmt.pr "%a@." Era.Access_aware.pp_report r)
    (Era.Access_aware.audit_all ());
  Fmt.pr "negative control: %a@."
    Fmt.(list ~sep:semi (pair ~sep:(any " x") string int))
    (Era.Access_aware.negative_control ())

let matrix () =
  let rows = Era.Era_matrix.compute ~fuzz_runs:(Rc.fuzz_or cfg 10) () in
  Fmt.pr "%a@." Era.Era_matrix.pp_table rows;
  if not (Era.Era_matrix.theorem_holds rows) then exit 1

let ablation () =
  Fmt.pr "HP scan-threshold sweep (space vs scan frequency):@.";
  List.iter
    (fun r -> Fmt.pr "  %a@." Era.Ablation.pp_hp_row r)
    (Era.Ablation.hp_sweep ());
  Fmt.pr "@.IBR epoch-granularity sweep (no tuning escapes Figure 1):@.";
  List.iter
    (fun r -> Fmt.pr "  %a@." Era.Ablation.pp_ibr_row r)
    (Era.Ablation.ibr_sweep ())

let stall_fuzz () =
  let tries = Rc.tries_or cfg 30 in
  List.iter
    (fun ((module S : Era_smr.Smr_intf.S) as s) ->
      let r =
        Era.Applicability.stall_fuzz ~tries ~seed:1 s Era.Applicability.Harris
      in
      Fmt.pr "%-6s stall-fuzz on harris-list: %d/%d runs violated%a@." S.name
        r.Explore.fz_found r.Explore.fz_tries
        (Fmt.option (fun fmt v -> Fmt.pf fmt " (first: %a)" Explore.pp_violation v))
        r.Explore.fz_first)
    (schemes ())

(* ---------------------------------------------------------------- *)
(* Systematic exploration                                            *)
(* ---------------------------------------------------------------- *)

let one_scheme () =
  match cfg.Rc.schemes with
  | [ name ] -> (
    match Era_smr.Registry.find name with
    | Some s -> s
    | None ->
      Fmt.epr "era_cli: unknown scheme %S (expected one of: %s)@." name
        (String.concat ", " Era_smr.Registry.names);
      exit 2)
  | [] | _ :: _ :: _ ->
    Fmt.epr "era_cli explore: pick exactly one scheme with --scheme@.";
    exit 2

let structure_arg () =
  match cfg.Rc.structure with
  | None -> Era.Applicability.Harris
  | Some s -> (
    match Era.Applicability.structure_of_name s with
    | Some st -> st
    | None ->
      Fmt.epr "era_cli: unknown structure %S (expected one of: %s)@." s
        (String.concat ", "
           (List.map Era.Applicability.structure_name
              Era.Applicability.structures));
      exit 2)

(* Attach the tracer to a replay's internally built scheduler — the
   [?on_sched] hook of [Explore.run_steps]. *)
let attach_to_replay tr ~process sched =
  Tracer.set_process_name tr process;
  ignore (Sim_trace.attach tr (Era_sched.Sched.monitor sched) : unit -> unit);
  Sim_trace.attach_sched tr sched

let write_trace tr ~file =
  Tracer.write ~file tr;
  Fmt.pr "trace written to %s (%d events%s) — open in Perfetto \
          (https://ui.perfetto.dev) or chrome://tracing@."
    file (Tracer.length tr)
    (match Tracer.dropped tr with
    | 0 -> ""
    | d -> Fmt.str ", %d oldest dropped" d)

let explore_cmd () =
  let ((module S : Era_smr.Smr_intf.S) as scheme) = one_scheme () in
  let structure = structure_arg () in
  let structure_n = Era.Applicability.structure_name structure in
  let d = Explore.default_config in
  let t0 = Unix.gettimeofday () in
  let last_progress = ref None in
  let config =
    {
      d with
      Explore.max_preemptions = Rc.preemptions_or cfg d.Explore.max_preemptions;
      max_runs = Rc.max_runs_or cfg d.Explore.max_runs;
      max_steps = Rc.steps_or cfg d.Explore.max_steps;
      domains = Rc.domains_or cfg d.Explore.domains;
      dpor = cfg.Rc.dpor;
      progress_every = Option.value cfg.Rc.heartbeat ~default:0;
      on_progress =
        (match cfg.Rc.heartbeat with
        | None -> None
        | Some _ ->
          Some
            (fun (p : Explore.progress) ->
              last_progress := Some p;
              let elapsed = Unix.gettimeofday () -. t0 in
              Fmt.pr
                "[heartbeat] level=%d runs=%d (budget left %d) states=%d \
                 (%.0f/s) frontier=%d(+%d deferred) domain-runs=[%a]@."
                p.Explore.pg_level p.Explore.pg_runs
                p.Explore.pg_budget_left p.Explore.pg_states
                (float_of_int p.Explore.pg_states /. Float.max elapsed 1e-9)
                p.Explore.pg_frontier p.Explore.pg_deferred
                Fmt.(array ~sep:comma int)
                p.Explore.pg_per_domain_runs));
    }
  in
  let seed = Rc.seed_or cfg 2 in
  Fmt.pr
    "exploring %s/%s (preemption bound %d, budget %d runs, %d domain%s%s)...@."
    S.name structure_n
    config.Explore.max_preemptions config.Explore.max_runs
    config.Explore.domains
    (if config.Explore.domains = 1 then "" else "s")
    (if config.Explore.dpor then ", dpor" else "");
  let r =
    Era.Applicability.explore ~config ~seed ?ops_per_thread:cfg.Rc.ops
      ~lincheck:cfg.Rc.lincheck ?robustness_bound:cfg.Rc.robust_bound scheme
      structure
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let stats = r.Explore.res_stats in
  Fmt.pr "%a (%.0f states/s)@." Explore.pp_stats stats
    (float_of_int stats.Explore.states /. Float.max elapsed_s 1e-9);
  (* The heartbeat sidecar: final search stats plus run-shape gauges, in
     the registry JSON format shared with every other metrics export. *)
  (match cfg.Rc.heartbeat with
  | None -> ()
  | Some _ ->
    let reg = Explore.stats_registry stats in
    Registry.set (Registry.gauge reg "explore_elapsed_s") elapsed_s;
    Registry.set
      (Registry.gauge reg "explore_states_per_s")
      (float_of_int stats.Explore.states /. Float.max elapsed_s 1e-9);
    (match !last_progress with
    | None -> ()
    | Some p ->
      Registry.set_int
        (Registry.gauge reg "explore_frontier_last")
        p.Explore.pg_frontier);
    let hb_file = Fmt.str "heartbeat_%s_%s.json" S.name structure_n in
    Registry.write ~file:hb_file reg;
    Fmt.pr "heartbeat sidecar written to %s@." hb_file);
  match r.Explore.res_cex with
  | None ->
    Fmt.pr
      "no violation found within the bounds — every explored schedule is \
       safe@.";
    if cfg.Rc.trace then
      Fmt.pr "(--trace: no counterexample to capture)@."
  | Some cex ->
    Fmt.pr "VIOLATION: %a@." Explore.pp_counterexample cex;
    let out =
      match cfg.Rc.out with
      | Some f -> f
      | None -> Fmt.str "counterexample_%s_%s.json" S.name structure_n
    in
    Explore.save ~file:out cex;
    Fmt.pr "counterexample written to %s (replay with: era_cli replay %s)@."
      out out;
    if cfg.Rc.trace then begin
      match Era.Applicability.target_of_counterexample cex with
      | Error e ->
        Fmt.epr "era_cli explore: trace capture failed: %s@." e;
        exit 1
      | Ok target ->
        let tr = Tracer.create ~capacity:(1 lsl 20) () in
        let process = Fmt.str "counterexample %s" cex.Explore.c_target in
        ignore
          (Explore.replay ~on_sched:(attach_to_replay tr ~process) target cex);
        write_trace tr ~file:(Fmt.str "trace_%s_%s.json" S.name structure_n)
    end

(* [trace <scenario|counterexample.json>] — run a seeded scenario (or a
   saved counterexample replay) with the tracer attached and write a
   Perfetto-loadable Chrome trace-event JSON. *)
let trace_cmd () =
  let what =
    match cfg.Rc.file with
    | Some f -> f
    | None ->
      Fmt.epr
        "usage: era_cli trace <figure1|figure2|counterexample.json> \
         [--scheme S] [--out FILE]@.";
      exit 2
  in
  let tr = Tracer.create ~capacity:(1 lsl 20) () in
  let default_out =
    match what with
    | "figure1" ->
      let scheme = one_scheme () in
      let rounds = Rc.rounds_or cfg 64 in
      let r = Era.Figure1.run ~tracer:tr ~rounds scheme in
      Fmt.pr "%a@." Era.Figure1.pp_result r;
      Fmt.str "trace_figure1_%s.json" r.Era.Figure1.scheme
    | "figure2" ->
      let r = Era.Figure2.run ~tracer:tr (one_scheme ()) in
      Fmt.pr "%a@." Era.Figure2.pp_result r;
      Fmt.str "trace_figure2_%s.json" r.Era.Figure2.scheme
    | file -> (
      match Explore.load ~file with
      | Error e ->
        Fmt.epr "era_cli trace: %s@." e;
        exit 1
      | Ok cex -> (
        match Era.Applicability.target_of_counterexample cex with
        | Error e ->
          Fmt.epr "era_cli trace: %s@." e;
          exit 1
        | Ok target ->
          let process = Fmt.str "counterexample %s" cex.Explore.c_target in
          let r =
            Explore.replay ~on_sched:(attach_to_replay tr ~process) target cex
          in
          (match r.Explore.rp_violation with
          | Some v -> Fmt.pr "replayed violation: %a@." Explore.pp_violation v
          | None -> Fmt.pr "replay finished without a violation@.");
          Fmt.str "trace_%s.json"
            (String.map
               (fun c -> if c = '/' then '_' else c)
               cex.Explore.c_target)))
  in
  let out = Option.value cfg.Rc.out ~default:default_out in
  write_trace tr ~file:out

let replay_cmd () =
  let file =
    match cfg.Rc.file with
    | Some f -> f
    | None ->
      Fmt.epr "usage: era_cli replay <counterexample.json>@.";
      exit 2
  in
  match Explore.load ~file with
  | Error e ->
    Fmt.epr "era_cli replay: %s@." e;
    exit 1
  | Ok cex -> (
    match Era.Applicability.target_of_counterexample cex with
    | Error e ->
      Fmt.epr "era_cli replay: %s@." e;
      exit 1
    | Ok target ->
      Fmt.pr "replaying %a@." Explore.pp_counterexample cex;
      let r = Explore.replay target cex in
      (match r.Explore.rp_violation with
      | Some v when v.Explore.v_kind = cex.Explore.c_violation.Explore.v_kind
        ->
        Fmt.pr "reproduced: %a@." Explore.pp_violation v
      | Some v ->
        Fmt.pr "different violation on replay: %a@." Explore.pp_violation v;
        exit 1
      | None ->
        Fmt.pr "violation did NOT reproduce@.";
        exit 1))

let native () =
  let open Era_native.Throughput in
  let module Flight = Era_obs.Flight in
  let ops = Rc.ops_or cfg 100_000 in
  let domains = Rc.domains_or cfg 2 in
  let sink = M.sink () in
  let native_scheme s = Rc.selects_scheme cfg (scheme_name s) in
  (* --flight FILE: each recorded row gets its own recorder and merged
     Perfetto trace. The first recorded row writes FILE; further rows
     write FILE with the row label spliced in, so a multi-row run never
     silently overwrites. *)
  let flight_rows = ref 0 in
  let with_flight ~ndomains ~label (run : Flight.t -> result) =
    match cfg.Rc.flight with
    | None -> run Flight.null
    | Some base ->
      let flight = Flight.create ~ndomains () in
      let r = run flight in
      let file =
        if !flight_rows = 0 then base
        else
          let safe =
            String.map
              (fun c ->
                match c with
                | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
                | _ -> '-')
              label
          in
          Printf.sprintf "%s-%s.json" (Filename.remove_extension base) safe
      in
      incr flight_rows;
      Flight.write ~file flight;
      let reg = Era_obs.Registry.create () in
      Flight.to_registry flight reg;
      Fmt.pr "  flight: %d events (%d dropped) -> %s@."
        (Flight.total_events flight) (Flight.dropped flight) file;
      Fmt.pr "%a@." Era_obs.Registry.pp reg;
      r
  in
  (if cfg.Rc.stall then
     (* --stall: only the E9 stalled-domain rows (domain 0 parks
        mid-operation; two churn domains drive the backlog). *)
     List.iter
       (fun s ->
         if native_scheme (s :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]) then begin
           let label = "stall-" ^ scheme_name (s :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]) in
           let r =
             with_flight ~ndomains:3 ~label (fun flight ->
                 e9_row ~flight ~scheme:s ~churn_ops:ops ())
           in
           Fmt.pr "%a@." pp_result r;
           M.add sink (to_row ~experiment:"E9" ~category:"native-backlog" r)
         end)
       [ `Ebr; `Hp; `Ibr; `Debra ]
   else
     match Rc.(cfg.keys, cfg.zipf, cfg.mix) with
  | (Some _, _, _) | (_, Some _, _) | (_, _, Some _) ->
    (* --keys/--zipf/--mix: one E16-style row per scheme on the
       requested workload instead of the standard E8 grid. *)
    let contains_pct =
      match cfg.Rc.mix with
      | None -> 90
      | Some m -> (
        match contains_pct_of_mix m with
        | Ok p -> p
        | Error e ->
          Fmt.epr "era_cli native: --mix: %s@." e;
          exit 2)
    in
    let workload =
      custom_workload ?zipf:cfg.Rc.zipf
        ~keys:(Option.value cfg.Rc.keys ~default:1024)
        ~contains_pct ()
    in
    List.iter
      (fun scheme ->
        if native_scheme scheme then begin
          let r =
            with_flight ~ndomains:domains
              ~label:("michael-" ^ scheme_name scheme)
              (fun flight ->
                e16_row Michael ~flight ~scheme ~workload ~domains
                  ~ops_per_domain:ops)
          in
          Fmt.pr "%a@." pp_result r;
          M.add sink (to_row ~experiment:"E16" ~category:"native-throughput" r)
        end)
      [ `None; `Ebr; `Hp; `Ibr; `Debra ]
  | None, None, None ->
    List.iter
      (fun (kind, scheme, mix, label) ->
        if native_scheme scheme then begin
          let r =
            with_flight ~ndomains:domains ~label (fun flight ->
                e8_row kind ~flight ~scheme mix ~domains ~ops_per_domain:ops)
          in
          Fmt.pr "%a@." pp_result r;
          M.add sink (to_row ~experiment:"E8" ~category:"native-throughput" r)
        end)
      [
        (Harris, `Ebr, Churn, "harris-ebr-churn");
        (Michael, `Ebr, Churn, "michael-ebr-churn");
        (Michael, `Hp, Churn, "michael-hp-churn");
        (Harris, `Ebr, Read_heavy, "harris-ebr-read");
        (Michael, `Ebr, Read_heavy, "michael-ebr-read");
        (Michael, `Hp, Read_heavy, "michael-hp-read");
      ];
    List.iter
      (fun s ->
        if native_scheme (s :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]) then begin
          let label =
            "stall-" ^ scheme_name (s :> [ `Debra | `Ebr | `Hp | `Ibr | `None ])
          in
          let r =
            with_flight ~ndomains:3 ~label (fun flight ->
                e9_row ~flight ~scheme:s ~churn_ops:ops ())
          in
          Fmt.pr "%a@." pp_result r;
          M.add sink (to_row ~experiment:"E9" ~category:"native-backlog" r)
        end)
      [ `Ebr; `Hp; `Ibr; `Debra ]);
  match cfg.Rc.json with
  | None -> ()
  | Some path ->
    let n = M.flush sink ~mode:(Rc.mode cfg) ~path in
    Fmt.pr "wrote %d metric rows to %s@." n path

(* ---------------------------------------------------------------- *)
(* Serving: era_serve daemon + client commands                       *)
(* ---------------------------------------------------------------- *)

module Daemon = Era_serve.Daemon
module Client = Era_serve.Client
module Job = Era_serve.Job

let daemon_config () =
  let d = Daemon.default_config in
  {
    Daemon.socket_path =
      Option.value cfg.Rc.socket ~default:d.Daemon.socket_path;
    workers = Option.value cfg.Rc.workers ~default:d.Daemon.workers;
    global_cap = Option.value cfg.Rc.queue_cap ~default:d.Daemon.global_cap;
    tenant_cap = Option.value cfg.Rc.tenant_cap ~default:d.Daemon.tenant_cap;
    store_dir = Option.value cfg.Rc.store ~default:d.Daemon.store_dir;
  }

let serve_cmd () =
  let dc = daemon_config () in
  let t = Daemon.start dc in
  Fmt.pr
    "era_serve listening on %s (%d worker%s, queue cap %d global / %d per \
     tenant, store %s)@.stop with: era_cli jobs --shutdown --socket %s@."
    dc.Daemon.socket_path dc.Daemon.workers
    (if dc.Daemon.workers = 1 then "" else "s")
    dc.Daemon.global_cap dc.Daemon.tenant_cap dc.Daemon.store_dir
    dc.Daemon.socket_path;
  Daemon.wait t;
  Fmt.pr "era_serve stopped@."

let with_client k =
  let socket =
    Option.value cfg.Rc.socket ~default:Daemon.default_config.Daemon.socket_path
  in
  (* A few connect retries cover the daemon-still-booting race when
     scripts background [serve] and immediately submit. *)
  match Client.connect ~retries:20 ~retry_delay_s:0.25 ~socket () with
  | Error e ->
    Fmt.epr "era_cli: %s@." e;
    exit 1
  | Ok cl ->
    let r = k cl in
    Client.close cl;
    r

let submit_kind () =
  let scheme_or d =
    match cfg.Rc.schemes with
    | [] -> d
    | [ s ] -> s
    | _ :: _ :: _ ->
      Fmt.epr "era_cli submit: pick at most one scheme with --scheme@.";
      exit 2
  in
  match cfg.Rc.file with
  | None | Some "explore" ->
    let d = Explore.default_config in
    Job.Explore
      {
        scheme = scheme_or "hp";
        structure = Option.value cfg.Rc.structure ~default:"harris-list";
        preemptions =
          Rc.preemptions_or cfg d.Explore.max_preemptions;
        max_runs = Rc.max_runs_or cfg 20_000;
        steps = Rc.steps_or cfg d.Explore.max_steps;
        seed = Rc.seed_or cfg 2;
        ops = cfg.Rc.ops;
        robust_bound = cfg.Rc.robust_bound;
      }
  | Some "figure1" ->
    Job.Figure1 { scheme = scheme_or "ebr"; rounds = Rc.rounds_or cfg 256 }
  | Some "figure2" -> Job.Figure2 { scheme = scheme_or "ebr" }
  | Some "probe" ->
    Job.Probe { spin = Rc.ops_or cfg 1000 }
  | Some other ->
    Fmt.epr
      "era_cli submit: unknown job kind %S (expected explore, figure1, \
       figure2 or probe)@."
      other;
    exit 2

let print_job j =
  Fmt.pr "%s@." (Era_metrics.Json.to_string ~minify:false j)

let submit_cmd () =
  let kind = submit_kind () in
  let tenant = Option.value cfg.Rc.tenant ~default:"default" in
  with_client (fun cl ->
      match Client.submit cl ~tenant kind with
      | Error e ->
        Fmt.epr "era_cli submit: %s@." e;
        exit 1
      | Ok (Client.Shed reason) ->
        Fmt.pr "shed (%s): the daemon is at capacity — retry later@." reason;
        exit 1
      | Ok (Client.Admitted id) ->
        Fmt.pr "admitted as job %d (%s, tenant %s)@." id (Job.kind_label kind)
          tenant;
        if cfg.Rc.wait then begin
          match Client.wait_job cl id with
          | Error e ->
            Fmt.epr "era_cli submit: %s@." e;
            exit 1
          | Ok j ->
            print_job j;
            let status =
              Option.value
                Era_metrics.Json.(Option.bind (member "status" j) to_str)
                ~default:""
            in
            if status <> "done" then exit 1
        end)

let jobs_cmd () =
  with_client (fun cl ->
      if cfg.Rc.shutdown then begin
        match Client.shutdown cl ~drain:(not cfg.Rc.now) with
        | Error e ->
          Fmt.epr "era_cli jobs: %s@." e;
          exit 1
        | Ok () ->
          Fmt.pr "shutdown requested (%s)@."
            (if cfg.Rc.now then "abandoning the backlog"
             else "draining the backlog")
      end
      else
        match cfg.Rc.follow with
        | Some id -> (
          (* Streaming follow: heartbeat lines as the daemon pushes
             them, then the final summary. *)
          match
            Client.follow cl id ~on_heartbeat:(fun hb ->
                Fmt.pr "heartbeat %s@."
                  (Era_metrics.Json.to_string ~minify:true hb))
          with
          | Error e ->
            Fmt.epr "era_cli jobs: %s@." e;
            exit 1
          | Ok j -> print_job j)
        | None -> (
          match (Client.stats cl, Client.jobs cl) with
          | Error e, _ | _, Error e ->
            Fmt.epr "era_cli jobs: %s@." e;
            exit 1
          | Ok stats, Ok jobs ->
            Fmt.pr "stats: %s@."
              (Era_metrics.Json.to_string ~minify:true stats);
            List.iter print_job jobs))

let all () =
  Fmt.pr "== Figure 1 ==@.";
  figure1 ();
  Fmt.pr "@.== Figure 2 ==@.";
  figure2 ();
  Fmt.pr "@.== Robustness ==@.";
  robustness ();
  Fmt.pr "@.== Applicability ==@.";
  applicability ();
  Fmt.pr "@.== Access-aware audit ==@.";
  access_aware ();
  Fmt.pr "@.== ERA matrix ==@.";
  matrix ();
  Fmt.pr "@.== Native ==@.";
  native ()

let () =
  match cfg.Rc.command with
  | Some "figure1" -> figure1 ()
  | Some "figure2" -> figure2 ()
  | Some "robustness" -> robustness ()
  | Some "applicability" -> applicability ()
  | Some "access-aware" -> access_aware ()
  | Some "matrix" -> matrix ()
  | Some "native" -> native ()
  | Some "ablation" -> ablation ()
  | Some "stall-fuzz" -> stall_fuzz ()
  | Some "explore" -> explore_cmd ()
  | Some "replay" -> replay_cmd ()
  | Some "trace" -> trace_cmd ()
  | Some "serve" -> serve_cmd ()
  | Some "submit" -> submit_cmd ()
  | Some "jobs" -> jobs_cmd ()
  | Some "all" -> all ()
  | Some other ->
    (* unreachable: Run_config validated the command list *)
    Fmt.epr "era_cli: unknown command %S@." other;
    exit 2
  | None ->
    Fmt.epr "usage: era_cli <command> [options]@.commands: %s@."
      (String.concat ", " commands);
    exit 2
