(* Benchmark and experiment harness: regenerates every figure and claim
   table of the paper (experiments E1-E9 of DESIGN.md), then runs the
   Bechamel microbenchmarks (B1-B6). Besides the human-readable tables,
   every experiment emits machine-readable rows into one BENCH_*.json
   file (see lib/metrics) — the trajectory bin/bench_compare.exe gates
   future changes against.

     dune exec bench/main.exe                         # everything
     dune exec bench/main.exe -- --quick              # smaller parameters
     dune exec bench/main.exe -- --quick --json BENCH_quick.json
     dune exec bench/main.exe -- --only E8,E9 --schemes ebr,hp *)

open Bechamel
module Sched = Era_sched.Sched
module M = Era_metrics.Metrics
module Rc = Era_metrics.Run_config

let cfg = Rc.parse ~prog:"bench/main.exe" ()
let quick = cfg.Rc.quick
let sink = M.sink ()
let emit = M.add sink
let want = Rc.selects_experiment cfg
let want_scheme = Rc.selects_scheme cfg

let sim_schemes () =
  List.filter
    (fun s -> want_scheme (Era_smr.Registry.name_of s))
    Era_smr.Registry.all

let section title = Fmt.pr "@.==== %s ====@.@." title

(* ------------------------------------------------------------------ *)
(* E1: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1 | Figure 1: the Theorem 6.1 execution (Harris list, N=2)";
  let rounds = Rc.rounds_or cfg (if quick then 128 else 1024) in
  let results = List.map (Era.Figure1.run ~rounds) (sim_schemes ()) in
  List.iter (fun r -> Fmt.pr "  %a@." Era.Figure1.pp_result r) results;
  (* The figure's series: retired backlog vs churn round. *)
  Fmt.pr "@.  retired backlog after n churn rounds (the figure's series):@.";
  let points =
    List.filter (fun p -> p <= rounds) [ 16; 64; 256; 1024 ]
  in
  Fmt.pr "  %-6s" "scheme";
  List.iter (fun p -> Fmt.pr "%8s" ("n=" ^ string_of_int p)) points;
  Fmt.pr "@.";
  List.iter
    (fun r ->
      Fmt.pr "  %-6s" r.Era.Figure1.scheme;
      List.iter
        (fun p ->
          match List.assoc_opt p r.Era.Figure1.series with
          | Some v -> Fmt.pr "%8d" v
          | None -> Fmt.pr "%8s" "-")
        points;
      Fmt.pr "@.")
    results;
  List.iter
    (fun r ->
      let note, max_backlog, extra =
        match r.Era.Figure1.outcome with
        | Era.Figure1.Robustness_violated { retired_end; max_active } ->
          ( "ROBUSTNESS VIOLATED",
            retired_end,
            [ ("max_active", float_of_int max_active) ] )
        | Era.Figure1.Safety_violated _ -> ("SAFETY VIOLATED", 0, [])
        | Era.Figure1.Survived { retired_peak } ->
          ("survived", retired_peak, [])
      in
      emit
        (M.row ~experiment:"E1" ~label:("figure1/" ^ r.Era.Figure1.scheme)
           ~scheme:r.Era.Figure1.scheme ~structure:"harris-list"
           ~total_ops:rounds ~max_backlog ~note ~extra ()))
    results

(* ------------------------------------------------------------------ *)
(* E2: Figure 2                                                        *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2 | Figure 2: protection defeated on Harris's list";
  let results = List.map Era.Figure2.run (sim_schemes ()) in
  List.iter (fun r -> Fmt.pr "  %a@." Era.Figure2.pp_result r) results;
  List.iter
    (fun r ->
      let note, max_backlog =
        match r.Era.Figure2.outcome with
        | Era.Figure2.Unsafe _ -> ("UNSAFE", 0)
        | Era.Figure2.Safe_completion { retired_backlog } ->
          ("safe", retired_backlog)
      in
      emit
        (M.row ~experiment:"E2" ~label:("figure2/" ^ r.Era.Figure2.scheme)
           ~scheme:r.Era.Figure2.scheme ~structure:"harris-list" ~max_backlog
           ~note ()))
    results

(* ------------------------------------------------------------------ *)
(* E3: robustness classification                                       *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3 | Robustness classes (Definitions 5.1/5.2)";
  let churn_points = if quick then [ 64; 256 ] else [ 128; 256; 512; 1024 ] in
  let size_points = if quick then [ 32; 96 ] else [ 32; 64; 128; 256 ] in
  let ms =
    List.map
      (Era.Robustness.classify ~churn_points ~size_points)
      (sim_schemes ())
  in
  List.iter (fun m -> Fmt.pr "  %a@." Era.Robustness.pp_measurement m) ms;
  List.iter
    (fun m ->
      emit
        (M.row ~experiment:"E3"
           ~label:("robustness/" ^ m.Era.Robustness.scheme)
           ~scheme:m.Era.Robustness.scheme ~structure:"harris-list"
           ~note:(Era.Robustness.clazz_name m.Era.Robustness.clazz)
           ~extra:
             [
               ("churn_slope", m.Era.Robustness.churn_slope);
               ("size_slope", m.Era.Robustness.size_slope);
             ]
           ()))
    ms

(* ------------------------------------------------------------------ *)
(* E4: applicability matrix                                            *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4 | Applicability matrix (Definitions 5.4/5.6)";
  let fuzz_runs = Rc.fuzz_or cfg (if quick then 4 else 12) in
  let matrix =
    List.map
      (fun s ->
        ( Era_smr.Registry.name_of s,
          List.map
            (fun st -> (st, Era.Applicability.run ~fuzz_runs s st))
            Era.Applicability.structures ))
      (sim_schemes ())
  in
  Fmt.pr "  %-6s" "";
  List.iter
    (fun st -> Fmt.pr "%-15s" (Era.Applicability.structure_name st))
    Era.Applicability.structures;
  Fmt.pr "@.";
  List.iter
    (fun (scheme, verdicts) ->
      Fmt.pr "  %-6s" scheme;
      List.iter
        (fun (_, v) ->
          Fmt.pr "%-15s"
            (if Era.Applicability.applicable v then "yes" else "NO"))
        verdicts;
      Fmt.pr "@.")
    matrix;
  List.iter
    (fun (scheme, verdicts) ->
      List.iter
        (fun (st, v) ->
          let stname = Era.Applicability.structure_name st in
          emit
            (M.row ~experiment:"E4"
               ~label:(scheme ^ "/" ^ stname)
               ~scheme ~structure:stname
               ~note:(if Era.Applicability.applicable v then "yes" else "NO")
               ~extra:
                 [
                   ( "violations",
                     float_of_int v.Era.Applicability.violations );
                   ( "non_linearizable",
                     float_of_int v.Era.Applicability.non_linearizable );
                   ( "adversarial_unsafe",
                     if v.Era.Applicability.adversarial_unsafe then 1. else 0.
                   );
                 ]
               ()))
        verdicts)
    matrix

(* ------------------------------------------------------------------ *)
(* E5: easy-integration audit                                          *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 | Easy-integration audit (Definition 5.3)";
  List.iter
    (fun s ->
      Fmt.pr "  %a@." Era_smr.Integration.pp_spec
        (Era_smr.Registry.integration_of s);
      let name = Era_smr.Registry.name_of s in
      let easy = Era_smr.Registry.easily_integrated s in
      emit
        (M.row ~experiment:"E5" ~label:("integration/" ^ name) ~scheme:name
           ~note:(if easy then "easy" else "not-easy")
           ()))
    (sim_schemes ())

(* ------------------------------------------------------------------ *)
(* E6: the ERA matrix                                                  *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 | The ERA matrix (Theorem 6.1)";
  (* The theorem check quantifies over every scheme; --schemes only
     filters which rows are emitted, not which are computed. *)
  let rows =
    if quick then
      Era.Era_matrix.compute ~fuzz_runs:4 ~churn_points:[ 64; 256 ]
        ~size_points:[ 32; 96 ] ()
    else Era.Era_matrix.compute ~fuzz_runs:8 ()
  in
  Fmt.pr "%a" Era.Era_matrix.pp_table rows;
  List.iter
    (fun (r : Era.Era_matrix.row) ->
      if want_scheme r.scheme then
        emit
          (M.row ~experiment:"E6" ~label:("era/" ^ r.scheme) ~scheme:r.scheme
             ~note:
               (Fmt.str "E=%b R=%s A=%b" r.easy
                  (Era.Robustness.clazz_name r.robustness)
                  r.widely_applicable)
             ~extra:
               [
                 ( "properties_held",
                   float_of_int (Era.Era_matrix.properties_held r) );
                 ("churn_slope", r.churn_slope);
                 ("size_slope", r.size_slope);
               ]
             ()))
    rows

(* ------------------------------------------------------------------ *)
(* E7: access-aware audit                                              *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 | Access-aware discipline audit (Appendices C/D)";
  let reports = Era.Access_aware.audit_all ~runs:(if quick then 3 else 8) () in
  List.iter (fun r -> Fmt.pr "  %a@." Era.Access_aware.pp_report r) reports;
  Fmt.pr "  negative control flags: %a@."
    Fmt.(list ~sep:semi (pair ~sep:(any " x") string int))
    (Era.Access_aware.negative_control ());
  List.iter
    (fun (r : Era.Access_aware.report) ->
      let stname = Era.Applicability.structure_name r.structure in
      let violations =
        List.fold_left (fun a (_, n) -> a + n) 0 r.discipline_violations
      in
      emit
        (M.row ~experiment:"E7" ~label:("access-aware/" ^ stname)
           ~structure:stname ~total_ops:r.total_ops
           ~note:(if Era.Access_aware.clean r then "clean" else "VIOLATIONS")
           ~extra:[ ("discipline_violations", float_of_int violations) ]
           ()))
    reports

(* ------------------------------------------------------------------ *)
(* E8/E9: native throughput and backlog                                *)
(* ------------------------------------------------------------------ *)

let emit_native experiment category r =
  emit (Era_native.Throughput.to_row ~experiment ~category r)

let e8 () =
  section "E8 | Native: Harris vs Michael's HP-compatible list";
  let open Era_native.Throughput in
  let ops = Rc.ops_or cfg (if quick then 50_000 else 200_000) in
  let grid =
    [
      (Harris, `Ebr, Churn, 1); (Michael, `Ebr, Churn, 1);
      (Michael, `Hp, Churn, 1); (Michael, `Ibr, Churn, 1);
      (Harris, `Ebr, Churn, 2); (Michael, `Hp, Churn, 2);
      (Harris, `Ebr, Read_heavy, 1); (Michael, `Ebr, Read_heavy, 1);
      (Michael, `Hp, Read_heavy, 1); (Michael, `Ibr, Read_heavy, 1);
      (Harris, `Ebr, Read_heavy, 2); (Michael, `Hp, Read_heavy, 2);
    ]
  in
  let grid =
    match cfg.Rc.domains with
    | None -> grid
    | Some n ->
      List.sort_uniq compare
        (List.map (fun (k, s, m, _) -> (k, s, m, n)) grid)
  in
  List.iter
    (fun (kind, scheme, mix, domains) ->
      if want_scheme (scheme_name scheme) then begin
        let r = e8_row kind ~scheme mix ~domains ~ops_per_domain:ops in
        Fmt.pr "  %a@." pp_result r;
        emit_native "E8" "native-throughput" r
      end)
    grid

let e8b () =
  section "E8b | Native: stack and queue throughput per scheme";
  let open Era_native.Throughput in
  let ops = Rc.ops_or cfg (if quick then 50_000 else 200_000) in
  let domains = Rc.domains_or cfg 2 in
  List.iter
    (fun (scheme : [ `Ebr | `Hp | `Ibr | `None ]) ->
      if
        want_scheme
          (scheme_name (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]))
      then begin
        let s = stack_row ~scheme ~domains ~ops_per_domain:ops () in
        Fmt.pr "  %a@." pp_result s;
        emit_native "E8b" "native-throughput" s;
        let q = queue_row ~scheme ~domains ~ops_per_domain:ops () in
        Fmt.pr "  %a@." pp_result q;
        emit_native "E8b" "native-throughput" q
      end)
    [ `None; `Ebr; `Hp; `Ibr ]

let e9 () =
  section "E9 | Native: retired backlog with a stalled domain";
  let open Era_native.Throughput in
  let ops = Rc.ops_or cfg (if quick then 50_000 else 200_000) in
  List.iter
    (fun scheme ->
      if
        want_scheme
          (scheme_name (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]))
      then begin
        let r = e9_row ~scheme ~churn_ops:ops () in
        Fmt.pr "  %a@." pp_result r;
        emit_native "E9" "native-backlog" r
      end)
    [ `Ebr; `Hp; `Ibr; `Debra ]

(* ------------------------------------------------------------------ *)
(* E16: native throughput at million-key Zipf traffic                  *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16 | Native at scale: million-key Zipf vs uniform-small";
  let open Era_native.Throughput in
  let ops = Rc.ops_or cfg (if quick then 50_000 else 200_000) in
  match Era_metrics.Run_config.(cfg.keys, cfg.zipf, cfg.mix) with
  | (Some _, _, _) | (_, Some _, _) | (_, _, Some _) ->
    (* CLI-specified workload: one row per scheme, no grid. *)
    let contains_pct =
      match cfg.Era_metrics.Run_config.mix with
      | None -> 90
      | Some m -> (
        match contains_pct_of_mix m with
        | Ok p -> p
        | Error e -> invalid_arg ("--mix: " ^ e))
    in
    let workload =
      custom_workload ?zipf:cfg.Era_metrics.Run_config.zipf
        ~keys:(Option.value cfg.Era_metrics.Run_config.keys ~default:1024)
        ~contains_pct ()
    in
    let domains = Rc.domains_or cfg 2 in
    List.iter
      (fun scheme ->
        if want_scheme (scheme_name scheme) then begin
          let r =
            e16_row Michael ~scheme ~workload ~domains ~ops_per_domain:ops
          in
          Fmt.pr "  %a@." pp_result r;
          emit_native "E16" "native-throughput" r
        end)
      [ `None; `Ebr; `Hp; `Ibr ]
  | None, None, None ->
    (* The standard grid. zipf-1m (s=0.99) cells are walk-bound — the
       median key rank is in the thousands, so each op traverses
       hundreds of nodes; they run at ops/4 and their signal is
       backlog, not mops. zipf-1m-hot (s=1.5) concentrates on the list
       head, walks are short, and per-op SMR overhead dominates — that
       is the cell the perf gate watches. *)
    let grid =
      [
        (Michael, `Ebr, uniform_small, 1, ops);
        (Michael, `Hp, uniform_small, 1, ops);
        (Michael, `Ibr, uniform_small, 1, ops);
        (Harris, `Ebr, uniform_small, 1, ops);
        (Michael, `Ebr, zipf_1m_hot, 1, ops);
        (Michael, `Hp, zipf_1m_hot, 1, ops);
        (Michael, `Ibr, zipf_1m_hot, 1, ops);
        (Harris, `Ebr, zipf_1m_hot, 1, ops);
        (Michael, `Ebr, zipf_1m, 1, ops / 4);
        (Michael, `Hp, zipf_1m, 1, ops / 4);
        (Michael, `Ebr, uniform_small, 2, ops);
        (Michael, `Hp, uniform_small, 2, ops);
        (Michael, `Ebr, zipf_1m_hot, 2, ops);
        (Michael, `Hp, zipf_1m_hot, 2, ops);
        (Michael, `Ebr, zipf_1m, 2, ops / 4);
        (Michael, `Hp, zipf_1m, 2, ops / 4);
      ]
    in
    let grid =
      match cfg.Rc.domains with
      | None -> grid
      | Some n ->
        List.sort_uniq compare
          (List.map (fun (k, s, w, _, o) -> (k, s, w, n, o)) grid)
    in
    List.iter
      (fun (kind, scheme, workload, domains, ops) ->
        if want_scheme (scheme_name scheme) then begin
          let r = e16_row kind ~scheme ~workload ~domains ~ops_per_domain:ops in
          Fmt.pr "  %a@." pp_result r;
          emit_native "E16" "native-throughput" r
        end)
      grid;
    (* E9 at scale: the stall row under the hot-Zipf traffic — the
       robustness/space trade-off does not soften when the key space
       grows, because EBR's backlog tracks churn volume, not key count. *)
    List.iter
      (fun scheme ->
        if
          want_scheme
            (scheme_name (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]))
        then begin
          let r =
            e9_row ~workload:zipf_1m_hot ~scheme ~churn_ops:(ops / 2) ()
          in
          Fmt.pr "  %a@." pp_result r;
          emit_native "E16" "native-backlog" r
        end)
      [ `Ebr; `Hp; `Ibr; `Debra ]

(* ------------------------------------------------------------------ *)
(* E10/E11: ablations                                                  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 | Ablation: HP scan threshold (space vs scan-frequency)";
  let rows =
    Era.Ablation.hp_sweep
      ~thresholds:(if quick then [ 2; 32 ] else [ 2; 8; 32; 128 ])
      ()
  in
  List.iter (fun r -> Fmt.pr "  %a@." Era.Ablation.pp_hp_row r) rows;
  Fmt.pr
    "  (the bounded backlog tracks the threshold: the Braginsky et al. \
     space/time dial)@.";
  List.iter
    (fun (r : Era.Ablation.hp_row) ->
      emit
        (M.row ~experiment:"E10"
           ~label:(Fmt.str "hp-threshold/%d" r.threshold)
           ~scheme:"hp" ~structure:"michael-list" ~max_backlog:r.max_backlog
           ~extra:
             [
               ("threshold", float_of_int r.threshold);
               ("slots", float_of_int r.slots);
               ("steps", float_of_int r.steps);
             ]
           ()))
    rows

let e11 () =
  section "E11 | Ablation: IBR epoch granularity vs the theorem";
  let rows =
    Era.Ablation.ibr_sweep ~rates:(if quick then [ 1; 16 ] else [ 1; 4; 16; 64 ]) ()
  in
  List.iter (fun r -> Fmt.pr "  %a@." Era.Ablation.pp_ibr_row r) rows;
  Fmt.pr
    "  (coarse epochs dodge the stock Figure 2 schedule but Figure 1 \
     defeats every@.   granularity: no tuning restores wide \
     applicability)@.";
  List.iter
    (fun (r : Era.Ablation.ibr_row) ->
      emit
        (M.row ~experiment:"E11"
           ~label:(Fmt.str "ibr-rate/%d" r.allocs_per_epoch)
           ~scheme:"ibr" ~structure:"harris-list"
           ~max_backlog:r.size_backlog
           ~note:(r.figure1 ^ "/" ^ r.figure2)
           ~extra:[ ("allocs_per_epoch", float_of_int r.allocs_per_epoch) ]
           ()))
    rows

(* ------------------------------------------------------------------ *)
(* E12: systematic exploration                                         *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section
    "E12 | Systematic exploration: bounded search rediscovers Figures 1-2";
  let module Ex = Era_explore.Explore in
  let budget = if quick then 2_000 else 20_000 in
  (* Safety cells reuse the Figure 2 setting (short churn, no bound);
     the robustness pair reruns the Figure 1 dichotomy — same workload
     and backlog bound, EBR trips the robustness horn while HP trips the
     safety horn instead. *)
  let cells =
    [
      ("hp", "safety", 14, None); ("he", "safety", 14, None);
      ("ibr", "safety", 14, None); ("ebr", "robust24", 60, Some 24);
      ("hp", "robust24", 60, Some 24);
    ]
  in
  List.iter
    (fun (name, kind, ops_per_thread, robustness_bound) ->
      if want_scheme name then
        match Era_smr.Registry.find name with
        | None -> ()
        | Some scheme ->
          let t0 = Unix.gettimeofday () in
          let config = { Ex.default_config with Ex.max_runs = budget } in
          let r =
            Era.Applicability.explore ~config ~seed:2 ~ops_per_thread
              ?robustness_bound scheme Era.Applicability.Harris
          in
          let elapsed_s = Unix.gettimeofday () -. t0 in
          let s = r.Ex.res_stats in
          let note, script_len =
            match r.Ex.res_cex with
            | Some c ->
              ( Era_sim.Event.violation_name c.Ex.c_violation.Ex.v_kind,
                List.length c.Ex.c_script )
            | None -> ("none", 0)
          in
          Fmt.pr "  %-4s %-8s %a -> %s (%d-instr script, %.0f states/s)@."
            name kind Ex.pp_stats s note script_len
            (float_of_int s.Ex.states /. Float.max elapsed_s 1e-9);
          emit
            (M.row ~experiment:"E12"
               ~label:(Fmt.str "explore/%s/%s" name kind)
               ~scheme:name ~structure:"harris-list" ~elapsed_s ~note
               ~extra:
                 [
                   ("runs", float_of_int s.Ex.runs);
                   ("states", float_of_int s.Ex.states);
                   ("pruned", float_of_int s.Ex.pruned);
                   ("shrink_runs", float_of_int s.Ex.shrink_runs);
                   ( "found_level",
                     float_of_int (Option.value s.Ex.cex_preemptions ~default:(-1))
                   ); ("script_len", float_of_int script_len);
                   ( "states_per_sec",
                     float_of_int s.Ex.states /. Float.max elapsed_s 1e-9 );
                   ("domains", float_of_int s.Ex.domains_used);
                 ]
               ()))
    cells

(* ------------------------------------------------------------------ *)
(* E13: parallel exploration scaling                                   *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13 | Parallel exploration: domains scaling sweep";
  let module Ex = Era_explore.Explore in
  let hw = Domain.recommended_domain_count () in
  Fmt.pr "  (hardware parallelism: %d domain%s recommended — speedup is \
          bounded by it)@."
    hw
    (if hw = 1 then "" else "s");
  (* Two cells per sweep: the Figure 2 target (hp — the search races to a
     violation, states/sec measures aggregate search throughput) and the
     EBR coverage cell (no violation exists, every domain count explores
     the same fixed run budget — the cleanest scaling measurement).
     Small searches are repeated so spawn overhead and timer noise
     amortize. *)
  let repeats = if quick then 3 else 6 in
  let cells =
    [
      ("hp", "figure2", None, 2_000); ("ebr", "coverage", None, 400);
    ]
  in
  let domain_counts = [ 1; 2; 4 ] in
  List.iter
    (fun (name, kind, robustness_bound, budget) ->
      if want_scheme name then
        match Era_smr.Registry.find name with
        | None -> ()
        | Some scheme ->
          let base_sps = ref 0. in
          List.iter
            (fun domains ->
              let config =
                {
                  Ex.default_config with
                  Ex.max_runs = budget;
                  domains;
                  shrink = false;
                }
              in
              let states = ref 0 in
              let runs = ref 0 in
              let found_level = ref (-1) in
              let found_kind = ref "none" in
              let replays = ref true in
              let t0 = Unix.gettimeofday () in
              for _ = 1 to repeats do
                let target =
                  Era.Applicability.explore_target ~seed:2 ?robustness_bound
                    scheme Era.Applicability.Harris
                in
                let r = Ex.explore ~config target in
                let s = r.Ex.res_stats in
                states := !states + s.Ex.states;
                runs := !runs + s.Ex.runs;
                match r.Ex.res_cex with
                | None -> ()
                | Some c ->
                  found_level :=
                    Option.value s.Ex.cex_preemptions ~default:(-1);
                  found_kind :=
                    Era_sim.Event.violation_name c.Ex.c_violation.Ex.v_kind;
                  (* Every violation a parallel search reports must
                     replay sequentially to the same violation kind. *)
                  replays :=
                    !replays
                    && (match (Ex.replay target c).Ex.rp_violation with
                       | Some v -> v.Ex.v_kind = c.Ex.c_violation.Ex.v_kind
                       | None -> false)
              done;
              let elapsed_s = Unix.gettimeofday () -. t0 in
              let sps = float_of_int !states /. Float.max elapsed_s 1e-9 in
              if domains = 1 then base_sps := sps;
              let speedup = sps /. Float.max !base_sps 1e-9 in
              Fmt.pr
                "  %-4s %-8s domains=%d  %7d runs %9d states  %9.0f \
                 states/s  speedup %.2fx  found=%s@%d  replays=%b@."
                name kind domains !runs !states sps speedup !found_kind
                !found_level !replays;
              emit
                (M.row ~experiment:"E13"
                   ~label:(Fmt.str "explore-scaling/%s/%s/d%d" name kind domains)
                   ~scheme:name ~structure:"harris-list" ~domains ~elapsed_s
                   ~note:(Fmt.str "%s@%d" !found_kind !found_level)
                   ~extra:
                     [
                       ("domains", float_of_int domains);
                       ("hw_domains", float_of_int hw);
                       ("repeats", float_of_int repeats);
                       ("runs", float_of_int !runs);
                       ("states", float_of_int !states);
                       ("states_per_sec", sps);
                       ("speedup", speedup);
                       ( "found_level", float_of_int !found_level );
                       ("replays_ok", if !replays then 1. else 0.);
                     ]
                   ()))
            domain_counts)
    cells

(* ------------------------------------------------------------------ *)
(* E15: explorer inner-loop rewrite — throughput, DPOR reduction       *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15 | Explorer rewrite: states/sec, DPOR reduction";
  let module Ex = Era_explore.Explore in
  let target () =
    Era.Applicability.explore_target ~seed:2 (Era_smr.Registry.find_exn "hp")
      Era.Applicability.Harris
  in
  (* (a) The headline single-domain throughput on the E13 hp/figure2
     cell, same methodology (shrink off, repeats amortize setup) — the
     row bench_compare gates against the committed baseline. The
     rewrite's wins are structural: children share the parent's choices
     array instead of materializing per-child prefixes (previously ~3/4
     of search time), and decision records are packed ints. *)
  let repeats = if quick then 6 else 12 in
  let config = { Ex.default_config with Ex.max_runs = 2_000; shrink = false } in
  let states = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeats do
    let r = Ex.explore ~config (target ()) in
    states := !states + r.Ex.res_stats.Ex.states
  done;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let sps = float_of_int !states /. Float.max elapsed_s 1e-9 in
  Fmt.pr "  classic d1    %9d states  %9.0f states/s@." !states sps;
  emit
    (M.row ~experiment:"E15" ~label:"explore_states_per_sec" ~scheme:"hp"
       ~structure:"harris-list" ~domains:1 ~elapsed_s
       ~extra:[ ("states_per_sec", sps); ("repeats", float_of_int repeats) ]
       ());
  (* (b) DPOR reduction on a violation-free cell (the search must
     exhaust the space, not race to a counterexample): runs needed to
     cover the bounded schedule space with and without sleep sets. The
     bound must be >= 2 for sleep sets to cut {e runs} at all: with two
     threads at bound 1 a deviation's sub-deviations are already
     preemption-bounded away, so sleeping only shortens runs (fewer
     states), never skips them. *)
  let ebr_target () =
    Era.Applicability.explore_target ~seed:2 ~ops_per_thread:5
      (Era_smr.Registry.find_exn "ebr")
      Era.Applicability.Harris
  in
  let cover dpor =
    let config =
      {
        Ex.default_config with
        Ex.max_preemptions = 2;
        max_runs = 100_000;
        shrink = false;
        dpor;
      }
    in
    let t0 = Unix.gettimeofday () in
    let r = Ex.explore ~config (ebr_target ()) in
    (r.Ex.res_stats, Unix.gettimeofday () -. t0)
  in
  let classic, classic_s = cover false in
  let dpor, dpor_s = cover true in
  let reduction =
    float_of_int classic.Ex.runs /. float_of_int (max dpor.Ex.runs 1)
  in
  let exhausted = dpor.Ex.levels_completed >= 3 in
  Fmt.pr
    "  ebr coverage (bound 2): classic %d runs %.2fs | dpor %d runs %.2fs \
     (%d sleep cuts) | reduction %.2fx%s@."
    classic.Ex.runs classic_s dpor.Ex.runs dpor_s dpor.Ex.sleep_cuts reduction
    (if exhausted then "" else "  [budget-truncated: not a coverage claim]");
  emit
    (M.row ~experiment:"E15" ~label:"dpor-reduction" ~scheme:"ebr"
       ~structure:"harris-list" ~domains:1 ~elapsed_s:(classic_s +. dpor_s)
       ~extra:
         [
           ("classic_runs", float_of_int classic.Ex.runs);
           ("dpor_runs", float_of_int dpor.Ex.runs);
           ("sleep_cuts", float_of_int dpor.Ex.sleep_cuts);
           ("reduction", reduction);
           ("exhausted", if exhausted then 1. else 0.);
         ]
       ())

(* ------------------------------------------------------------------ *)
(* E18: DEBRA+ native cost — neutralizable epochs vs plain EBR         *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18 | Native DEBRA+: neutralizable epochs vs plain EBR";
  let open Era_native.Throughput in
  let ops = Rc.ops_or cfg (if quick then 50_000 else 200_000) in
  (* DEBRA+'s fast path is N_ebr's plus two flag loads per protected
     read and a per-observer lag sweep on the amortized slow path. The
     EBR rows here are same-run baselines: the honest comparison is
     within one process on one host, not against the committed
     baseline's machine. zipf-1m-hot (short walks, per-op overhead
     dominated) is where the cost must show — the perf gate watches the
     michael+debra cell and bench_compare's relative tolerance covers
     host-to-host drift. *)
  let grid =
    [
      (`Ebr, uniform_small, 1, ops);
      (`Debra, uniform_small, 1, ops);
      (`Ebr, zipf_1m_hot, 1, ops);
      (`Debra, zipf_1m_hot, 1, ops);
      (`Ebr, zipf_1m_hot, 2, ops);
      (`Debra, zipf_1m_hot, 2, ops);
    ]
  in
  let grid =
    match cfg.Rc.domains with
    | None -> grid
    | Some n ->
      List.sort_uniq compare
        (List.map (fun (s, w, _, o) -> (s, w, n, o)) grid)
  in
  List.iter
    (fun (scheme, workload, domains, ops) ->
      if want_scheme (scheme_name scheme) then begin
        let r = e16_row Michael ~scheme ~workload ~domains ~ops_per_domain:ops in
        Fmt.pr "  %a@." pp_result r;
        emit_native "E18" "native-throughput" r
      end)
    grid;
  (* The robustness counterpart, uniform churn: the same stall that
     blows EBR's backlog up in E9 gets neutralized here, so the backlog
     row is bounded and reclamation keeps pace. *)
  let r = e9_row ~scheme:`Debra ~churn_ops:(ops / 2) () in
  Fmt.pr "  %a@." pp_result r;
  emit_native "E18" "native-backlog" r

(* ------------------------------------------------------------------ *)
(* E19: flight recorder — detached overhead + reclamation timelines    *)
(* ------------------------------------------------------------------ *)

(* The recorder-off row re-times E16's hot cell (michael+ebr,
   zipf-1m-hot) with the recorder detached: every hook is then a single
   [cap <> 0] branch on a null handle, mirroring the sim tracer's
   off-path contract, so detached throughput must stay at seed speed —
   check_perf.sh --require's that row. Recorder-on rows record the
   honest cost of full instrumentation (per-domain event rings, one
   monotonic clock pair per op for the latency histograms, and
   coordinator-sampled backlog / epoch-lag gauges); recording is
   opt-in, so those rows are informational. The stall rows put a
   timeline behind the robustness story: with domain 0 parked
   mid-operation, EBR's epoch lag and backlog climb for the stall's
   whole duration while DEBRA+'s neutralization caps both — the merged
   Perfetto trace shows the restart span the cap costs. *)
let e19 () =
  section "E19 | Flight recorder: detached overhead + stall timelines";
  let open Era_native.Throughput in
  let module Flight = Era_obs.Flight in
  let ops = Rc.ops_or cfg (if quick then 40_000 else 150_000) in
  let domains = 2 in
  let workload = zipf_1m_hot in
  ignore
    (e16_row Michael ~scheme:`Ebr ~workload ~domains
       ~ops_per_domain:(max 1 (ops / 4)));
  (* warm-up *)
  List.iter
    (fun scheme ->
      let name = scheme_name scheme in
      if want_scheme name then begin
        let off =
          e16_row Michael ~scheme ~workload ~domains ~ops_per_domain:ops
        in
        if scheme = `Ebr then
          emit
            (M.row ~experiment:"E19" ~label:"recorder_off/michael+ebr"
               ~category:"native-throughput" ~scheme:name
               ~structure:"michael-list" ~domains ~total_ops:off.total_ops
               ~elapsed_s:off.elapsed_s ~mops:off.mops
               ~max_backlog:off.max_backlog ~reclaimed:off.reclaimed
               ~retired:off.retired ~scans:off.scans ());
        let fl = Flight.create ~ndomains:domains () in
        let on =
          e16_row Michael ~flight:fl ~scheme ~workload ~domains
            ~ops_per_domain:ops
        in
        let overhead_pct =
          (off.mops -. on.mops) /. Float.max off.mops 1e-9 *. 100.
        in
        Fmt.pr "  %s: off %.3f on %.3f Mops/s  (overhead %+.1f%%, %d \
                events, %d dropped)@."
          name off.mops on.mops overhead_pct (Flight.total_events fl)
          (Flight.dropped fl);
        emit
          (M.row ~experiment:"E19" ~label:("recorder_on/michael+" ^ name)
             ~category:"observability" ~scheme:name ~structure:"michael-list"
             ~domains ~total_ops:on.total_ops ~elapsed_s:on.elapsed_s
             ~mops:on.mops ~max_backlog:on.max_backlog
             ~reclaimed:on.reclaimed ~retired:on.retired ~scans:on.scans
             ~extra:
               [
                 ("overhead_pct", overhead_pct);
                 ("events", float_of_int (Flight.total_events fl));
                 ("dropped", float_of_int (Flight.dropped fl));
               ]
             ())
      end)
    [ `Ebr; `Debra ];
  (* Reclamation-lag timelines: the recorder rides along on the E9
     stall rows; EBR vs DEBRA+ is the theorem's bounded-vs-unbounded
     contrast made visible. *)
  List.iter
    (fun scheme ->
      let name =
        scheme_name (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ])
      in
      if want_scheme name then begin
        let fl = Flight.create ~ndomains:3 () in
        let r = e9_row ~flight:fl ~scheme ~churn_ops:ops () in
        Fmt.pr "  %a  (%d flight events)@." pp_result r
          (Flight.total_events fl);
        emit
          (M.row ~experiment:"E19" ~label:("timeline/" ^ r.label)
             ~category:"native-backlog" ~scheme:name
             ~structure:"michael-list" ~domains:r.domains
             ~total_ops:r.total_ops ~elapsed_s:r.elapsed_s
             ~max_backlog:r.max_backlog ~reclaimed:r.reclaimed
             ~retired:r.retired ~scans:r.scans
             ~extra:
               [
                 ("events", float_of_int (Flight.total_events fl));
                 ("dropped", float_of_int (Flight.dropped fl));
               ]
             ())
      end)
    [ `Ebr; `Debra ]

(* ------------------------------------------------------------------ *)
(* E17: era_serve under load — admission, shedding, saturation         *)
(* ------------------------------------------------------------------ *)

(* Boots a real daemon (socket, accept thread, executor domains) in this
   process and drives it with the non-blocking load generator, exactly
   the way bin/era_load.exe does from outside. Two operating points:

   - under-capacity: the queue never fills, so shed MUST be 0 and every
     job must be served — an absolute correctness row, not a tuning one;
   - saturation: far more offered load than 2 workers can serve, small
     admission caps. The interesting numbers are admit throughput
     (responses/s — the daemon keeps answering even while saturated),
     shed counts, in-flight peak, and admit latency percentiles. The
     E17/saturation row is --require'd by check_perf.sh: lost must be 0
     at full saturation or the run fails.

   Probe service time is deterministic spin, so the rows are stable
   enough to gate on their invariants (lost = 0, shed = 0 under
   capacity) while throughput remains machine-dependent telemetry. *)
let e17 () =
  section "E17 | era_serve: load, shedding, saturation";
  let module Daemon = Era_serve.Daemon in
  let module Load = Era_serve.Load in
  let module Job = Era_serve.Job in
  let dir = Filename.temp_file "era_e17" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  let point ~label ~global_cap ~tenant_cap ~conns ~pipeline ~requests ~spin =
    let socket = Filename.concat dir (label ^ ".sock") in
    let d =
      Daemon.start
        {
          Daemon.socket_path = socket; workers = 2; global_cap; tenant_cap;
          store_dir = Filename.concat dir (label ^ "_store");
        }
    in
    let r =
      match
        Load.run
          {
            Load.socket; conns; pipeline; requests; tenants = 4;
            kind = Job.Probe { spin }; drain_timeout_s = 120.;
          }
      with
      | Ok r -> r
      | Error e -> failwith ("E17 " ^ label ^ ": " ^ e)
    in
    Daemon.stop d;
    (* the shutdown job-table dump is a runtime dropping, not a result *)
    let dump =
      Fmt.str "jobs_%s.json"
        (Filename.remove_extension (Filename.basename socket))
    in
    if Sys.file_exists dump then Sys.remove dump;
    let rps =
      float_of_int r.Load.responded /. Float.max r.Load.submit_elapsed_s 1e-9
    in
    Fmt.pr
      "  %-14s %5d reqs  admitted %5d  shed %5d  lost %d  peak %4d \
       in-flight  %6.0f admit/s  p50 %.1f ms  p99 %.1f ms@."
      label r.Load.submitted r.Load.admitted r.Load.shed r.Load.lost
      r.Load.inflight_peak rps
      (r.Load.admit_p50_us /. 1e3)
      (r.Load.admit_p99_us /. 1e3);
    emit
      (M.row ~experiment:"E17" ~label ~category:"serve" ~domains:conns
         ~total_ops:r.Load.submitted ~elapsed_s:r.Load.submit_elapsed_s
         ~note:(if r.Load.lost = 0 && r.Load.errors = 0 then "clean"
                else "LOST JOBS")
         ~extra:
           [
             ("admitted", float_of_int r.Load.admitted);
             ("shed", float_of_int r.Load.shed);
             ("errors", float_of_int r.Load.errors);
             ("lost", float_of_int r.Load.lost);
             ("served", float_of_int r.Load.served);
             ("inflight_peak", float_of_int r.Load.inflight_peak);
             ("inflight_mean", r.Load.inflight_mean);
             ("admit_rps", rps);
             ("admit_p50_us", r.Load.admit_p50_us);
             ("admit_p99_us", r.Load.admit_p99_us);
             ("drain_s", r.Load.drain_s);
           ]
         ());
    r
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let under =
        point ~label:"under-capacity" ~global_cap:4096 ~tenant_cap:2048
          ~conns:16 ~pipeline:4
          ~requests:(if quick then 400 else 1200)
          ~spin:100
      in
      if under.Load.shed <> 0 then
        failwith "E17: shed under capacity must be 0";
      if under.Load.lost <> 0 || under.Load.errors <> 0 then
        failwith "E17: lost jobs under capacity";
      let sat =
        point ~label:"saturation" ~global_cap:256 ~tenant_cap:64 ~conns:128
          ~pipeline:16
          ~requests:(if quick then 4_000 else 8_000)
          ~spin:2_000
      in
      if sat.Load.lost <> 0 || sat.Load.errors <> 0 then
        failwith "E17: lost jobs at saturation";
      if sat.Load.inflight_peak < 1_000 then
        failwith "E17: saturation never reached 1000 concurrent requests")

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let run_bechamel ~experiment test =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 0.5))
      ()
  in
  let raw = Benchmark.all cfg instances test in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) res []
  |> List.sort compare
  |> List.iter (fun (name, r) ->
         match Analyze.OLS.estimates r with
         | Some [ t ] ->
           Fmt.pr "  %-44s %12.1f ns/op%s@." name t
             (match Analyze.OLS.r_square r with
             | Some r2 -> Fmt.str "   (r² %.3f)" r2
             | None -> "");
           emit
             (M.row ~experiment ~label:name ~category:"microbench"
                ~extra:[ ("ns_per_op", t) ]
                ())
         | _ -> Fmt.pr "  %-44s (no estimate)@." name)

(* B1: simulated per-operation cost of each scheme's read path. *)
let b1_sim_read_cost () =
  section "B1 | Simulated contains() cost per scheme (list of 64 keys)";
  let make_one (module S : Era_smr.Smr_intf.S) =
    let mon = Era_sim.Monitor.create ~mode:`Record ~trace:false () in
    let heap = Era_sim.Heap.create mon in
    let sched = Sched.create ~nthreads:1 Sched.Round_robin heap in
    let module L = Era_sets.Harris_list.Make (S) in
    let g = S.create heap ~nthreads:1 in
    let ext = Sched.external_ctx sched ~tid:0 in
    let dl = L.create ext g in
    let h = L.handle dl ext in
    for k = 1 to 64 do
      ignore (L.insert h k)
    done;
    let i = ref 0 in
    Test.make ~name:("sim-contains/" ^ S.name)
      (Staged.stage (fun () ->
           incr i;
           ignore (L.contains h (1 + (!i mod 64)))))
  in
  run_bechamel ~experiment:"B1"
    (Test.make_grouped ~name:"sim-contains"
       (List.map make_one Era_smr.Registry.all))

(* B2: simulated alloc/retire/reclaim cycle per scheme. *)
let b2_sim_lifecycle_cost () =
  section "B2 | Simulated alloc+retire cycle per scheme";
  let make_one (module S : Era_smr.Smr_intf.S) =
    let mon = Era_sim.Monitor.create ~mode:`Record ~trace:false () in
    let heap = Era_sim.Heap.create mon in
    let sched = Sched.create ~nthreads:1 Sched.Round_robin heap in
    let g = S.create heap ~nthreads:1 in
    let t = S.thread g (Sched.external_ctx sched ~tid:0) in
    Test.make ~name:("sim-alloc-retire/" ^ S.name)
      (Staged.stage (fun () ->
           S.with_op t (fun () ->
               let w = S.alloc t ~key:1 in
               S.retire t w)))
  in
  run_bechamel ~experiment:"B2"
    (Test.make_grouped ~name:"sim-alloc-retire"
       (List.map make_one Era_smr.Registry.all))

(* B3: native read cost: the real price of HP's protect-validate. *)
let b3_native_read_cost () =
  section "B3 | Native contains() cost (Michael list of 256 keys)";
  let tests =
    let make (type a) name (module S : Era_native.Nsmr.S with type t = a) =
      let module L = Era_native.N_michael.Make (S) in
      let g = S.create ~ndomains:1 in
      let s = S.thread g 0 in
      let l = L.create () in
      for k = 1 to 256 do
        ignore (L.insert l s k)
      done;
      let i = ref 0 in
      Test.make ~name:("native-contains/" ^ name)
        (Staged.stage (fun () ->
             incr i;
             ignore (L.contains l s (1 + (!i mod 256)))))
    in
    [
      make "none" (module Era_native.N_none);
      make "ebr" (module Era_native.N_ebr);
      make "hp" (module Era_native.N_hp);
      make "ibr" (module Era_native.N_ibr);
    ]
  in
  run_bechamel ~experiment:"B3"
    (Test.make_grouped ~name:"native-contains" tests)

(* B4: linearizability checker scaling in history length. *)
let b4_checker_scaling () =
  section "B4 | Linearizability checker cost vs history length";
  let history_of_length n =
    (* A width-2 concurrent history generated from a real run. *)
    let mon = Era_sim.Monitor.create ~mode:`Raise ~trace:true () in
    let heap = Era_sim.Heap.create mon in
    let sched =
      Sched.create ~nthreads:2 (Sched.Random (Era_sim.Rng.create 5)) heap
    in
    let module L = Era_sets.Harris_list.Make (Era_smr.Ebr) in
    let g = Era_smr.Ebr.create heap ~nthreads:2 in
    let ext = Sched.external_ctx sched ~tid:0 in
    let dl = L.create ext g in
    for tid = 0 to 1 do
      Sched.spawn sched ~tid (fun ctx ->
          let ops = L.ops (L.handle dl ctx) ~record:true in
          Era_workload.Workload.run_set_ops ops
            (Era_sim.Rng.create (tid + 3))
            ~ops:(n / 2)
            ~keys:(Era_workload.Workload.Uniform 6)
            ~mix:Era_workload.Workload.balanced)
    done;
    ignore (Sched.run sched);
    Era_history.History.of_monitor mon
  in
  let tests =
    List.map
      (fun n ->
        let h = history_of_length n in
        Test.make ~name:(Fmt.str "linearize/%d-ops" n)
          (Staged.stage (fun () ->
               ignore
                 (Era_history.Linearize.check
                    (module Era_history.Spec.Int_set)
                    h))))
      [ 16; 32; 64; 128 ]
  in
  run_bechamel ~experiment:"B4" (Test.make_grouped ~name:"linearize" tests)

(* B6: observability overhead. The tracer-off run re-times the seeded
   Figure 1/2 simulations with no tracer attached — the disabled path
   must stay at seed speed, so that row is emitted as "suite-timing" and
   gated by bench_compare (check_perf.sh additionally --require's it, so
   silently dropping the experiment can't pass the gate). The tracer-on
   run records the honest cost of full instrumentation; tracing is
   opt-in, so that row is informational, not gated. *)
let b6_trace_overhead () =
  section "B6 | Trace overhead: tracer-off must stay at seed speed";
  let rounds = if quick then 128 else 512 in
  let reps = if quick then 3 else 6 in
  let workload tracer () =
    List.iter
      (fun s ->
        ignore (Era.Figure1.run ?tracer ~rounds s);
        ignore (Era.Figure2.run ?tracer s))
      Era_smr.Registry.all
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time (workload None));
  (* warm-up *)
  let off_s = time (workload None) in
  let tr = Era_obs.Tracer.create ~capacity:(1 lsl 16) () in
  let on_s = time (workload (Some tr)) in
  let overhead_pct = (on_s -. off_s) /. Float.max off_s 1e-9 *. 100. in
  Fmt.pr "  tracer off: %.3f s   tracer on: %.3f s   overhead %+.1f%%@."
    off_s on_s overhead_pct;
  Fmt.pr "  (%d trace events captured, %d dropped by the ring)@."
    (Era_obs.Tracer.length tr)
    (Era_obs.Tracer.dropped tr);
  emit
    (M.row ~experiment:"B6" ~label:"trace_off_overhead"
       ~category:"suite-timing" ~elapsed_s:off_s ());
  emit
    (M.row ~experiment:"B6" ~label:"trace_on" ~category:"observability"
       ~elapsed_s:on_s
       ~extra:
         [
           ("overhead_pct", overhead_pct);
           ("events", float_of_int (Era_obs.Tracer.length tr));
           ("dropped", float_of_int (Era_obs.Tracer.dropped tr));
         ]
       ())

(* B5: scheduler quantum overhead. *)
let b5_scheduler_overhead () =
  section "B5 | Scheduler cost per quantum (fiber suspend/resume)";
  let test =
    Test.make ~name:"sched/quantum"
      (Staged.stage (fun () ->
           let mon = Era_sim.Monitor.create ~mode:`Record ~trace:false () in
           let heap = Era_sim.Heap.create mon in
           let sched = Sched.create ~nthreads:2 Sched.Round_robin heap in
           for tid = 0 to 1 do
             Sched.spawn sched ~tid (fun ctx ->
                 for _ = 1 to 50 do
                   Sched.yield ctx
                 done)
           done;
           ignore (Sched.run sched)))
  in
  Fmt.pr "  (one run = 2 fibers x 50 yields + setup)@.";
  run_bechamel ~experiment:"B5" test

let () =
  Fmt.pr
    "ERA theorem reproduction — experiment and benchmark harness%s@."
    (if quick then " (quick mode)" else "");
  let experiments =
    [
      ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5);
      ("E6", e6); ("E7", e7); ("E8", e8); ("E8b", e8b); ("E9", e9);
      ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13); ("E15", e15);
      ("E16", e16); ("E17", e17); ("E18", e18); ("E19", e19);
      ("B1", b1_sim_read_cost); ("B2", b2_sim_lifecycle_cost);
      ("B3", b3_native_read_cost); ("B4", b4_checker_scaling);
      ("B5", b5_scheduler_overhead); ("B6", b6_trace_overhead);
    ]
  in
  (* Each experiment gets a wall-clock "suite-timing" row, plus one
     SUITE/total row for the whole run — the series bench_compare gates
     so that hot-path regressions in the simulator itself show up even
     when every individual figure still comes out right. *)
  let suite_t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, run) ->
      if want id then begin
        let t0 = Unix.gettimeofday () in
        run ();
        let elapsed_s = Unix.gettimeofday () -. t0 in
        (* E17's wall clock is dominated by deliberate queueing delay
           (saturation latency) and OS thread scheduling, so it flaps
           far beyond the suite tolerance; its correctness invariants
           are enforced in-process (lost = 0, shed = 0 under capacity)
           and its rows are --require'd, so the timing row is
           informational only. *)
        let category = if id = "E17" then "serve" else "suite-timing" in
        emit (M.row ~experiment:id ~label:"suite" ~category ~elapsed_s ())
      end)
    experiments;
  let total_s = Unix.gettimeofday () -. suite_t0 in
  emit
    (M.row ~experiment:"SUITE" ~label:"total" ~category:"suite-timing"
       ~elapsed_s:total_s ());
  Fmt.pr "@.suite wall clock: %.2f s@." total_s;
  let path = Rc.default_json_path cfg in
  let n = M.flush sink ~mode:(Rc.mode cfg) ~path in
  Fmt.pr "@.wrote %d metric rows to %s@." n path;
  Fmt.pr "@.done.@."
