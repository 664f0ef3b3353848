(* The benchmark's definition: its workloads and every metric it
   reports, with unit, direction and regression bound. [main.exe
   --write-manifest] renders this as BENCHMARK.json, and a run's output
   is checked against it, so the two cannot drift apart. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening, share of median *)
}

type workload = { wname : string; native : Native_leg.spec; why : string }

let run_seconds = 50

let workloads =
  [
    { wname = "zipf"; native = Native_leg.zipf;
      why =
        "native-zipf (short hot-key walks: SMR barrier and harness dominate) \
         + explore-cover + serve-mix; serve completion polled every 0.25 ms" };
    { wname = "churn"; native = Native_leg.churn;
      why =
        "native-churn (64 keys, all updates: alloc, retire, limbo bags, epoch \
         advance, CAS contention) + explore-cover + serve-mix" };
  ]

let e2e name unit_ better bound = { name; unit_; better; bound }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MiB" Lower 0.1;
    e2e "mops" "Mops/s" Higher 0.25;
    e2e "verdict_s" "s" Lower 0.25;
    e2e "verdict_2d_s" "s" Lower 0.25;
    e2e "job_p50_ms" "ms" Lower 0.25;
    e2e "job_p90_ms" "ms" Lower 0.25;
  ]

let layer name unit_ better = { name; unit_; better; bound = 0. }

let per_layer =
  [
    layer "throughput.harness_ns_per_op" "ns" Lower;
    layer "n_michael.op_ns" "ns" Lower;
    layer "n_michael.self_ns_per_op" "ns" Lower;
    layer "n_michael.success_ratio" "ratio" Higher;
    layer "n_ebr.ns_per_op" "ns" Lower;
    layer "n_ebr.read_link_per_op" "count" Lower;
    layer "n_ebr.alloc_per_op" "count" Lower;
    layer "n_ebr.retire_per_op" "count" Lower;
    layer "n_ebr.scans_per_kop" "count" Lower;
    layer "n_ebr.reclaim_ratio" "ratio" Higher;
    layer "n_ebr.max_backlog" "count" Lower;
    layer "explore.runs" "count" Lower;
    layer "explore.states" "count" Lower;
    layer "explore.pruned" "count" Higher;
    layer "explore.prune_ratio" "ratio" Higher;
    layer "explore.make_ms" "ms" Lower;
    layer "explore.pick_ms" "ms" Lower;
    layer "explore.exec_ms" "ms" Lower;
    layer "explore.states_per_s" "1/s" Higher;
    layer "explore.domain_runs_max_share" "ratio" Lower;
    layer "serve.jobs" "count" Higher;
    layer "client.submit_ms" "ms" Lower;
    layer "fair_queue.wait_ms" "ms" Lower;
    layer "executor.exec_ms" "ms" Lower;
    layer "executor.explore_ms" "ms" Lower;
    layer "store.write_ms" "ms" Lower;
    layer "store.write_ms_last10" "ms" Lower;
    layer "store.entries" "count" Lower;
    layer "daemon.notify_ms" "ms" Lower;
    layer "load.lag_ms" "ms" Lower;
    layer "trace.overhead_pct" "%" Lower;
    layer "trace.overhead_pct.native" "%" Lower;
    layer "trace.overhead_pct.explore" "%" Lower;
  ]

let find_workload name = List.find_opt (fun w -> w.wname = name) workloads

module J = Era_metrics.Json

let better_name = function Lower -> "lower" | Higher -> "higher"

let manifest () =
  let m ~bound x =
    J.Obj
      ([ ("name", J.String x.name); ("unit", J.String x.unit_);
         ("better", J.String (better_name x.better)) ]
      @ if bound then [ ("bound", J.Float x.bound) ] else [])
  in
  J.Obj
    [
      ("command", J.List [ J.String "python3"; J.String "perfbench/run.py" ]);
      ("paths", J.List [ J.String "perfbench" ]);
      ("run_seconds", J.Int run_seconds);
      ( "workloads",
        J.List
          (List.map
             (fun w -> J.Obj [ ("name", J.String w.wname); ("why", J.String w.why) ])
             workloads) );
      ("end_to_end", J.List (List.map (m ~bound:true) end_to_end));
      ("per_layer", J.List (List.map (m ~bound:false) per_layer));
    ]
