(* Observability layer (lib/obs): tracer ring semantics, Chrome
   trace-event JSON shape (golden-checked against a committed Perfetto
   trace of the Figure 2 HP run), metrics-registry round-trips, the
   hook-vs-trace event-count invariant, and explore heartbeat totals. *)

module Tracer = Era_obs.Tracer
module Registry = Era_obs.Registry
module Flight = Era_obs.Flight
module Sim_trace = Era_obs.Sim_trace
module Json = Era_metrics.Json
module Monitor = Era_sim.Monitor
module Event = Era_sim.Event
module Sched = Era_sched.Sched
module Ex = Era_explore.Explore
module App = Era.Applicability

let scheme name =
  match Era_smr.Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scheme %s" name

let parse_json s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "invalid JSON: %s" e

let trace_events j =
  match Option.bind (Json.member "traceEvents" j) Json.to_list with
  | Some evs -> evs
  | None -> Alcotest.fail "missing traceEvents array"

let ph e = Option.bind (Json.member "ph" e) Json.to_str
let str_field k e = Option.bind (Json.member k e) Json.to_str
let int_field k e = Option.bind (Json.member k e) Json.to_int

(* ------------------------------------------------------------------ *)
(* Tracer ring buffer                                                  *)
(* ------------------------------------------------------------------ *)

let test_ring_overflow () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 1 to 6 do
    Tracer.instant tr ~ts:i ~tid:0 ~cat:"t" (Fmt.str "e%d" i)
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Tracer.length tr);
  Alcotest.(check int) "two oldest dropped" 2 (Tracer.dropped tr);
  let j = Tracer.to_json tr in
  let names =
    List.filter_map
      (fun e -> if ph e = Some "i" then str_field "name" e else None)
      (trace_events j)
  in
  Alcotest.(check (list string))
    "survivors are the newest, in order"
    [ "e3"; "e4"; "e5"; "e6" ] names;
  match Option.bind (Json.member "droppedEvents" j) Json.to_int with
  | Some 2 -> ()
  | other ->
    Alcotest.failf "droppedEvents = %s"
      (match other with Some n -> string_of_int n | None -> "absent")

let test_ring_no_drop () =
  let tr = Tracer.create ~capacity:8 () in
  Tracer.begin_span tr ~ts:1 ~tid:3 ~cat:"op" "insert";
  Tracer.end_span tr ~ts:5 ~tid:3;
  Tracer.counter tr ~ts:2 "nodes" [ ("active", 7); ("retired", 1) ];
  Alcotest.(check int) "length" 3 (Tracer.length tr);
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped tr);
  let j = Tracer.to_json tr in
  Alcotest.(check bool)
    "complete traces omit droppedEvents" true
    (Json.member "droppedEvents" j = None);
  (* Export preserves insertion order (chronological for producers). *)
  let phs = List.filter_map ph (trace_events j) in
  Alcotest.(check (list string)) "phases in order" [ "B"; "E"; "C" ] phs

(* The boundary case: a ring filled to exactly its capacity is still a
   complete trace; the very next event starts the overwrite count. *)
let test_ring_wrap_exact () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 1 to 4 do
    Tracer.instant tr ~ts:i ~tid:0 ~cat:"t" (Fmt.str "e%d" i)
  done;
  Alcotest.(check int) "full to the brim" 4 (Tracer.length tr);
  Alcotest.(check int) "exactly full drops nothing" 0 (Tracer.dropped tr);
  Alcotest.(check bool)
    "still a complete trace" true
    (Json.member "droppedEvents" (Tracer.to_json tr) = None);
  Tracer.instant tr ~ts:5 ~tid:0 ~cat:"t" "e5";
  Alcotest.(check int) "length still capped" 4 (Tracer.length tr);
  Alcotest.(check int) "one past capacity = one drop" 1 (Tracer.dropped tr);
  let names =
    List.filter_map
      (fun e -> if ph e = Some "i" then str_field "name" e else None)
      (trace_events (Tracer.to_json tr))
  in
  Alcotest.(check (list string))
    "oldest evicted first" [ "e2"; "e3"; "e4"; "e5" ] names

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_round_trip () =
  let r = Registry.create () in
  let c = Registry.counter r "ops" ~labels:[ ("scheme", "hp") ] in
  Registry.add c 41;
  Registry.incr c;
  Registry.set (Registry.gauge r "occupancy") 0.75;
  let h = Registry.histogram r "backlog" in
  List.iter (Registry.observe h) [ 0; 1; 2; 3; 900 ];
  let snap = Registry.snapshot r in
  let json = parse_json (Registry.to_string r) in
  (match Registry.metrics_of_json json with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded ->
    Alcotest.(check bool) "snapshot round-trips" true (decoded = snap));
  match Registry.find r "ops" ~labels:[ ("scheme", "hp") ] with
  | Some { Registry.value = Registry.Counter 42; _ } -> ()
  | _ -> Alcotest.fail "labelled counter lookup"

let test_registry_dedup_and_kinds () =
  let r = Registry.create () in
  let a = Registry.counter r "n" in
  let b = Registry.counter r "n" in
  Registry.incr a;
  Registry.incr b;
  Alcotest.(check int) "same instrument" 2 (Registry.value a);
  (* Same name under different labels is a distinct instrument... *)
  let c = Registry.counter r "n" ~labels:[ ("d", "1") ] in
  Alcotest.(check int) "distinct under labels" 0 (Registry.value c);
  (* ...but re-registering under a different kind is a bug. *)
  match Registry.gauge r "n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_histogram_buckets () =
  let r = Registry.create () in
  let h = Registry.histogram r "h" in
  (* bucket b covers 2^(b-1) <= v < 2^b; v <= 0 lands in bucket 0 *)
  List.iter (Registry.observe h) [ -5; 0; 1; 2; 3; 4; 7; 8 ];
  match Registry.find r "h" with
  | Some { Registry.value = Registry.Histogram { count; sum; buckets }; _ } ->
    Alcotest.(check int) "count" 8 count;
    Alcotest.(check int) "sum" 20 sum;
    Alcotest.(check (list (pair int int)))
      "log2 buckets"
      [ (0, 2); (1, 1); (2, 2); (3, 2); (4, 1) ]
      buckets
  | _ -> Alcotest.fail "histogram lookup"

(* Labelled histograms survive the JSON round-trip even though the
   export carries derived p50/p90/p99 fields the decoder must ignore. *)
let test_histogram_json_labels () =
  let r = Registry.create () in
  let labels = [ ("scheme", "debra"); ("op", "add") ] in
  let h = Registry.histogram r "native_op_latency_ns" ~labels in
  List.iter (Registry.observe h) [ 120; 250; 300; 4_000; 65_000 ];
  let json = parse_json (Registry.to_string r) in
  (* The export carries the derived quantiles... *)
  let exported =
    match Option.bind (Json.member "metrics" json) Json.to_list with
    | Some [ m ] -> m
    | _ -> Alcotest.fail "expected exactly one exported metric"
  in
  List.iter
    (fun q ->
      Alcotest.(check bool) (q ^ " exported") true
        (Json.member q exported <> None))
    [ "p50"; "p90"; "p99" ];
  (* ...and the decode ignores them, reconstructing the exact metric. *)
  match Registry.metrics_of_json json with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok [ m ] ->
    Alcotest.(check string) "name" "native_op_latency_ns" m.Registry.name;
    Alcotest.(check (list (pair string string))) "labels" labels m.labels;
    (match m.Registry.value with
    | Registry.Histogram { count; sum; buckets } ->
      Alcotest.(check int) "count" 5 count;
      Alcotest.(check int) "sum" 69_670 sum;
      Alcotest.(check (list (pair int int)))
        "buckets"
        [ (7, 1); (8, 1); (9, 1); (12, 1); (16, 1) ]
        buckets
    | _ -> Alcotest.fail "expected a histogram")
  | Ok ms -> Alcotest.failf "expected one metric, decoded %d" (List.length ms)

(* The quantile estimator interpolates linearly inside a log2 bucket
   [2^(b-1), 2^b), so hand-built buckets have closed-form answers. *)
let test_estimate_quantile () =
  let est = Registry.estimate_quantile in
  let hist count buckets = Registry.Histogram { count; sum = 0; buckets } in
  let check name want got =
    match got with
    | Some v -> Alcotest.(check (float 1e-9)) name want v
    | None -> Alcotest.failf "%s: no estimate" name
  in
  (* All mass in bucket 3 = [4, 8): quantiles sweep the bucket. *)
  let one = hist 4 [ (3, 4) ] in
  check "p0 at bucket floor" 4.0 (est one 0.0);
  check "p50 mid-bucket" 6.0 (est one 0.5);
  check "p100 at bucket ceiling" 8.0 (est one 1.0);
  (* Mass split across buckets: rank walks the cumulative counts. *)
  let split = hist 4 [ (1, 1); (2, 1); (4, 2) ] in
  check "p50 lands at bucket 2's ceiling" 4.0 (est split 0.5);
  check "p99 interpolates inside bucket 4" 15.84 (est split 0.99);
  (* Out-of-range q clamps rather than failing. *)
  check "q > 1 clamps" 16.0 (est split 1.5);
  (* Non-histograms and empty histograms estimate nothing. *)
  Alcotest.(check bool) "counter" true (est (Registry.Counter 9) 0.5 = None);
  Alcotest.(check bool) "empty" true (est (hist 0 []) 0.5 = None)

(* ------------------------------------------------------------------ *)
(* Figure 2 HP: golden Perfetto trace                                  *)
(* ------------------------------------------------------------------ *)

let figure2_hp_trace () =
  let tr = Tracer.create () in
  let r = Era.Figure2.run ~tracer:tr (scheme "hp") in
  (match r.Era.Figure2.outcome with
  | Era.Figure2.Unsafe _ -> ()
  | _ -> Alcotest.fail "figure2 hp should be unsafe");
  tr

let test_figure2_hp_golden () =
  let got = Tracer.to_string (figure2_hp_trace ()) in
  let ic = open_in_bin "golden/figure2_hp_trace.json" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if got <> want then
    Alcotest.failf
      "trace differs from golden (got %d bytes, want %d) — if the change \
       is intentional, regenerate with:\n\
      \  dune exec bin/era_cli.exe -- trace figure2 --scheme hp \
       --out test/golden/figure2_hp_trace.json"
      (String.length got) (String.length want)

let test_figure2_hp_schema () =
  let tr = figure2_hp_trace () in
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped tr);
  let j = Tracer.to_json tr in
  let evs = trace_events j in
  (* Metadata names the process and every track, and comes first. *)
  (match evs with
  | m :: _ when ph m = Some "M" -> ()
  | _ -> Alcotest.fail "metadata events must lead");
  let thread_names =
    List.filter_map
      (fun e ->
        if ph e = Some "M" && str_field "name" e = Some "thread_name" then
          Option.bind (Json.member "args" e) (str_field "name")
        else None)
      evs
  in
  Alcotest.(check bool)
    "stalling inserter track is named" true
    (List.mem "T1 insert(58) [stalls]" thread_names);
  (* The paper's violation: a stale value used by the stalled inserter —
     an instant on the faulting thread's track (tid 0). *)
  let violations =
    List.filter
      (fun e ->
        ph e = Some "i" && str_field "cat" e = Some "violation"
        && str_field "name" e = Some "stale-value-used")
      evs
  in
  Alcotest.(check bool) "violation instant present" true (violations <> []);
  List.iter
    (fun v ->
      Alcotest.(check (option int)) "on the faulting track" (Some 0)
        (int_field "tid" v))
    violations;
  (* Timestamps are the monitor step clock: monotone per track for the
     event-stream phases. (Quantum "X" spans are excluded — they are
     recorded when the quantum {e closes} but stamped with its start.) *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match (ph e, int_field "tid" e, int_field "ts" e) with
      | Some ("i" | "B" | "E"), Some tid, Some ts ->
        let prev = Option.value (Hashtbl.find_opt tbl tid) ~default:(-1) in
        Alcotest.(check bool) "per-track ts monotone" true (ts >= prev);
        Hashtbl.replace tbl tid ts
      | _ -> ())
    evs

let test_figure2_hp_deterministic () =
  let a = Tracer.to_string (figure2_hp_trace ()) in
  let b = Tracer.to_string (figure2_hp_trace ()) in
  Alcotest.(check bool) "two runs, identical bytes" true (a = b)

(* ------------------------------------------------------------------ *)
(* Hook/trace equivalence                                              *)
(* ------------------------------------------------------------------ *)

(* Every monitor event renders as exactly one instant/begin/end trace
   event (counter samples ride alongside), so the tracer's i/B/E count
   must equal the number of hook dispatches — and the monitor's step
   clock, since both subscriptions span the whole execution. *)
let test_hook_vs_trace_counts () =
  let mon = Monitor.create ~mode:`Record ~trace:false () in
  let heap = Era_sim.Heap.create mon in
  let sched = Sched.create ~nthreads:2 (Sched.Random (Era_sim.Rng.create 7)) heap in
  let tr = Tracer.create ~capacity:(1 lsl 18) () in
  let hook_calls = ref 0 in
  Monitor.subscribe mon (fun _ _ -> incr hook_calls);
  let detach = Sim_trace.attach tr mon in
  Sim_trace.attach_sched tr sched;
  let module L = Era_sets.Harris_list.Make (Era_smr.Ebr) in
  let g = Era_smr.Ebr.create heap ~nthreads:2 in
  let dl = L.create (Sched.external_ctx sched ~tid:0) g in
  for tid = 0 to 1 do
    Sched.spawn sched ~tid (fun ctx ->
        let ops = L.ops (L.handle dl ctx) ~record:true in
        Era_workload.Workload.run_set_ops ops
          (Era_sim.Rng.create (tid + 11))
          ~ops:40
          ~keys:(Era_workload.Workload.Uniform 8)
          ~mix:Era_workload.Workload.balanced)
  done;
  ignore (Sched.run sched);
  detach ();
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped tr);
  let evs = trace_events (Tracer.to_json tr) in
  let dispatched =
    List.length
      (List.filter
         (fun e -> match ph e with
           | Some ("i" | "B" | "E") -> true
           | _ -> false)
         evs)
  in
  Alcotest.(check int) "hook count = traced event count" !hook_calls
    dispatched;
  Alcotest.(check int) "= monitor step clock" (Monitor.time mon) dispatched;
  (* Quantum spans came from the scheduler hook, not the monitor. *)
  let quanta =
    List.length (List.filter (fun e -> ph e = Some "X") evs)
  in
  Alcotest.(check bool) "quantum spans present" true (quanta > 0)

(* Attaching a tracer must not perturb the schedule: the step clock
   advances identically whether events take the fast path or the
   subscribed path. *)
let test_trace_does_not_perturb () =
  let run tracer =
    let r = Era.Figure2.run ?tracer (scheme "hp") in
    match r.Era.Figure2.outcome with
    | Era.Figure2.Unsafe v -> Fmt.str "%a" Event.pp v
    | Era.Figure2.Safe_completion _ -> "safe"
  in
  let traced = run (Some (Tracer.create ())) in
  let untraced = run None in
  Alcotest.(check string) "same violation either way" untraced traced

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* The detached recorder is the zero-cost configuration: every handle
   is the null handle, recording is a no-op, and the merge is empty. *)
let test_flight_detached () =
  let t = Flight.null in
  Alcotest.(check bool) "inactive" false (Flight.active t);
  let h = Flight.handle t 0 in
  Alcotest.(check bool) "null handle" false (Flight.recording h);
  Alcotest.(check bool)
    "coordinator is null too" false
    (Flight.recording (Flight.coordinator t));
  Flight.retire h;
  Flight.backlog h ~domain:0 42;
  Flight.observe_op h Flight.op_add 1_000;
  Alcotest.(check int) "nothing buffered" 0 (Flight.total_events t);
  Alcotest.(check int) "nothing dropped" 0 (Flight.dropped t);
  Alcotest.(check int) "empty merge" 0 (Tracer.length (Flight.to_tracer t));
  let r = Registry.create () in
  Flight.to_registry t r;
  Alcotest.(check bool) "no metrics published" true (Registry.snapshot r = [])

(* Per-ring wrap accounting mirrors the tracer's: exactly full is
   complete, the next record starts the drop count, and out-of-range
   handles degrade to the null handle instead of failing. *)
let test_flight_ring_wrap () =
  let t = Flight.create ~capacity:4 ~ndomains:1 () in
  let h = Flight.handle t 0 in
  Alcotest.(check bool) "live handle" true (Flight.recording h);
  for _ = 1 to 4 do
    Flight.retire h
  done;
  Alcotest.(check int) "exactly full" 4 (Flight.total_events t);
  Alcotest.(check int) "exactly full drops nothing" 0 (Flight.dropped t);
  Flight.retire h;
  Flight.retire h;
  Alcotest.(check int) "still holds capacity" 4 (Flight.total_events t);
  Alcotest.(check int) "two overwritten" 2 (Flight.dropped t);
  Alcotest.(check bool)
    "out-of-range domain gets the null handle" false
    (Flight.recording (Flight.handle t 99))

(* Hand-drive a two-domain recorder and check the merged Perfetto
   shape: lifecycle instants and restart/stall spans land on per-domain
   tracks, gauge samples become named counter tracks, and the latency
   histograms publish with an op label. *)
let test_flight_merge_shape () =
  let t = Flight.create ~capacity:64 ~ndomains:2 () in
  let h0 = Flight.handle t 0 and h1 = Flight.handle t 1 in
  Flight.retire h0;
  Flight.restart_begin h0;
  Flight.restart_end h0;
  Flight.stall_begin h1;
  Flight.stall_end h1;
  let c = Flight.coordinator t in
  Flight.backlog c ~domain:0 5;
  Flight.epoch_lag c ~domain:1 2;
  Flight.observe_op h0 Flight.op_add 300;
  Alcotest.(check int) "all events buffered" 7 (Flight.total_events t);
  let evs = trace_events (Tracer.to_json (Flight.to_tracer t)) in
  let find want_ph want_name =
    List.filter
      (fun e -> ph e = Some want_ph && str_field "name" e = Some want_name)
      evs
  in
  (match find "i" "retire" with
  | [ e ] ->
    Alcotest.(check (option int)) "retire on D0's track" (Some 0)
      (int_field "tid" e)
  | l -> Alcotest.failf "expected one retire instant, got %d" (List.length l));
  (match find "B" "neutralize-restart" with
  | [ e ] ->
    Alcotest.(check (option int)) "restart span on D0's track" (Some 0)
      (int_field "tid" e)
  | l -> Alcotest.failf "expected one restart begin, got %d" (List.length l));
  (match find "B" "stall" with
  | [ e ] ->
    Alcotest.(check (option int)) "stall span on D1's track" (Some 1)
      (int_field "tid" e)
  | l -> Alcotest.failf "expected one stall begin, got %d" (List.length l));
  Alcotest.(check int) "both spans closed" 2
    (List.length (List.filter (fun e -> ph e = Some "E") evs));
  Alcotest.(check int) "backlog counter track" 1
    (List.length (find "C" "backlog/d0"));
  Alcotest.(check int) "epoch-lag counter track" 1
    (List.length (find "C" "epoch-lag/d1"));
  let r = Registry.create () in
  Flight.to_registry t r;
  match Registry.find r "native_op_latency_ns" ~labels:[ ("op", "add") ] with
  | Some
      { Registry.value = Registry.Histogram { count = 1; sum = 300; buckets };
        _ } ->
    Alcotest.(check (list (pair int int)))
      "300 ns lands in bucket 9" [ (9, 1) ] buckets
  | _ -> Alcotest.fail "latency histogram not published"

(* ------------------------------------------------------------------ *)
(* Explore heartbeat telemetry                                         *)
(* ------------------------------------------------------------------ *)

let test_explore_heartbeat_totals () =
  let progresses = ref [] in
  let config =
    {
      Ex.default_config with
      Ex.max_runs = 300;
      domains = 2;
      progress_every = 50;
      on_progress = Some (fun p -> progresses := p :: !progresses);
    }
  in
  let r = App.explore ~config (scheme "ebr") App.Harris in
  let s = r.Ex.res_stats in
  Alcotest.(check bool) "heartbeats fired" true (!progresses <> []);
  List.iter
    (fun (p : Ex.progress) ->
      Alcotest.(check int) "per-domain runs sum to runs" p.Ex.pg_runs
        (Array.fold_left ( + ) 0 p.Ex.pg_per_domain_runs);
      Alcotest.(check bool) "budget left consistent" true
        (p.Ex.pg_budget_left = 300 - p.Ex.pg_runs))
    !progresses;
  Alcotest.(check int) "stats per-domain runs sum to runs" s.Ex.runs
    (List.fold_left ( + ) 0 s.Ex.per_domain_runs);
  Alcotest.(check int) "one slot per domain" 2
    (List.length s.Ex.per_domain_runs);
  (* The heartbeat sidecar is this registry, serialized: totals must
     match the search stats after a JSON round-trip. *)
  let reg = Ex.stats_registry s in
  let json = parse_json (Registry.to_string reg) in
  let decoded =
    match Registry.metrics_of_json json with
    | Ok m -> m
    | Error e -> Alcotest.failf "sidecar decode: %s" e
  in
  let metric name =
    match
      List.find_opt
        (fun (m : Registry.metric) -> m.Registry.name = name && m.labels = [])
        decoded
    with
    | Some { Registry.value = Registry.Counter n; _ } -> n
    | _ -> Alcotest.failf "missing sidecar metric %s" name
  in
  Alcotest.(check int) "sidecar runs" s.Ex.runs (metric "explore_runs");
  Alcotest.(check int) "sidecar states" s.Ex.states (metric "explore_states");
  Alcotest.(check int) "sidecar switches" s.Ex.switches
    (metric "explore_switches");
  let domain_runs =
    List.filter_map
      (fun (m : Registry.metric) ->
        match (m.Registry.name, m.Registry.value) with
        | "explore_domain_runs", Registry.Counter n -> Some n
        | _ -> None)
      decoded
  in
  Alcotest.(check int) "sidecar domain runs sum to runs" s.Ex.runs
    (List.fold_left ( + ) 0 domain_runs)

(* Sequential explore reports too (frontier from the DFS stack). *)
let test_explore_heartbeat_sequential () =
  let progresses = ref [] in
  let config =
    {
      Ex.default_config with
      Ex.max_runs = 120;
      domains = 1;
      progress_every = 40;
      on_progress = Some (fun p -> progresses := p :: !progresses);
    }
  in
  let r = App.explore ~config (scheme "ebr") App.Harris in
  let s = r.Ex.res_stats in
  Alcotest.(check bool) "heartbeats fired" true (!progresses <> []);
  Alcotest.(check (list int)) "single-domain run total" [ s.Ex.runs ]
    s.Ex.per_domain_runs

let () =
  Alcotest.run "era_obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "spans and counters" `Quick test_ring_no_drop;
          Alcotest.test_case "wrap at exact capacity" `Quick
            test_ring_wrap_exact;
        ] );
      ( "registry",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_registry_round_trip;
          Alcotest.test_case "dedup and kind safety" `Quick
            test_registry_dedup_and_kinds;
          Alcotest.test_case "log2 buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "labelled histogram JSON" `Quick
            test_histogram_json_labels;
          Alcotest.test_case "quantile estimator" `Quick test_estimate_quantile;
        ] );
      ( "flight",
        [
          Alcotest.test_case "detached is a no-op" `Quick test_flight_detached;
          Alcotest.test_case "ring wrap accounting" `Quick
            test_flight_ring_wrap;
          Alcotest.test_case "Perfetto merge shape" `Quick
            test_flight_merge_shape;
        ] );
      ( "figure2-trace",
        [
          Alcotest.test_case "golden Perfetto JSON" `Quick
            test_figure2_hp_golden;
          Alcotest.test_case "schema and violation instant" `Quick
            test_figure2_hp_schema;
          Alcotest.test_case "deterministic" `Quick
            test_figure2_hp_deterministic;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "hook vs trace counts" `Quick
            test_hook_vs_trace_counts;
          Alcotest.test_case "tracing does not perturb" `Quick
            test_trace_does_not_perturb;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "parallel heartbeat totals" `Quick
            test_explore_heartbeat_totals;
          Alcotest.test_case "sequential heartbeat" `Quick
            test_explore_heartbeat_sequential;
        ] );
    ]
