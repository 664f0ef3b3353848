(* Tests of the benchmark's own wrappers: the timing SMR functor counts
   what the scheme counts, the wrapped explorer target is built once per
   run, and traced runs do the same work as untraced ones. *)

open Perfbench
module Nsmr = Era_native.Nsmr
module Ex = Era_explore.Explore

let small spec = { spec with Native_leg.domains = 1; ops_per_domain = 20_000 }

let test_timed_counts () =
  let spec = small Native_leg.churn in
  let streams = Native_leg.streams spec ~seed:3 in
  let o, g = Native_leg.Traced.batch ~time_ops:true spec streams in
  let st = o.Native_leg.stats in
  Alcotest.(check (list string)) "output checks" [] o.Native_leg.failed;
  let module T = Native_leg.T_ebr in
  Alcotest.(check int) "retire calls = retired" st.Nsmr.retired
    (T.calls g Timed_smr.Retire);
  Alcotest.(check int) "reclaimed + backlog = retired" st.Nsmr.retired
    (st.Nsmr.reclaimed + st.Nsmr.backlog);
  let inner = Era_native.N_ebr.stats (T.inner g) in
  Alcotest.(check int) "reclaimed = inner reclaimed" inner.Nsmr.reclaimed
    st.Nsmr.reclaimed;
  Alcotest.(check int) "begin_op = end_op" (T.calls g Timed_smr.Begin_op)
    (T.calls g Timed_smr.End_op);
  Alcotest.(check bool) "read_link counted" true (T.calls g Timed_smr.Read_link > 0)

let test_make_calls () =
  let p = Explore_leg.new_probe () in
  let r, _ = Explore_leg.run ~probe:p ~domains:1 () in
  Alcotest.(check int) "make calls = runs" r.Ex.res_stats.Ex.runs p.Explore_leg.makes;
  Alcotest.(check int) "picks = states" r.Ex.res_stats.Ex.states
    (p.Explore_leg.picks - r.Ex.res_stats.Ex.runs)

let test_same_outputs () =
  let spec = small Native_leg.zipf in
  let streams = Native_leg.streams spec ~seed:5 in
  let pa, _ = Native_leg.Plain.batch ~time_ops:false spec streams in
  let pb, _ = Native_leg.Traced.batch ~time_ops:true spec streams in
  let a = pa.Native_leg.stats and b = pb.Native_leg.stats in
  Alcotest.(check (list string)) "plain checks" [] pa.Native_leg.failed;
  Alcotest.(check (list string)) "traced checks" [] pb.Native_leg.failed;
  Alcotest.(check (list int)) "scheme counters"
    [ a.Nsmr.retired; a.Nsmr.reclaimed; a.Nsmr.backlog; a.Nsmr.scans ]
    [ b.Nsmr.retired; b.Nsmr.reclaimed; b.Nsmr.backlog; b.Nsmr.scans ];
  Alcotest.(check (float 0.)) "success ratio" pa.Native_leg.success_ratio
    pb.Native_leg.success_ratio;
  let plain = Explore_leg.search ~domains:1 () in
  let traced = Explore_leg.search ~traced:true ~domains:1 () in
  let key (s : Explore_leg.search) =
    let st = s.Explore_leg.stats in
    [ st.Ex.runs; st.Ex.states; st.Ex.pruned; st.Ex.levels_completed ]
  in
  Alcotest.(check (list int)) "explore stats" (key plain) (key traced);
  Alcotest.(check (list string)) "explore checks" [] traced.Explore_leg.checks_failed

let () =
  Alcotest.run "perfbench"
    [
      ( "wrappers",
        [
          Alcotest.test_case "timed smr counts" `Quick test_timed_counts;
          Alcotest.test_case "make calls = runs" `Quick test_make_calls;
          Alcotest.test_case "traced = untraced outputs" `Quick test_same_outputs;
        ] );
    ]
