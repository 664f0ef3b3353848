(* The repository benchmark. One run builds the inputs of a workload
   from its seed, sets up several times (reporting the median), then
   measures three interleaved legs for about [--seconds] seconds: a
   native leg, explore-cover and serve-mix. It checks every leg's outputs and
   prints, as its last stdout line, one JSON object with the end-to-end
   metrics (or, with [--trace 1], the per-layer ones).

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   --era-cli PATH
          main.exe --write-manifest   (regenerate BENCHMARK.json) *)

open Perfbench
module J = Era_metrics.Json

let setup_reps = 5

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let check acc ~what failed_checks =
  acc.attempted <- acc.attempted + 1;
  if failed_checks <> [] then begin
    acc.failed <- acc.failed + 1;
    acc.failures <-
      Printf.sprintf "%s: %s" what (String.concat "," failed_checks) :: acc.failures
  end

(* Medians of the per-layer values of several traced repetitions. *)
let median_layers reps =
  match reps with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (name, _) -> (name, Stat.median (List.map (List.assoc name) reps)))
      first

(* Call [f] until [budget_s] has passed and it ran at least [min] times. *)
let repeat ~budget_s ~min f =
  let t_end = Stat.now () +. budget_s in
  let rec go n = if n < min || Stat.now () < t_end then (f (); go (n + 1)) in
  go 0

let pct ~traced ~plain = (traced /. plain -. 1.) *. 100.

let run ~workload ~seed ~seconds ~trace ~era_cli =
  let w =
    match Spec.find_workload workload with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (expected %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.Spec.wname) Spec.workloads));
      exit 2
  in
  let scratch = Filename.concat ".perfbench_run" (string_of_int (Unix.getpid ())) in
  Stat.rm_rf scratch;
  (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir scratch 0o755;
  at_exit (fun () ->
      Serve_leg.kill_all ();
      Stat.rm_rf scratch;
      try Unix.rmdir ".perfbench_run" with Unix.Unix_error _ -> ());
  let acc = { attempted = 0; failed = 0; failures = [] } in
  let spec = w.Spec.native in
  (* Set-up, several times: native streams and warm-up batch, explore
     warm-up pass, daemon boot with one job of each kind. The last
     daemon is the one measured. *)
  let setups =
    List.init setup_reps (fun i ->
        let t0 = Stat.now () in
        let streams = Native_leg.setup spec ~seed in
        Explore_leg.setup ();
        let d = Serve_leg.setup ~era_cli ~scratch in
        let dt = Stat.now () -. t0 in
        if i < setup_reps - 1 then Serve_leg.stop d;
        (dt, streams, d))
  in
  let setup_s = Stat.median (List.map (fun (dt, _, _) -> dt) setups) in
  let _, streams, daemon = List.nth setups (setup_reps - 1) in
  (* The serve leg's duration is fixed by its job count. Its chunks are
     spread over the run; before each, the native and explore legs take
     an equal share of the rest of the budget, interleaved in rounds, so
     that every leg samples the whole stretch of machine noise. With tracing,
     every plain step has a traced twin, run after it in one half of the
     round and before it in the other, so neither gains from the order.
     2-domain searches are not traced: their per-layer value comes from
     the search's own stats. *)
  let serve_s = float_of_int Serve_leg.jobs *. Serve_leg.interval_s in
  let round =
    if trace then
      [ `Batch false; `Batch true; `Search (`Plain 1); `Search `Traced;
        `Batch true; `Batch false; `Search `Traced; `Search (`Plain 1);
        `Search (`Plain 2) ]
    else [ `Batch false; `Search (`Plain 1); `Batch false; `Search (`Plain 2); `Batch false ]
  in
  let batches = ref [] and searches = ref [] in
  let step = function
    | `Batch traced ->
      let b =
        if traced then Native_leg.traced_batch spec streams
        else Native_leg.plain_batch spec streams
      in
      check acc ~what:spec.Native_leg.name b.Native_leg.checks_failed;
      batches := (traced, b) :: !batches
    | `Search k ->
      let s =
        match k with
        | `Plain domains -> Explore_leg.search ~domains ()
        | `Traced -> Explore_leg.search ~traced:true ~domains:1 ()
      in
      searches := (k, s) :: !searches
  in
  let slice_s = (seconds -. serve_s) /. float_of_int Serve_leg.chunks in
  let jobs =
    List.concat_map
      (fun ks ->
        repeat ~budget_s:slice_s ~min:1 (fun () -> List.iter step round);
        Serve_leg.chunk daemon ks)
      (Serve_leg.chunked ~seed)
  in
  let batches = List.rev !batches and searches = List.rev !searches in
  (* The timings of the native and explore legs come from the fast end
     of the run: a fixed amount of work is never faster than its cost,
     while the host's neighbours slow some repetitions and not others.
     A search cannot beat its cost by luck, so it reports its best time.
     A 2-domain batch can: when one domain starts late, the two barely
     contend. So it reports the 90th percentile, which a few such
     batches do not move. *)
  let mops traced =
    Stat.quantile
      (List.filter_map
         (fun (t, b) -> if t = traced then Some b.Native_leg.mops else None)
         batches)
      0.9
  in
  let work (s : Explore_leg.search) =
    (s.Explore_leg.stats.Era_explore.Explore.runs,
     s.Explore_leg.stats.Era_explore.Explore.states)
  in
  let first_1d =
    List.find_map
      (fun (k, s) -> if k = `Plain 1 then Some (work s) else None)
      searches
  in
  List.iter
    (fun (k, s) ->
      let same = if k <> `Plain 2 && Some (work s) <> first_1d then [ "same_work_1d" ] else [] in
      check acc ~what:"explore-cover" (s.Explore_leg.checks_failed @ same))
    searches;
  let verdicts k =
    Stat.min
      (List.filter_map
         (fun (k', s) -> if k' = k then Some s.Explore_leg.verdict_s else None)
         searches)
  in
  let layers_of k =
    median_layers
      (List.filter_map
         (fun (k', s) -> if k' = k then Some s.Explore_leg.layers else None)
         searches)
  in
  (* The serve leg ran on the daemon from the last set-up. Its per-layer
     values are read after the timed chunks, so a traced serve run is
     timed exactly like a plain one and has no overhead to report. *)
  let serve = Serve_leg.measure ~traced:trace daemon jobs in
  acc.attempted <- acc.attempted + serve.Serve_leg.attempted;
  acc.failed <- acc.failed + serve.Serve_leg.failed;
  List.iter
    (fun f -> acc.failures <- ("serve-mix: " ^ f) :: acc.failures)
    serve.Serve_leg.failures;
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", serve.Serve_leg.peak_rss_mb);
        ("mops", mops false);
        ("verdict_s", verdicts (`Plain 1));
        ("verdict_2d_s", verdicts (`Plain 2));
        ("job_p50_ms", serve.Serve_leg.job_p50_ms);
        ("job_p90_ms", serve.Serve_leg.job_p90_ms);
      ]
    else
      (* Overhead of the traced twins over their plain steps: per leg,
         and for a round's traced steps as a whole. *)
      let batch_s traced =
        float_of_int (spec.Native_leg.domains * spec.Native_leg.ops_per_domain)
        /. (mops traced *. 1e6)
      in
      let round_s traced =
        (2. *. batch_s traced) +. verdicts (if traced then `Traced else `Plain 1)
      in
      median_layers
        (List.filter_map
           (fun (t, b) -> if t then Some b.Native_leg.layers else None)
           batches)
      @ layers_of `Traced @ layers_of (`Plain 2)
      @ serve.Serve_leg.layers
      @ [
          ("trace.overhead_pct", pct ~traced:(round_s true) ~plain:(round_s false));
          ("trace.overhead_pct.native", pct ~traced:(batch_s true) ~plain:(batch_s false));
          ("trace.overhead_pct.explore", pct ~traced:(verdicts `Traced) ~plain:(verdicts (`Plain 1)));
        ]
  in
  let declared = if trace then Spec.per_layer else Spec.end_to_end in
  let out =
    List.map
      (fun (m : Spec.metric) ->
        let v =
          match List.assoc_opt m.Spec.name metrics with
          | Some v when Float.is_finite v -> v
          | Some _ | None ->
            acc.failures <- Printf.sprintf "metric %s missing" m.Spec.name :: acc.failures;
            acc.failed <- acc.failed + 1;
            0.
        in
        (m, v))
      declared
  in
  List.iter
    (fun ((m : Spec.metric), v) ->
      Printf.eprintf "%-32s %14.6g %s\n" m.Spec.name v m.Spec.unit_)
    out;
  Printf.eprintf "%-32s %14.6g (of %d checked)\n" "failed_share"
    (float_of_int acc.failed /. float_of_int (max 1 acc.attempted))
    acc.attempted;
  Printf.eprintf "%-32s %14d\n" "job_samples" serve.Serve_leg.samples;
  Printf.eprintf "%-32s %14d\n" "batches" (List.length batches);
  Printf.eprintf "%-32s %14d\n" "searches" (List.length searches);
  List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) (List.rev acc.failures);
  let json =
    J.Obj
      [
        ("correct", J.Bool (acc.failed = 0));
        ("attempted", J.Int acc.attempted);
        ("failed", J.Int acc.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun ((m : Spec.metric), v) ->
                 (m.Spec.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.Spec.unit_) ]))
               out) );
      ]
  in
  print_endline (J.to_string ~minify:true json)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.
  and trace = ref 0 and era_cli = ref "" and manifest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--era-cli", Arg.Set_string era_cli, "PATH era_cli executable");
      ("--write-manifest", Arg.Set manifest, " write BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --era-cli PATH";
  if !manifest then
    Era_metrics.Fsutil.write_file ~file:"BENCHMARK.json"
      (J.to_string (Spec.manifest ()) ^ "\n")
  else begin
    if !workload = "" || !era_cli = "" || !seconds <= 0. then begin
      prerr_endline "perfbench: --workload, --seconds and --era-cli are required";
      exit 2
    end;
    let era_cli =
      if Filename.is_relative !era_cli then Filename.concat (Sys.getcwd ()) !era_cli
      else !era_cli
    in
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~era_cli
  end
