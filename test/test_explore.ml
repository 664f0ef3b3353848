(* Systematic schedule explorer (lib/explore): determinism, rediscovery
   of the paper's Figure 1/Figure 2 executions with zero scripting,
   shrinker soundness, and counterexample round-tripping. *)

module Ex = Era_explore.Explore
module App = Era.Applicability

let scheme name =
  match Era_smr.Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scheme %s" name

(* Small budget: every rediscovery below lands within ~100 runs. *)
let small = { Ex.default_config with Ex.max_runs = 2_000 }

let explore ?ops_per_thread ?robustness_bound name =
  App.explore ~config:small ?ops_per_thread ?robustness_bound (scheme name)
    App.Harris

let kind_of (r : Ex.search_result) =
  Option.map (fun c -> c.Ex.c_violation.Ex.v_kind) r.Ex.res_cex

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_deterministic () =
  let a = explore "hp" and b = explore "hp" in
  Alcotest.(check int) "runs" a.Ex.res_stats.Ex.runs b.Ex.res_stats.Ex.runs;
  Alcotest.(check int) "states" a.Ex.res_stats.Ex.states
    b.Ex.res_stats.Ex.states;
  let steps r =
    match r.Ex.res_cex with
    | Some c -> c.Ex.c_steps
    | None -> Alcotest.fail "expected a counterexample"
  in
  Alcotest.(check (list int)) "identical shrunk schedule" (steps a) (steps b)

(* ------------------------------------------------------------------ *)
(* E2 rediscovery: the Figure 2 refutations, found not scripted         *)
(* ------------------------------------------------------------------ *)

let test_rediscovers_figure2 () =
  List.iter
    (fun name ->
      let r = explore name in
      (match r.Ex.res_cex with
      | None -> Alcotest.failf "%s: no violation found" name
      | Some c ->
        Alcotest.(check bool)
          (name ^ " found within one preemption")
          true
          (c.Ex.c_preemptions <= 1);
        Alcotest.(check bool)
          (name ^ " shrunk script is short")
          true
          (List.length c.Ex.c_script <= 5));
      Alcotest.(check bool)
        (name ^ " is a safety violation")
        true
        (kind_of r <> Some Era_sim.Event.Robustness_exceeded))
    [ "hp"; "he"; "ibr" ]

(* EBR has no Figure 2 safety bug: the same search comes back empty. *)
let test_ebr_safe () =
  let r = explore "ebr" in
  Alcotest.(check bool) "ebr: no safety counterexample" true
    (r.Ex.res_cex = None)

(* DEBRA+'s failure mode is correctness, not memory safety. With
   [lincheck] on, the explorer finds a non-linearizable history within
   one preemption: a neutralization restart fires past a delete's
   marking CAS, so the re-run delete answers [false] for a key the
   operation already removed. With [lincheck] off the very same search
   finds nothing and completes preemption levels — a bounded
   "no safety violation within k preemptions" certificate, the other
   half of the scheme's ERA profile (safe and robust, not widely
   applicable). *)
let test_debra_lincheck_finds_failure () =
  let r =
    Ex.explore ~config:small
      (App.explore_target ~lincheck:true (scheme "debra") App.Michael)
  in
  match r.Ex.res_cex with
  | None -> Alcotest.fail "debra: no lincheck counterexample"
  | Some c ->
    Alcotest.(check bool) "linearizability failure" true
      (c.Ex.c_violation.Ex.v_kind = Era_sim.Event.Linearizability_failure);
    Alcotest.(check bool) "found within one preemption" true
      (c.Ex.c_preemptions <= 1)

let test_debra_safety_certificate () =
  let r =
    Ex.explore ~config:small (App.explore_target (scheme "debra") App.Michael)
  in
  Alcotest.(check bool) "debra: no safety counterexample" true
    (r.Ex.res_cex = None);
  Alcotest.(check bool) "certificate covers at least one preemption level"
    true
    (r.Ex.res_stats.Ex.levels_completed >= 1)

(* ------------------------------------------------------------------ *)
(* E1 rediscovery: the Figure 1 dichotomy                              *)
(* ------------------------------------------------------------------ *)

let test_rediscovers_figure1_dichotomy () =
  (* Same workload, same backlog bound: EBR trips the robustness horn,
     HP the safety horn — Theorem 6.1's "pick your poison". *)
  let ebr = explore ~ops_per_thread:60 ~robustness_bound:24 "ebr" in
  Alcotest.(check bool) "ebr exceeds the robustness bound" true
    (kind_of ebr = Some Era_sim.Event.Robustness_exceeded);
  let hp = explore ~ops_per_thread:60 ~robustness_bound:24 "hp" in
  (match kind_of hp with
  | None -> Alcotest.fail "hp: no violation found"
  | Some Era_sim.Event.Robustness_exceeded ->
    Alcotest.fail "hp: robustness tripped before the safety violation"
  | Some _ -> ())

(* ------------------------------------------------------------------ *)
(* Shrinking and replay                                                *)
(* ------------------------------------------------------------------ *)

let cex_and_target name =
  let target = App.explore_target (scheme name) App.Harris in
  match (Ex.explore ~config:small target).Ex.res_cex with
  | Some c -> (c, target)
  | None -> Alcotest.failf "%s: no counterexample" name

let test_shrunk_still_violates () =
  let c, target = cex_and_target "hp" in
  let r = Ex.replay target c in
  match r.Ex.rp_violation with
  | Some v ->
    Alcotest.(check bool) "same violation kind" true
      (v.Ex.v_kind = c.Ex.c_violation.Ex.v_kind)
  | None -> Alcotest.fail "shrunk schedule no longer violates"

let test_replay_trace_identical () =
  let c, target = cex_and_target "hp" in
  let a = Ex.replay ~trace:true target c in
  let b = Ex.replay ~trace:true target c in
  Alcotest.(check bool) "trace is non-trivial" true
    (List.length a.Ex.rp_trace > 10);
  Alcotest.(check bool) "two replays emit the identical event trace" true
    (a.Ex.rp_trace = b.Ex.rp_trace)

let test_json_roundtrip () =
  let c, _ = cex_and_target "ibr" in
  match Ex.counterexample_of_json (Ex.counterexample_to_json c) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok c' ->
    Alcotest.(check string) "target" c.Ex.c_target c'.Ex.c_target;
    Alcotest.(check (list int)) "steps" c.Ex.c_steps c'.Ex.c_steps;
    Alcotest.(check bool) "violation" true
      (c.Ex.c_violation = c'.Ex.c_violation);
    Alcotest.(check bool) "params" true (c.Ex.c_params = c'.Ex.c_params)

let test_save_load_replay () =
  let c, _ = cex_and_target "hp" in
  let file = Filename.temp_file "counterexample" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Ex.save ~file c;
      match Ex.load ~file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok c' -> (
        (* The CLI replay path: rebuild the target from the JSON alone. *)
        match App.target_of_counterexample c' with
        | Error e -> Alcotest.failf "target rebuild failed: %s" e
        | Ok target -> (
          match (Ex.replay target c').Ex.rp_violation with
          | Some v ->
            Alcotest.(check bool) "reproduced" true
              (v.Ex.v_kind = c.Ex.c_violation.Ex.v_kind)
          | None -> Alcotest.fail "saved counterexample did not reproduce")))

(* ------------------------------------------------------------------ *)
(* Parallel exploration: differential suite                            *)
(* ------------------------------------------------------------------ *)

let with_domains d config = { config with Ex.domains = d }
let with_dpor config = { config with Ex.dpor = true }
let kind_of_cex c = c.Ex.c_violation.Ex.v_kind

(* CI runs the suite twice: with the default domain sweep and with
   ERA_TEST_DOMAINS=2, which pins every multi-domain test to exactly
   that count — 2-domain interleavings get a dedicated pass instead of
   sharing wall clock with the 4-domain sweep. *)
let diff_domain_counts =
  match Sys.getenv_opt "ERA_TEST_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 2 -> [ n ]
    | _ -> [ 2; 4 ])
  | None -> [ 2; 4 ]

(* The built-in targets: the Figure 2 safety cells for each unsafe
   scheme, the Figure 1 robustness-dichotomy pair, the stall-fuzz
   workload setting (60 ops/thread, no bound) explored systematically,
   and the DEBRA+ neutralization cells — lincheck targets whose
   violation is a [Linearizability_failure] (a neutralization restart
   firing past a delete's linearization point), found, shrunk and
   replayed through exactly the same machinery as the safety cells. *)
let diff_cells =
  [
    ("figure2/hp", "hp", App.Harris, None, None, false);
    ("figure2/he", "he", App.Harris, None, None, false);
    ("figure2/ibr", "ibr", App.Harris, None, None, false);
    ("figure1/ebr", "ebr", App.Harris, Some 60, Some 24, false);
    ("figure1/hp", "hp", App.Harris, Some 60, Some 24, false);
    ("stall-fuzz/hp", "hp", App.Harris, Some 60, None, false);
    ("neutralize/debra-michael", "debra", App.Michael, None, None, true);
    ("neutralize/debra-hash", "debra", App.Hash_michael, None, None, true);
  ]

let target_of_cell (_, name, structure, ops_per_thread, robustness_bound,
                    lincheck) =
  App.explore_target ?ops_per_thread ?robustness_bound ~lincheck
    (scheme name) structure

(* Parallel explore at 2 and 4 domains must agree with the sequential
   search on the violation kind and the preemption level it is found at
   (the level barrier guarantees minimality), and its shrunk script must
   still violate under sequential replay. Which violating schedule wins
   the race may differ — validity never. *)
let test_differential () =
  List.iter
    (fun ((label, _, _, _, _, _) as cell) ->
      let target = target_of_cell cell in
      let seq = Ex.explore ~config:small target in
      let seq_kind = Option.map kind_of_cex seq.Ex.res_cex in
      Alcotest.(check bool)
        (label ^ " sequential search finds a violation")
        true (seq_kind <> None);
      List.iter
        (fun d ->
          let par = Ex.explore ~config:(with_domains d small) target in
          let par_kind = Option.map kind_of_cex par.Ex.res_cex in
          Alcotest.(check bool)
            (Fmt.str "%s d=%d same violation kind" label d)
            true (par_kind = seq_kind);
          Alcotest.(check (option int))
            (Fmt.str "%s d=%d same found preemption level" label d)
            seq.Ex.res_stats.Ex.cex_preemptions
            par.Ex.res_stats.Ex.cex_preemptions;
          match par.Ex.res_cex with
          | None -> ()
          | Some c -> (
            match (Ex.replay target c).Ex.rp_violation with
            | Some v ->
              Alcotest.(check bool)
                (Fmt.str "%s d=%d shrunk script replays sequentially" label d)
                true
                (v.Ex.v_kind = kind_of_cex c)
            | None ->
              Alcotest.failf "%s d=%d: shrunk script does not replay" label d))
        diff_domain_counts)
    diff_cells

(* DPOR (sequential) must agree with the classic search on every
   built-in cell: same violation kind, same (minimal) preemption level —
   sleep sets only cut schedules that commute with explored ones, so a
   violation findable without them stays findable — and the shrunk
   script must replay. Fewer or equal runs is the whole point. *)
let test_dpor_differential () =
  List.iter
    (fun ((label, _, _, _, _, _) as cell) ->
      let target = target_of_cell cell in
      let seq = Ex.explore ~config:small target in
      let dpor = Ex.explore ~config:(with_dpor small) target in
      Alcotest.(check bool)
        (label ^ " dpor same violation kind")
        true
        (Option.map kind_of_cex dpor.Ex.res_cex
        = Option.map kind_of_cex seq.Ex.res_cex);
      Alcotest.(check (option int))
        (label ^ " dpor same found preemption level")
        seq.Ex.res_stats.Ex.cex_preemptions
        dpor.Ex.res_stats.Ex.cex_preemptions;
      Alcotest.(check bool)
        (label ^ " dpor does not run more")
        true
        (dpor.Ex.res_stats.Ex.runs <= seq.Ex.res_stats.Ex.runs);
      match dpor.Ex.res_cex with
      | None -> ()
      | Some c -> (
        match (Ex.replay target c).Ex.rp_violation with
        | Some v ->
          Alcotest.(check bool)
            (label ^ " dpor shrunk script replays")
            true
            (v.Ex.v_kind = kind_of_cex c)
        | None -> Alcotest.failf "%s: dpor script does not replay" label))
    diff_cells

(* Shrink quality on every built-in cell, classic and DPOR: the shrunk
   counterexample is no longer, in quanta and in script instructions,
   than what a 500-run quantum-by-quantum ddmin reached from the same
   witness (the ceilings below), it costs at most 50 shrink runs, and
   it replays to the same violation kind at the same quantum. *)
let ddmin_ceilings =
  [
    ("figure2/hp", (459, 3));
    ("figure2/he", (495, 3));
    ("figure2/ibr", (401, 3));
    ("figure1/ebr", (611, 2));
    ("figure1/hp", (652, 3));
    ("stall-fuzz/hp", (652, 3));
    ("neutralize/debra-michael", (359, 3));
    ("neutralize/debra-hash", (280, 3));
  ]

let check_replays label target c =
  match (Ex.replay target c).Ex.rp_violation with
  | Some v ->
    Alcotest.(check bool) (label ^ " replays to the same kind") true
      (v.Ex.v_kind = kind_of_cex c);
    Alcotest.(check int) (label ^ " replays to the same quantum")
      c.Ex.c_violation.Ex.v_step v.Ex.v_step
  | None -> Alcotest.failf "%s: shrunk script does not replay" label

let test_shrink_quality () =
  List.iter
    (fun ((label, _, _, _, _, _) as cell) ->
      let target = target_of_cell cell in
      let quanta, instrs = List.assoc label ddmin_ceilings in
      List.iter
        (fun (mode, config) ->
          let label = label ^ mode in
          let r = Ex.explore ~config target in
          match r.Ex.res_cex with
          | None -> Alcotest.failf "%s: no counterexample" label
          | Some c ->
            Alcotest.(check bool)
              (Fmt.str "%s: %d quanta <= %d" label (List.length c.Ex.c_steps)
                 quanta)
              true
              (List.length c.Ex.c_steps <= quanta);
            Alcotest.(check bool)
              (Fmt.str "%s: %d instructions <= %d" label
                 (List.length c.Ex.c_script) instrs)
              true
              (List.length c.Ex.c_script <= instrs);
            Alcotest.(check bool)
              (Fmt.str "%s: %d shrink runs <= 50" label
                 r.Ex.res_stats.Ex.shrink_runs)
              true
              (r.Ex.res_stats.Ex.shrink_runs <= 50);
            check_replays label target c)
        [ ("", small); (" dpor", with_dpor small) ])
    diff_cells

(* The budget is a hard stop: the shrinker keeps the shortest schedule
   it accepted before running out, and that schedule still replays. *)
let test_shrink_budget () =
  let cell = List.hd diff_cells in
  let target = target_of_cell cell in
  let r =
    Ex.explore ~config:{ small with Ex.shrink_budget = 2 } target
  in
  Alcotest.(check bool) "shrink runs <= 2" true
    (r.Ex.res_stats.Ex.shrink_runs <= 2);
  match r.Ex.res_cex with
  | None -> Alcotest.fail "no counterexample"
  | Some c -> check_replays "budget 2" target c

let test_dpor_deterministic () =
  let target = App.explore_target (scheme "hp") App.Harris in
  let a = Ex.explore ~config:(with_dpor small) target in
  let b = Ex.explore ~config:(with_dpor small) target in
  Alcotest.(check int) "runs" a.Ex.res_stats.Ex.runs b.Ex.res_stats.Ex.runs;
  Alcotest.(check int) "states" a.Ex.res_stats.Ex.states
    b.Ex.res_stats.Ex.states;
  Alcotest.(check int) "sleep cuts" a.Ex.res_stats.Ex.sleep_cuts
    b.Ex.res_stats.Ex.sleep_cuts;
  let steps r = Option.map (fun c -> c.Ex.c_steps) r.Ex.res_cex in
  Alcotest.(check bool) "identical shrunk schedule" true
    (steps a = steps b && steps a <> None)

(* [domains = 1] is the pre-PR sequential DFS, bit for bit. The hp cell's
   run/state counts are pinned as goldens — the simulation is
   deterministic and machine-independent, so any drift here means the
   single-domain search path changed. *)
let test_domains1_bit_identical () =
  let a = explore "hp" in
  let b =
    App.explore ~config:(with_domains 1 small) (scheme "hp") App.Harris
  in
  Alcotest.(check int) "golden run count" 82 a.Ex.res_stats.Ex.runs;
  Alcotest.(check int) "golden state count" 45092 a.Ex.res_stats.Ex.states;
  Alcotest.(check int) "runs" a.Ex.res_stats.Ex.runs b.Ex.res_stats.Ex.runs;
  Alcotest.(check int) "states" a.Ex.res_stats.Ex.states
    b.Ex.res_stats.Ex.states;
  Alcotest.(check int) "domains_used" 1 b.Ex.res_stats.Ex.domains_used;
  let steps r =
    match r.Ex.res_cex with
    | Some c -> c.Ex.c_steps
    | None -> Alcotest.fail "expected a counterexample"
  in
  Alcotest.(check (list int)) "identical shrunk schedule" (steps a) (steps b)

(* A quantum whose successor is the same thread continues inline at its
   yield; only a switch suspends the fiber. The hp cell's exact count is
   pinned, and bounded far below its state count, so a scheduler that
   fell back to suspending every quantum fails here and not only in a
   timing. *)
let test_switches_golden () =
  let a = explore "hp" in
  let s = a.Ex.res_stats in
  Alcotest.(check int) "golden switch count" 81 s.Ex.switches;
  Alcotest.(check bool) "switches below 5% of states" true
    (s.Ex.switches * 20 < s.Ex.states)

(* The benchmark's cover cell: EBR over Harris's list, 5 ops per thread,
   target seed 2, exhausted to preemption bound 2 without a violation.
   The counts are deterministic, so the classic and DPOR searches are
   pinned exactly, fiber suspensions included: about one per 70
   quanta. *)
let cover_target =
  lazy (App.explore_target ~ops_per_thread:5 ~seed:2 (scheme "ebr") App.Harris)

let cover_config =
  { Ex.default_config with Ex.max_runs = max_int; shrink = false }

let cover_classic =
  lazy (Ex.explore ~config:cover_config (Lazy.force cover_target))

(* Which schedules the cover cell runs, pinned: an MD5 of the sorted
   schedule hashes, classic and DPOR. The counts alone could hold while
   the search ran other schedules; this fails on any change to which
   ones run. *)
let schedules_digest r =
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map string_of_int r.Ex.res_schedules)))

let rec has_adjacent_dup = function
  | a :: (b :: _ as tl) -> a = b || has_adjacent_dup tl
  | _ -> false

let test_cover_cell_goldens () =
  let target = Lazy.force cover_target and config = cover_config in
  let seq = Lazy.force cover_classic in
  let classic = seq.Ex.res_stats in
  Alcotest.(check (list int)) "classic runs/states/pruned"
    [ 10_868; 1_704_354; 0 ]
    [ classic.Ex.runs; classic.Ex.states; classic.Ex.pruned ];
  Alcotest.(check int) "classic levels" 3 classic.Ex.levels_completed;
  Alcotest.(check int) "classic switches" 21_583 classic.Ex.switches;
  Alcotest.(check int) "one schedule hash per run" classic.Ex.runs
    (List.length seq.Ex.res_schedules);
  Alcotest.(check bool) "no schedule runs twice" false
    (has_adjacent_dup seq.Ex.res_schedules);
  Alcotest.(check string) "classic schedules digest"
    "5789bb4fcec504a051031aa7d1cfd273" (schedules_digest seq);
  let dpor_r = Ex.explore ~config:(with_dpor config) target in
  Alcotest.(check string) "dpor schedules digest"
    "f34f47e81915c0884580d4adf3af8aa2" (schedules_digest dpor_r);
  let dpor = dpor_r.Ex.res_stats in
  Alcotest.(check (list int)) "dpor runs/states/sleep cuts"
    [ 5_691; 785_035; 2_463 ]
    [ dpor.Ex.runs; dpor.Ex.states; dpor.Ex.sleep_cuts ];
  Alcotest.(check int) "dpor levels" 3 dpor.Ex.levels_completed;
  Alcotest.(check int) "dpor switches" 11_229 dpor.Ex.switches

(* The full cover cell on two workers: no visited table means nothing
   about which worker ran what first can change the covered set, so the
   counts are the sequential goldens exactly, schedule for schedule. *)
let test_cover_cell_2d () =
  let seq = Lazy.force cover_classic in
  let par =
    Ex.explore ~config:(with_domains 2 cover_config) (Lazy.force cover_target)
  in
  Alcotest.(check (list int)) "2-domain runs/states" [ 10_868; 1_704_354 ]
    [ par.Ex.res_stats.Ex.runs; par.Ex.res_stats.Ex.states ];
  Alcotest.(check bool) "2-domain runs the sequential schedules" true
    (par.Ex.res_schedules = seq.Ex.res_schedules)

(* No child is built past the preemption bound: at level
   [max_preemptions] a run's preempting children would only be queued
   for a level that never runs. The final heartbeat of each level
   reports the children deferred to the next one: every preempting
   child of levels 0 and 1, none at level 2. The counts are the
   classic cover cell's, and the search still runs its golden runs. *)
let test_cover_cell_deferred () =
  let last = Hashtbl.create 3 in
  let config =
    {
      cover_config with
      Ex.progress_every = 1;
      on_progress =
        Some (fun p -> Hashtbl.replace last p.Ex.pg_level p.Ex.pg_deferred);
    }
  in
  let r = Ex.explore ~config (Lazy.force cover_target) in
  Alcotest.(check (list (option int))) "deferred at the end of levels 0-2"
    [ Some 149; Some 10_717; Some 0 ]
    (List.map (Hashtbl.find_opt last) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "runs/states" [ 10_868; 1_704_354 ]
    [ r.Ex.res_stats.Ex.runs; r.Ex.res_stats.Ex.states ]

(* DPOR on lincheck targets: the cross-thread order of Invoke and
   Response events is the real-time order the linearizability check
   judges, so two quanta that both start or end an operation must not
   commute, even when their heap accesses are disjoint; and a quantum
   whose only entries are history entries still gets the conservative
   global write. *)
let test_sleep_set_history () =
  let module S = Era_explore.Sleep_set in
  let module E = Era_sim.Event in
  let op = { E.name = "insert"; args = [ 1 ] } in
  let fp events =
    let b = S.builder () in
    List.iter (S.record b) events;
    S.finalize b
  in
  let read addr =
    E.Access
      { tid = 0; addr; node = addr; field = 0; kind = E.Read; unsafe = false }
  in
  let invoke = E.Invoke { tid = 0; opid = 1; op } in
  let response = E.Response { tid = 1; opid = 2; op; result = E.R_bool true } in
  Alcotest.(check bool) "disjoint reads commute" false
    (S.conflicts (fp [ read 1 ]) (fp [ read 2 ]));
  Alcotest.(check bool) "an invoke and a response do not commute" true
    (S.conflicts (fp [ read 1; invoke ]) (fp [ read 2; response ]));
  Alcotest.(check bool) "history entries leave heap reads independent" false
    (S.conflicts (fp [ read 1; invoke ]) (fp [ read 2 ]));
  let b = S.builder () in
  S.record b invoke;
  let only_history = S.finalize b in
  Alcotest.(check bool) "a history-only quantum writes the global location"
    true
    (Array.mem S.global_write only_history
    && Array.mem S.history_write only_history);
  Alcotest.(check bool) "so it conflicts with scheme state" true
    (S.conflicts only_history (fp [ E.Epoch { value = 1 } ]));
  Alcotest.(check bool) "and the next quantum starts empty" true
    (S.finalize b == S.empty_conservative)

(* The built-in twin of the QCheck schedule property: the EBR Harris
   cell (no violation, so nothing cuts the search short) searched to
   bound 2. Every worker count must run exactly the sequential multiset
   of schedules and exhaust every level. *)
let test_parallel_schedule_set () =
  let target =
    App.explore_target ~ops_per_thread:3 (scheme "ebr") App.Harris
  in
  let config =
    {
      Ex.default_config with
      Ex.max_preemptions = 2;
      max_runs = 30_000;
      shrink = false;
    }
  in
  let seq = Ex.explore ~config target in
  Alcotest.(check bool) "sequential search finds no violation" true
    (seq.Ex.res_cex = None);
  Alcotest.(check int) "sequential search exhausts every level" 3
    seq.Ex.res_stats.Ex.levels_completed;
  List.iter
    (fun d ->
      let par = Ex.explore ~config:(with_domains d config) target in
      Alcotest.(check int)
        (Fmt.str "d=%d exhausts every level" d)
        3 par.Ex.res_stats.Ex.levels_completed;
      Alcotest.(check (list int))
        (Fmt.str "d=%d runs/states" d)
        [ seq.Ex.res_stats.Ex.runs; seq.Ex.res_stats.Ex.states ]
        [ par.Ex.res_stats.Ex.runs; par.Ex.res_stats.Ex.states ];
      Alcotest.(check (list int))
        (Fmt.str "d=%d runs the sequential schedules" d)
        seq.Ex.res_schedules par.Ex.res_schedules)
    diff_domain_counts

(* ------------------------------------------------------------------ *)
(* QCheck: random small targets, sequential vs parallel                *)
(* ------------------------------------------------------------------ *)

module SI = Era_sets.Set_intf
module Sched = Era_sched.Sched

type qop = I of int | D of int | C of int

let pp_qop = function
  | I k -> Fmt.str "I%d" k
  | D k -> Fmt.str "D%d" k
  | C k -> Fmt.str "C%d" k

let apply_op (ops : SI.ops) = function
  | I k -> ignore (ops.SI.insert k)
  | D k -> ignore (ops.SI.delete k)
  | C k -> ignore (ops.SI.contains k)

(* A target whose two threads run explicit op sequences over a
   one-element list — op sequences (not outcomes) are fixed up front, so
   the choice-point structure is schedule-independent by construction. *)
let op_target ~structure ~scheme_name tid_ops =
  let nthreads = Array.length tid_ops in
  let (module S : Era_smr.Smr_intf.S) = scheme scheme_name in
  let make ~trace strategy =
    let mon = Era_sim.Monitor.create ~mode:`Record ~trace () in
    let heap = Era_sim.Heap.create mon in
    let sched = Sched.create ~nthreads strategy heap in
    let ext = Sched.external_ctx sched ~tid:0 in
    let g = S.create heap ~nthreads in
    let spawn_all ops_of =
      for tid = 0 to nthreads - 1 do
        let mine = tid_ops.(tid) in
        Sched.spawn sched ~tid (fun ctx ->
            let ops = ops_of ctx in
            List.iter (apply_op ops) mine;
            ops.SI.quiesce ())
      done
    in
    (match structure with
    | `Harris ->
      let module L = Era_sets.Harris_list.Make (S) in
      let dl = L.create ext g in
      ignore ((L.ops (L.handle dl ext) ~record:false).SI.insert 2);
      spawn_all (fun ctx -> L.ops (L.handle dl ctx) ~record:false)
    | `Michael ->
      let module L = Era_sets.Michael_list.Make (S) in
      let dl = L.create ext g in
      ignore ((L.ops (L.handle dl ext) ~record:false).SI.insert 2);
      spawn_all (fun ctx -> L.ops (L.handle dl ctx) ~record:false));
    sched
  in
  {
    Ex.name =
      ("qcheck/"
      ^ (match structure with `Harris -> "harris" | `Michael -> "michael"));
    nthreads;
    params = [];
    robustness_bound = None;
    make;
  }

let gen_case =
  QCheck.Gen.(
    let gen_op =
      map2
        (fun c k -> match c with 0 -> I k | 1 -> D k | _ -> C k)
        (int_bound 2) (int_range 1 3)
    in
    let gen_ops = list_size (int_range 1 3) gen_op in
    triple (oneofl [ `Harris; `Michael ]) gen_ops gen_ops)

let arb_case =
  QCheck.make
    ~print:(fun (structure, a, b) ->
      Fmt.str "%s [%a] [%a]"
        (match structure with `Harris -> "harris" | `Michael -> "michael")
        Fmt.(list ~sep:comma (of_to_string pp_qop))
        a
        Fmt.(list ~sep:comma (of_to_string pp_qop))
        b)
    gen_case

(* The bounded tree is enumerated in full, so parallel and sequential
   searches must run exactly the same schedules — same multiset of
   schedule hashes, same run/state counts — whatever the worker
   interleaving. Bound 2 makes the level barrier matter: the level-2
   frontier is seeded from level-1 runs on every worker. EBR targets
   have no safety violation to cut the search short, which keeps the
   comparison exact. *)
let prop_schedule_equivalence =
  QCheck.Test.make
    ~name:"parallel runs the sequential schedules" ~count:10
    arb_case
    (fun (structure, ops0, ops1) ->
      let target = op_target ~structure ~scheme_name:"ebr" [| ops0; ops1 |] in
      let config =
        {
          Ex.default_config with
          Ex.max_preemptions = 2;
          max_runs = 30_000;
          shrink = false;
        }
      in
      let seq = Ex.explore ~config target in
      QCheck.assume (seq.Ex.res_cex = None);
      (* the space must have been exhausted, not budget-truncated *)
      QCheck.assume (seq.Ex.res_stats.Ex.levels_completed = 3);
      List.for_all
        (fun d ->
          let par = Ex.explore ~config:(with_domains d config) target in
          par.Ex.res_schedules = seq.Ex.res_schedules
          && par.Ex.res_stats.Ex.runs = seq.Ex.res_stats.Ex.runs
          && par.Ex.res_stats.Ex.states = seq.Ex.res_stats.Ex.states
          && par.Ex.res_cex = None)
        diff_domain_counts)

(* Soundness: whatever schedule a parallel search reports, the sequential
   replayer must reproduce the violation — a parallel-only artifact would
   surface here as an irreproducible counterexample. *)
let prop_parallel_sound =
  QCheck.Test.make
    ~name:"parallel violations always replay sequentially" ~count:8 arb_case
    (fun (structure, ops0, ops1) ->
      let target = op_target ~structure ~scheme_name:"hp" [| ops0; ops1 |] in
      let config =
        {
          Ex.default_config with
          Ex.max_preemptions = 1;
          max_runs = 5_000;
          shrink_budget = 100;
        }
      in
      List.for_all
        (fun d ->
          match
            (Ex.explore ~config:(with_domains d config) target).Ex.res_cex
          with
          | None -> true
          | Some c -> (
            match (Ex.run_steps target c.Ex.c_steps).Ex.rp_violation with
            | Some v -> v.Ex.v_kind = kind_of_cex c
            | None -> false))
        diff_domain_counts)

(* The DPOR soundness property: sleep-set reduction never suppresses a
   violating schedule. On each random target the classic sequential
   search and the DPOR sequential search must agree on {e whether} a
   violation exists within the bound (sleep sets only cut schedules
   that commute with explored ones), and a DPOR-found violation must
   replay sequentially with classic semantics. *)
let prop_dpor_sound =
  QCheck.Test.make
    ~name:"sleep sets never suppress a violating schedule" ~count:12 arb_case
    (fun (structure, ops0, ops1) ->
      let target = op_target ~structure ~scheme_name:"hp" [| ops0; ops1 |] in
      let config =
        {
          Ex.default_config with
          Ex.max_preemptions = 1;
          max_runs = 30_000;
          shrink = false;
        }
      in
      let classic = Ex.explore ~config target in
      let dpor = Ex.explore ~config:(with_dpor config) target in
      (classic.Ex.res_cex = None) = (dpor.Ex.res_cex = None)
      && dpor.Ex.res_stats.Ex.runs <= classic.Ex.res_stats.Ex.runs
      &&
      match dpor.Ex.res_cex with
      | None -> true
      | Some c -> (
        match (Ex.run_steps target c.Ex.c_steps).Ex.rp_violation with
        | Some v -> v.Ex.v_kind = kind_of_cex c
        | None -> false))

(* ------------------------------------------------------------------ *)
(* Crash safety: injected worker faults                                *)
(* ------------------------------------------------------------------ *)

exception Injected_fault

let test_worker_crash_queue_integrity () =
  let target = App.explore_target (scheme "ebr") App.Harris in
  let hits = Atomic.make 0 in
  let hook slot =
    if slot mod 5 = 3 then begin
      Atomic.incr hits;
      raise Injected_fault
    end
  in
  let config =
    {
      Ex.default_config with
      Ex.max_runs = 200;
      domains = 4;
      shrink = false;
      fault_hook = Some hook;
    }
  in
  (* The real assertion is that this returns at all: a worker dying with
     the queue's active count held would deadlock the level barrier. *)
  let r = Ex.explore ~config target in
  let s = r.Ex.res_stats in
  Alcotest.(check bool) "faults fired" true (Atomic.get hits > 0);
  Alcotest.(check int) "every fault reported as a failed run"
    (Atomic.get hits) s.Ex.failed_runs;
  Alcotest.(check bool)
    "frontier survived the crashes (other prefixes still explored)" true
    (s.Ex.runs > s.Ex.failed_runs);
  Alcotest.(check bool) "partial-coverage report: search still concluded"
    true
    (s.Ex.runs = 200 || s.Ex.levels_completed > 0)

let test_sequential_fault_partial_report () =
  let target = App.explore_target (scheme "ebr") App.Harris in
  let hook slot = if slot = 2 then raise Injected_fault in
  let config =
    {
      Ex.default_config with
      Ex.max_runs = 50;
      shrink = false;
      fault_hook = Some hook;
    }
  in
  let r = Ex.explore ~config target in
  Alcotest.(check int) "one failed run" 1 r.Ex.res_stats.Ex.failed_runs;
  Alcotest.(check int) "budget still fully used" 50 r.Ex.res_stats.Ex.runs

(* ------------------------------------------------------------------ *)
(* Heartbeat under parallel load; budget boundary                      *)
(* ------------------------------------------------------------------ *)

(* Heartbeat stress (the per-domain-counter data-race regression): with
   a 2-domain search reporting after every run, the coordinator reads
   the per-domain run counters while the other worker is writing its
   own — previously through a plain int array (an unsynchronized race in
   the OCaml memory model), now through per-slot atomics. The test
   asserts every snapshot is well-formed and the final per-domain
   breakdown exactly accounts for the budget. *)
let heartbeat_stress config =
  let target = App.explore_target (scheme "ebr") App.Harris in
  let beats = ref 0 in
  let bad = ref [] in
  let config =
    {
      config with
      Ex.max_runs = 150;
      shrink = false;
      progress_every = 1;
      on_progress =
        Some
          (fun p ->
            incr beats;
            if Array.length p.Ex.pg_per_domain_runs <> config.Ex.domains then
              bad := "per-domain array length" :: !bad;
            if Array.exists (fun n -> n < 0) p.Ex.pg_per_domain_runs then
              bad := "negative per-domain count" :: !bad;
            (* the CAS budget reserve: the run counter may never
               overshoot the budget, even transiently *)
            if p.Ex.pg_runs > 150 then bad := "runs above budget" :: !bad;
            if p.Ex.pg_budget_left < 0 then bad := "negative budget" :: !bad);
    }
  in
  let r = Ex.explore ~config target in
  let s = r.Ex.res_stats in
  Alcotest.(check (list string)) "all snapshots well-formed" [] !bad;
  Alcotest.(check bool) "heartbeats fired" true (!beats > 0);
  Alcotest.(check int) "per-domain breakdown sums to runs" s.Ex.runs
    (List.fold_left ( + ) 0 s.Ex.per_domain_runs);
  Alcotest.(check bool) "budget respected in final stats" true
    (s.Ex.runs <= 150)

let test_heartbeat_stress_queue () =
  heartbeat_stress (with_domains 2 Ex.default_config)

let test_heartbeat_stress_4d () =
  heartbeat_stress (with_domains 4 Ex.default_config)

(* Budget boundary regression: with several workers racing the last few
   run slots, the old fetch-and-add-then-rollback reservation could
   both overshoot [max_runs] transiently and under-count after the
   racing rollbacks; the CAS reserve hands out exactly [max_runs]
   slots. An awkward budget (not divisible by the domain count) on a
   violation-free target exercises the contention at the boundary. *)
let budget_boundary config =
  let target = App.explore_target (scheme "ebr") App.Harris in
  let config = { config with Ex.max_runs = 7; shrink = false } in
  let r = Ex.explore ~config target in
  let s = r.Ex.res_stats in
  Alcotest.(check int) "exactly max_runs runs" 7 s.Ex.runs;
  Alcotest.(check int) "per-domain breakdown accounts for every run" 7
    (List.fold_left ( + ) 0 s.Ex.per_domain_runs)

let test_budget_boundary_queue () =
  budget_boundary (with_domains 4 Ex.default_config)

let test_budget_boundary_2d () =
  budget_boundary (with_domains 2 Ex.default_config)

(* ------------------------------------------------------------------ *)
(* Work queue: quiescence wake-up                                      *)
(* ------------------------------------------------------------------ *)

module Wq = Era_explore.Work_queue

(* Single-threaded semantics: LIFO order, one item per take (a pushed
   list's head on top), quiescence only when drained AND no item
   outstanding. *)
let test_work_queue_semantics () =
  let q = Wq.create () in
  Wq.push q [ 1; 2; 3 ];
  Alcotest.(check (option int)) "head of the pushed list is on top" (Some 1)
    (Wq.take q);
  (* the caller is active and the stack still holds 2 and 3: pushed
     children go on top of them *)
  Wq.push q [ 4; 5 ];
  Alcotest.(check int) "length counts queued items" 4 (Wq.length q);
  Wq.item_done q;
  let order =
    List.init 4 (fun _ ->
        let x = Wq.take q in
        Wq.item_done q;
        x)
  in
  Alcotest.(check (list (option int))) "LIFO order"
    [ Some 4; Some 5; Some 2; Some 3 ] order;
  Alcotest.(check bool) "drained stack with no active worker quiesces" true
    (Wq.take q = None);
  Alcotest.(check bool) "take after quiescence stays None" true
    (Wq.take q = None)

(* The lost-wakeup scenario the audit covered: a worker blocks in [take]
   on an empty queue while the last active worker finishes an item that
   produced no children. [item_done] must wake the waiter (it
   broadcasts whenever the active count hits zero); if that wake-up were
   conditioned away, the waiter would sleep forever and this test would
   hang rather than fail. *)
let test_work_queue_last_worker_wakeup () =
  let q = Wq.create () in
  Wq.push q [ 42 ];
  (match Wq.take q with
  | Some 42 -> ()
  | _ -> Alcotest.fail "setup take");
  (* this domain now blocks: queue empty, one active worker remains *)
  let waiter = Domain.spawn (fun () -> Wq.take q) in
  Unix.sleepf 0.05;
  Wq.item_done q;
  Alcotest.(check bool) "blocked waiter woken into quiescence" true
    (Domain.join waiter = None)

(* [stop] ends the search early (a violation found, the budget spent):
   a taker blocked behind an active worker must be woken with [None],
   and from then on work still on the stack is never handed out. *)
let test_work_queue_stop () =
  let q = Wq.create () in
  Wq.push q [ 1 ];
  (match Wq.take q with
  | Some 1 -> ()
  | _ -> Alcotest.fail "setup take");
  (* the stack is empty but a worker is active: this taker blocks *)
  let waiter = Domain.spawn (fun () -> Wq.take q) in
  Unix.sleepf 0.05;
  Wq.stop q;
  Alcotest.(check bool) "blocked waiter woken by stop" true
    (Domain.join waiter = None);
  Wq.push q [ 2; 3 ];
  Alcotest.(check int) "pushed items still counted" 2 (Wq.length q);
  Alcotest.(check (option int)) "stop beats queued work" None (Wq.take q);
  Wq.stop q;
  Alcotest.(check (option int)) "stop is idempotent" None (Wq.take q)

(* ------------------------------------------------------------------ *)
(* Save: parent-directory handling                                     *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_save_creates_parent_dirs () =
  let c, _ = cex_and_target "hp" in
  let base = Filename.temp_file "explore_out" "" in
  Sys.remove base;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists base then rm_rf base)
    (fun () ->
      let file =
        List.fold_left Filename.concat base [ "nested"; "deep"; "cex.json" ]
      in
      Ex.save ~file c;
      Alcotest.(check bool) "file written" true (Sys.file_exists file);
      match Ex.load ~file with
      | Ok c' ->
        Alcotest.(check (list int)) "round-trips" c.Ex.c_steps c'.Ex.c_steps
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_save_clear_error () =
  let c, _ = cex_and_target "hp" in
  (* A plain file standing where a directory is needed: creation cannot
     succeed, and the error must name the offending path. *)
  let blocker = Filename.temp_file "explore_block" "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove blocker)
    (fun () ->
      let file = Filename.concat (Filename.concat blocker "sub") "cex.json" in
      match Ex.save ~file c with
      | () -> Alcotest.fail "save through a file should not succeed"
      | exception Sys_error msg ->
        Alcotest.(check bool) "error names the path" true
          (let sub = file and msg = msg in
           let n = String.length sub in
           let rec contains i =
             i + n <= String.length msg
             && (String.sub msg i n = sub || contains (i + 1))
           in
           contains 0))

(* ------------------------------------------------------------------ *)
(* Schedule bookkeeping                                                *)
(* ------------------------------------------------------------------ *)

let test_preemption_count () =
  (* First choice and post-exit switches are free; only a switch away
     from a thread that still runs later is a preemption. *)
  Alcotest.(check int) "solo" 0 (Ex.preemptions_of_steps [ 0; 0; 0 ]);
  Alcotest.(check int) "handoff at exit" 0
    (Ex.preemptions_of_steps [ 0; 0; 1; 1 ]);
  Alcotest.(check int) "one preemption" 1
    (Ex.preemptions_of_steps [ 0; 1; 0 ]);
  Alcotest.(check int) "two preemptions" 2
    (Ex.preemptions_of_steps [ 0; 1; 0; 1 ])

let () =
  Alcotest.run "explore"
  @@ Shuffle.maybe_shuffle
    [
      ( "explorer",
        [
          Alcotest.test_case "deterministic search" `Quick test_deterministic;
          Alcotest.test_case "rediscovers Figure 2 (hp/he/ibr)" `Quick
            test_rediscovers_figure2;
          Alcotest.test_case "ebr safe under same search" `Quick test_ebr_safe;
          Alcotest.test_case "debra: lincheck finds non-linearizability"
            `Quick test_debra_lincheck_finds_failure;
          Alcotest.test_case "debra: bounded safety certificate" `Quick
            test_debra_safety_certificate;
          Alcotest.test_case "rediscovers Figure 1 dichotomy" `Quick
            test_rediscovers_figure1_dichotomy;
        ] );
      ( "shrink-replay",
        [
          Alcotest.test_case "shrunk schedule still violates" `Quick
            test_shrunk_still_violates;
          Alcotest.test_case "replay trace is identical" `Quick
            test_replay_trace_identical;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "save/load/replay round trip" `Quick
            test_save_load_replay;
          Alcotest.test_case "preemption counting" `Quick
            test_preemption_count;
        ] );
      ( "parallel-differential",
        [
          Alcotest.test_case "built-in targets at 2 and 4 domains" `Quick
            test_differential;
          Alcotest.test_case "domains=1 bit-identical to sequential" `Quick
            test_domains1_bit_identical;
          Alcotest.test_case "golden switch count (hp)" `Quick
            test_switches_golden;
          Alcotest.test_case "cover cell goldens (ebr, classic and dpor)"
            `Quick test_cover_cell_goldens;
          Alcotest.test_case "dpor agrees with classic on built-ins" `Quick
            test_dpor_differential;
          Alcotest.test_case "dpor search is deterministic" `Quick
            test_dpor_deterministic;
          Alcotest.test_case "script shrinker within ddmin's lengths" `Quick
            test_shrink_quality;
          Alcotest.test_case "shrinker stops at its budget" `Quick
            test_shrink_budget;
          Alcotest.test_case "parallel runs the sequential schedules"
            `Quick test_parallel_schedule_set;
          Alcotest.test_case "cover cell at 2 domains" `Quick
            test_cover_cell_2d;
          Alcotest.test_case "no children built past the bound" `Quick
            test_cover_cell_deferred;
          Alcotest.test_case "dpor: operation events never commute" `Quick
            test_sleep_set_history;
        ] );
      ( "parallel-qcheck",
        [
          QCheck_alcotest.to_alcotest prop_schedule_equivalence;
          QCheck_alcotest.to_alcotest prop_parallel_sound;
          QCheck_alcotest.to_alcotest prop_dpor_sound;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "worker fault does not deadlock the queue"
            `Quick test_worker_crash_queue_integrity;
          Alcotest.test_case "sequential fault gives a partial report" `Quick
            test_sequential_fault_partial_report;
        ] );
      ( "heartbeat-budget",
        [
          Alcotest.test_case "heartbeat stress, queue engine" `Quick
            test_heartbeat_stress_queue;
          Alcotest.test_case "heartbeat stress, 4 domains" `Quick
            test_heartbeat_stress_4d;
          Alcotest.test_case "budget boundary, queue engine" `Quick
            test_budget_boundary_queue;
          Alcotest.test_case "budget boundary, 2 domains" `Quick
            test_budget_boundary_2d;
        ] );
      ( "work-queue",
        [
          Alcotest.test_case "LIFO order and quiescence" `Quick
            test_work_queue_semantics;
          Alcotest.test_case "last worker wakes blocked taker" `Quick
            test_work_queue_last_worker_wakeup;
          Alcotest.test_case "stop wakes takers and beats queued work" `Quick
            test_work_queue_stop;
        ] );
      ( "save-dirs",
        [
          Alcotest.test_case "save creates parent directories" `Quick
            test_save_creates_parent_dirs;
          Alcotest.test_case "save fails with a clear error" `Quick
            test_save_clear_error;
        ] );
    ]
