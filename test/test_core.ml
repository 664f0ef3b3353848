(* Tests for the core ERA experiments: Figures 1/2, the robustness
   classifier, the applicability matrix, the access-aware audit and the
   theorem itself. Expected outcomes are the paper's claims. *)

let scheme = Era_smr.Registry.find_exn

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let fig1_expect name check () =
  let r = Era.Figure1.run ~rounds:128 (scheme name) in
  check r

let is_robustness_violation r =
  match r.Era.Figure1.outcome with
  | Era.Figure1.Robustness_violated _ -> true
  | _ -> false

let is_safety_violation r =
  match r.Era.Figure1.outcome with
  | Era.Figure1.Safety_violated _ -> true
  | _ -> false

let is_survival r =
  match r.Era.Figure1.outcome with
  | Era.Figure1.Survived _ -> true
  | _ -> false

let test_fig1_ebr =
  fig1_expect "ebr" (fun r ->
      Alcotest.(check bool) "robustness violated" true
        (is_robustness_violation r);
      Alcotest.(check bool) "easy" true r.Era.Figure1.easily_integrated;
      (* The backlog grows ~1 node per churn round while max_active = 4. *)
      (match r.Era.Figure1.outcome with
      | Era.Figure1.Robustness_violated { retired_end; max_active } ->
        Alcotest.(check bool) "backlog ~ rounds" true (retired_end >= 100);
        Alcotest.(check bool) "max_active tiny" true (max_active <= 6)
      | _ -> ());
      (* EBR stays safe: T1's solo run completes without violation. *)
      Alcotest.(check string) "T1 finished" "finished" r.Era.Figure1.t1_outcome)

let test_fig1_none =
  fig1_expect "none" (fun r ->
      Alcotest.(check bool) "leaks" true (is_robustness_violation r))

let test_fig1_protection name =
  fig1_expect name (fun r ->
      Alcotest.(check bool)
        (name ^ " loses safety") true (is_safety_violation r);
      Alcotest.(check bool) "easy" true r.Era.Figure1.easily_integrated)

let test_fig1_hard name =
  fig1_expect name (fun r ->
      Alcotest.(check bool) (name ^ " survives") true (is_survival r);
      Alcotest.(check bool) "not easy" false r.Era.Figure1.easily_integrated;
      match r.Era.Figure1.outcome with
      | Era.Figure1.Survived { retired_peak } ->
        Alcotest.(check bool) "bounded peak" true (retired_peak <= 32)
      | _ -> ())

(* DEBRA+ is the fourth Figure 1 outcome: it survives (the stalled
   thread is neutralized, so the epoch keeps moving and the backlog
   stays bounded) *while* passing the Definition 5.3 audit — the
   easy+robust corner EBR and NBR each miss one half of. *)
let test_fig1_debra =
  fig1_expect "debra" (fun r ->
      Alcotest.(check bool) "debra survives" true (is_survival r);
      Alcotest.(check bool) "easy" true r.Era.Figure1.easily_integrated;
      Alcotest.(check string) "T1 finished" "finished" r.Era.Figure1.t1_outcome;
      match r.Era.Figure1.outcome with
      | Era.Figure1.Survived { retired_peak } ->
        Alcotest.(check bool) "bounded peak" true (retired_peak <= 32)
      | _ -> ())

let test_fig1_series_monotone () =
  (* For EBR the series is (essentially) monotonically increasing. *)
  let r = Era.Figure1.run ~rounds:64 (scheme "ebr") in
  let rec non_decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b + 2 && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "series grows" true (non_decreasing r.Era.Figure1.series);
  Alcotest.(check int) "one sample per churn round + delete(1)" 64
    (List.length r.Era.Figure1.series - 1)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let fig2_unsafe name () =
  let r = Era.Figure2.run (scheme name) in
  Alcotest.(check bool) (name ^ " unsafe") true
    (match r.Era.Figure2.outcome with Era.Figure2.Unsafe _ -> true | _ -> false)

let fig2_safe name () =
  let r = Era.Figure2.run (scheme name) in
  (match r.Era.Figure2.outcome with
  | Era.Figure2.Safe_completion _ -> ()
  | Era.Figure2.Unsafe v ->
    Alcotest.failf "%s should be safe, got %a" name Era_sim.Event.pp v);
  (* 15 and 43 deleted, 58 inserted: the final list is {58, 76}. *)
  Alcotest.(check (list int)) "final contents" [ 58; 76 ]
    r.Era.Figure2.final_list

(* The Appendix E footnote: with node 43 inserted before T1's
   protection, the era/interval reservations of HE and IBR cover it and
   the run is safe; HP protects addresses and is defeated either way. *)
let test_fig2_footnote () =
  let outcome name =
    match
      (Era.Figure2.run_footnote_variant (scheme name)).Era.Figure2.outcome
    with
    | Era.Figure2.Unsafe _ -> "unsafe"
    | Era.Figure2.Safe_completion _ -> "safe"
  in
  Alcotest.(check string) "hp defeated either way" "unsafe" (outcome "hp");
  Alcotest.(check string) "ibr covered" "safe" (outcome "ibr");
  Alcotest.(check string) "he covered" "safe" (outcome "he");
  Alcotest.(check string) "ebr still safe" "safe" (outcome "ebr")

(* ------------------------------------------------------------------ *)
(* Robustness classes                                                  *)
(* ------------------------------------------------------------------ *)

let classify name =
  (Era.Robustness.classify ~churn_points:[ 64; 256 ] ~size_points:[ 32; 96 ]
     (scheme name))
    .Era.Robustness.clazz

let test_robustness_classes () =
  let check name expected =
    Alcotest.(check string) name
      (Era.Robustness.clazz_name expected)
      (Era.Robustness.clazz_name (classify name))
  in
  check "none" Era.Robustness.Not_robust;
  check "ebr" Era.Robustness.Not_robust;
  check "hp" Era.Robustness.Robust;
  check "ibr" Era.Robustness.Weakly_robust;
  check "he" Era.Robustness.Weakly_robust;
  check "vbr" Era.Robustness.Robust;
  check "rc" Era.Robustness.Not_robust;
  check "nbr" Era.Robustness.Robust;
  check "debra" Era.Robustness.Robust

let test_size_sweep_scaling () =
  (* IBR's pinned backlog scales with the structure size; VBR's does
     not. *)
  let ibr_small = Era.Robustness.size_sweep_point (scheme "ibr") ~size:32 in
  let ibr_big = Era.Robustness.size_sweep_point (scheme "ibr") ~size:128 in
  Alcotest.(check bool) "ibr scales" true (ibr_big >= ibr_small + 64);
  let vbr_small = Era.Robustness.size_sweep_point (scheme "vbr") ~size:32 in
  let vbr_big = Era.Robustness.size_sweep_point (scheme "vbr") ~size:128 in
  Alcotest.(check bool) "vbr flat" true (abs (vbr_big - vbr_small) <= 4)

(* ------------------------------------------------------------------ *)
(* Applicability                                                       *)
(* ------------------------------------------------------------------ *)

let test_applicability_claims () =
  let applicable name structure =
    Era.Applicability.applicable
      (Era.Applicability.run ~fuzz_runs:4 (scheme name) structure)
  in
  Alcotest.(check bool) "ebr on harris" true
    (applicable "ebr" Era.Applicability.Harris);
  Alcotest.(check bool) "hp NOT on harris" false
    (applicable "hp" Era.Applicability.Harris);
  Alcotest.(check bool) "hp on michael" true
    (applicable "hp" Era.Applicability.Michael);
  Alcotest.(check bool) "ibr NOT on harris" false
    (applicable "ibr" Era.Applicability.Harris);
  Alcotest.(check bool) "he NOT on hash-harris" false
    (applicable "he" Era.Applicability.Hash);
  Alcotest.(check bool) "hp on hash-michael (pick your structure!)" true
    (applicable "hp" Era.Applicability.Hash_michael);
  Alcotest.(check bool) "vbr on harris" true
    (applicable "vbr" Era.Applicability.Harris);
  Alcotest.(check bool) "nbr on harris" true
    (applicable "nbr" Era.Applicability.Harris);
  Alcotest.(check bool) "debra NOT on michael (restarts)" false
    (applicable "debra" Era.Applicability.Michael);
  Alcotest.(check bool) "debra NOT on harris (restarts)" false
    (applicable "debra" Era.Applicability.Harris)

(* The deterministic version of DEBRA+'s applicability loss: suspend a
   delete right after its marking CAS, neutralize it, and watch the
   restarted operation answer [false] for the key it already deleted.
   NBR faces the identical schedule and survives (write phases shield
   the signal); EBR never neutralizes at all. *)
let test_neutralize_scenario () =
  let chk name structure =
    Era.Applicability.neutralize_check
      (Era_smr.Registry.find_exn name)
      structure
  in
  List.iter
    (fun st ->
      Alcotest.(check bool)
        (Fmt.str "debra non-linearizable on %s"
           (Era.Applicability.structure_name st))
        true (chk "debra" st))
    [
      Era.Applicability.Michael;
      Era.Applicability.Harris;
      Era.Applicability.Hash;
      Era.Applicability.Hash_michael;
    ];
  Alcotest.(check bool) "ebr survives the schedule" false
    (chk "ebr" Era.Applicability.Michael);
  Alcotest.(check bool) "nbr survives the schedule" false
    (chk "nbr" Era.Applicability.Michael);
  Alcotest.(check bool) "hp survives the schedule" false
    (chk "hp" Era.Applicability.Michael);
  Alcotest.(check bool) "vbr survives the schedule" false
    (chk "vbr" Era.Applicability.Michael)

(* Black-box confirmation: a stall-augmented fuzzer with no knowledge of
   the Figure 1 construction still finds the HP/HE/IBR violations on
   Harris's list, and finds nothing against the applicable schemes. *)
let test_stall_fuzz_discovers () =
  let found name =
    (Era.Applicability.stall_fuzz ~tries:30 ~seed:1 (scheme name)
       Era.Applicability.Harris)
      .Era_explore.Explore.fz_found
  in
  Alcotest.(check bool) "hp found" true (found "hp" > 0);
  Alcotest.(check bool) "ibr found" true (found "ibr" > 0);
  Alcotest.(check bool) "he found" true (found "he" > 0);
  Alcotest.(check int) "ebr clean" 0 (found "ebr");
  Alcotest.(check int) "vbr clean" 0 (found "vbr");
  Alcotest.(check int) "nbr clean" 0 (found "nbr");
  Alcotest.(check int) "rc clean" 0 (found "rc");
  (* debra restarts break return values, not memory safety *)
  Alcotest.(check int) "debra clean" 0 (found "debra")

(* ------------------------------------------------------------------ *)
(* Pinned harness outputs                                              *)
(* ------------------------------------------------------------------ *)

(* Exact values of the seeded simulated harnesses. Every seed, prefill,
   hook subscription and quantum is deterministic, so any change to how
   a cell is built or run that is meant to preserve behaviour must
   leave these numbers as they are. *)

let test_stall_fuzz_pinned () =
  let expect = [ ("hp", 6, 2945); ("ibr", 3, 2054); ("he", 5, 2582) ] in
  List.iter
    (fun name ->
      let r =
        Era.Applicability.stall_fuzz ~tries:30 ~seed:1 (scheme name)
          Era.Applicability.Harris
      in
      let first =
        Option.map
          (fun (v : Era_explore.Explore.violation_info) ->
            (Era_sim.Event.violation_name v.v_kind, v.v_tid, v.v_step))
          r.Era_explore.Explore.fz_first
      in
      match List.find_opt (fun (n, _, _) -> n = name) expect with
      | Some (_, found, step) ->
        Alcotest.(check int) (name ^ " found") found r.fz_found;
        Alcotest.(check (option (triple string int int)))
          (name ^ " first violation")
          (Some (Era_sim.Event.violation_name Era_sim.Event.Stale_value_used,
                 0, step))
          first
      | None ->
        Alcotest.(check int) (name ^ " found") 0 r.fz_found;
        Alcotest.(check bool) (name ^ " no violation") true (first = None))
    Era_smr.Registry.names

let test_matrix_pinned () =
  let open Era.Applicability in
  let set_structures = [ Harris; Michael; Hash; Hash_michael ] in
  List.iter
    (fun (name, cells) ->
      List.iter
        (fun (st, v) ->
          let cell = name ^ "/" ^ structure_name st in
          let violations = if name = "hp" && st = Hash then 1 else 0 in
          let non_lin =
            if name <> "debra" then 0
            else
              match st with
              | Harris | Hash_michael | Stack -> 1
              | Queue -> 2
              | Michael | Hash -> 0
          in
          let adversarial =
            List.mem name [ "hp"; "ibr"; "he" ] && (st = Harris || st = Hash)
          in
          let neutralize = name = "debra" && List.mem st set_structures in
          Alcotest.(check int) (cell ^ " fuzz runs") 4 v.fuzz_runs;
          Alcotest.(check int) (cell ^ " violations") violations v.violations;
          Alcotest.(check bool)
            (cell ^ " first violation iff violations")
            (violations > 0)
            (v.first_violation <> None);
          Alcotest.(check int) (cell ^ " non-linearizable") non_lin
            v.non_linearizable;
          Alcotest.(check int) (cell ^ " progress failures") 0
            v.progress_failures;
          Alcotest.(check bool) (cell ^ " adversarial") adversarial
            v.adversarial_unsafe;
          Alcotest.(check bool) (cell ^ " neutralize") neutralize
            v.neutralize_unsafe;
          Alcotest.(check int) (cell ^ " crashed") 0 v.crashed)
        cells)
    (matrix ~fuzz_runs:4 ())

let test_size_sweep_pinned () =
  List.iter
    (fun name ->
      let expect =
        match name with
        | "hp" | "vbr" | "nbr" -> (8, 8)
        | "debra" -> (2, 2)
        | _ -> (31, 127)
      in
      let point size = Era.Robustness.size_sweep_point (scheme name) ~size in
      Alcotest.(check (pair int int)) (name ^ " backlog at 32, 128") expect
        (point 32, point 128))
    Era_smr.Registry.names

(* ------------------------------------------------------------------ *)
(* Access-aware audits                                                 *)
(* ------------------------------------------------------------------ *)

let test_access_aware_clean () =
  List.iter
    (fun st ->
      let r = Era.Access_aware.audit ~runs:3 st in
      Alcotest.(check bool)
        (Era.Applicability.structure_name st ^ " clean")
        true (Era.Access_aware.clean r))
    Era.Applicability.structures

let test_access_aware_negative () =
  Alcotest.(check bool) "negative control flags" true
    (Era.Access_aware.negative_control () <> [])

(* ------------------------------------------------------------------ *)
(* The theorem                                                         *)
(* ------------------------------------------------------------------ *)

let test_theorem () =
  let rows =
    Era.Era_matrix.compute ~fuzz_runs:3 ~churn_points:[ 64; 256 ]
      ~size_points:[ 32; 96 ] ()
  in
  Alcotest.(check int) "nine rows" 9 (List.length rows);
  Alcotest.(check bool) "Theorem 6.1 holds" true
    (Era.Era_matrix.theorem_holds rows);
  (* Every scheme in the library provides exactly two properties. *)
  List.iter
    (fun row ->
      Alcotest.(check int)
        (row.Era.Era_matrix.scheme ^ " provides exactly 2")
        2
        (Era.Era_matrix.properties_held row))
    rows

let () =
  Alcotest.run "era_core"
  @@ Shuffle.maybe_shuffle
    [
      ( "figure1",
        [
          Alcotest.test_case "ebr: robustness violated" `Slow test_fig1_ebr;
          Alcotest.test_case "none: leaks" `Slow test_fig1_none;
          Alcotest.test_case "rc: pins retired chains" `Slow
            (fig1_expect "rc" (fun r ->
                 Alcotest.(check bool) "robustness violated" true
                   (is_robustness_violation r);
                 Alcotest.(check bool) "easy" true
                   r.Era.Figure1.easily_integrated));
          Alcotest.test_case "hp: safety violated" `Slow
            (test_fig1_protection "hp");
          Alcotest.test_case "ibr: safety violated" `Slow
            (test_fig1_protection "ibr");
          Alcotest.test_case "he: safety violated" `Slow
            (test_fig1_protection "he");
          Alcotest.test_case "vbr: survives, hard integration" `Slow
            (test_fig1_hard "vbr");
          Alcotest.test_case "nbr: survives, hard integration" `Slow
            (test_fig1_hard "nbr");
          Alcotest.test_case "debra: survives, easy integration" `Slow
            test_fig1_debra;
          Alcotest.test_case "series shape" `Slow test_fig1_series_monotone;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "hp unsafe" `Quick (fig2_unsafe "hp");
          Alcotest.test_case "ibr unsafe" `Quick (fig2_unsafe "ibr");
          Alcotest.test_case "he unsafe" `Quick (fig2_unsafe "he");
          Alcotest.test_case "ebr safe" `Quick (fig2_safe "ebr");
          Alcotest.test_case "none safe" `Quick (fig2_safe "none");
          Alcotest.test_case "vbr safe" `Quick (fig2_safe "vbr");
          Alcotest.test_case "nbr safe" `Quick (fig2_safe "nbr");
          Alcotest.test_case "rc safe" `Quick (fig2_safe "rc");
          Alcotest.test_case "debra safe" `Quick (fig2_safe "debra");
          Alcotest.test_case "appendix E footnote variant" `Quick
            test_fig2_footnote;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "classes" `Slow test_robustness_classes;
          Alcotest.test_case "size-sweep scaling" `Slow
            test_size_sweep_scaling;
        ] );
      ( "applicability",
        [
          Alcotest.test_case "paper claims" `Slow test_applicability_claims;
          Alcotest.test_case "deterministic neutralization scenario" `Quick
            test_neutralize_scenario;
          Alcotest.test_case "stall fuzzer discovers violations" `Slow
            test_stall_fuzz_discovers;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "stall fuzz on harris" `Slow
            test_stall_fuzz_pinned;
          Alcotest.test_case "applicability matrix" `Slow test_matrix_pinned;
          Alcotest.test_case "size-sweep backlogs" `Slow
            test_size_sweep_pinned;
        ] );
      ( "access-aware",
        [
          Alcotest.test_case "all structures clean" `Slow
            test_access_aware_clean;
          Alcotest.test_case "negative control" `Quick
            test_access_aware_negative;
        ] );
      ("theorem", [ Alcotest.test_case "ERA theorem" `Slow test_theorem ]);
    ]
