(* Tests for the tuning-parameter ablations: the backlog bound tracks
   HP's threshold, and no IBR epoch granularity escapes the theorem. *)

let test_hp_threshold_tracks_backlog () =
  let rows = Era.Ablation.hp_sweep ~thresholds:[ 2; 32 ] ~size:96 () in
  match rows with
  | [ small; large ] ->
    Alcotest.(check bool) "small threshold, small backlog" true
      (small.Era.Ablation.max_backlog <= 2 + 3);
    Alcotest.(check bool) "large threshold, larger backlog" true
      (large.Era.Ablation.max_backlog > small.Era.Ablation.max_backlog);
    Alcotest.(check bool) "still bounded by threshold + slots" true
      (large.Era.Ablation.max_backlog <= 32 + 3)
  | _ -> Alcotest.fail "expected two rows"

(* Exact (max backlog, steps) of the default sweep: the stalled-reader
   run is seeded and deterministic, so these are pinned. *)
let test_hp_sweep_pinned () =
  Alcotest.(check (list (triple int int int)))
    "threshold, max backlog, steps"
    [ (2, 3, 102_378); (8, 8, 102_373); (32, 32, 102_373);
      (128, 127, 102_253) ]
    (List.map
       (fun r -> Era.Ablation.(r.threshold, r.max_backlog, r.steps))
       (Era.Ablation.hp_sweep ()))

let test_hp_functor_variants_coexist () =
  (* Two differently-tuned HP instances are independent schemes. *)
  let module Tight =
    Era_smr.Hp.Make (struct
      let slots_per_thread = 2
      let scan_threshold = 2
    end)
  in
  let module Loose =
    Era_smr.Hp.Make (struct
      let slots_per_thread = 8
      let scan_threshold = 64
    end)
  in
  Alcotest.(check int) "tight threshold" 2 Tight.scan_threshold;
  Alcotest.(check int) "loose slots" 8 Loose.slots_per_thread;
  Alcotest.(check bool) "both audit as easy" true
    (fst (Era_smr.Integration.easily_integrated Tight.integration)
    && fst (Era_smr.Integration.easily_integrated Loose.integration))

let test_ibr_granularity_no_escape () =
  let rows = Era.Ablation.ibr_sweep ~rates:[ 1; 64 ] () in
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Fmt.str "figure1 defeats rate %d" r.Era.Ablation.allocs_per_epoch)
        "safety-violated" r.Era.Ablation.figure1)
    rows;
  (* The stock Figure 2 schedule only defeats fine-grained epochs. *)
  (match rows with
  | [ fine; coarse ] ->
    Alcotest.(check string) "fine epochs: figure2 unsafe" "unsafe"
      fine.Era.Ablation.figure2;
    Alcotest.(check string) "coarse epochs: stock figure2 dodged" "safe"
      coarse.Era.Ablation.figure2
  | _ -> Alcotest.fail "expected two rows");
  ()

let () =
  Alcotest.run "era_ablation"
  @@ Shuffle.maybe_shuffle
    [
      ( "hp",
        [
          Alcotest.test_case "threshold tracks backlog" `Slow
            test_hp_threshold_tracks_backlog;
          Alcotest.test_case "pinned sweep" `Slow test_hp_sweep_pinned;
          Alcotest.test_case "functor variants" `Quick
            test_hp_functor_variants_coexist;
        ] );
      ( "ibr",
        [
          Alcotest.test_case "no granularity escapes Figure 1" `Slow
            test_ibr_granularity_no_escape;
        ] );
    ]
