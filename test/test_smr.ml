(* Per-scheme behaviour tests: integration audits (Definition 5.3),
   epoch/era/interval mechanics, protection, roll-backs and
   neutralization. *)

open Era_sim
module Sched = Era_sched.Sched
module Mem = Era_sched.Mem
module Integration = Era_smr.Integration
module Registry = Era_smr.Registry

let setup ?(nthreads = 2) () =
  let mon = Monitor.create ~mode:`Record ~trace:true () in
  let heap = Heap.create mon in
  let sched = Sched.create ~nthreads Sched.Round_robin heap in
  (heap, mon, sched)

(* ------------------------------------------------------------------ *)
(* Integration audit (Definition 5.3)                                  *)
(* ------------------------------------------------------------------ *)

(* Definition 5.3 verdicts: registry-driven (a scheme added without an
   expectation fails loudly) and one test case per scheme with no state
   shared between cases, so the order can be shuffled (ERA_TEST_SHUFFLE
   below). *)
let audit_expect = [
  ("none", true); ("ebr", true); ("hp", true); ("ibr", true); ("he", true);
  ("rc", true); ("vbr", false); ("nbr", false); ("debra", true);
]

let audit_cases =
  List.map
    (fun s ->
      let name = Registry.name_of s in
      Alcotest.test_case (name ^ " audit verdict") `Quick (fun () ->
          match List.assoc_opt name audit_expect with
          | None -> Alcotest.failf "no audit expectation for scheme %s" name
          | Some easy ->
            Alcotest.(check bool) name easy (Registry.easily_integrated s)))
    Registry.all

(* tiny substring helper to avoid a dependency *)
module Astring_like = struct
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
end

let test_audit_conditions () =
  let base (module S : Era_smr.Smr_intf.S) = S.integration in
  let vbr = base (Registry.find_exn "vbr") in
  let _, vbr_fails = Integration.easily_integrated vbr in
  Alcotest.(check bool) "vbr rollback condition" true
    (List.exists (fun m -> Astring_like.contains m "condition 4") vbr_fails);
  let nbr = base (Registry.find_exn "nbr") in
  let _, nbr_fails = Integration.easily_integrated nbr in
  Alcotest.(check bool) "nbr phase condition" true
    (List.exists (fun m -> Astring_like.contains m "phase-annotations") nbr_fails);
  let synthetic =
    { vbr with Integration.modifies_ds_fields = true }
  in
  let _, fails = Integration.easily_integrated synthetic in
  Alcotest.(check bool) "condition 5 detected" true
    (List.exists (fun m -> Astring_like.contains m "condition 5") fails)

(* ------------------------------------------------------------------ *)
(* EBR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ebr_epoch_advances () =
  let heap, _, sched = setup () in
  let g = Era_smr.Ebr.create heap ~nthreads:2 in
  let ext0 = Sched.external_ctx sched ~tid:0 in
  let t0 = Era_smr.Ebr.thread g ext0 in
  let e0 = Era_smr.Ebr.current_epoch g in
  Era_smr.Ebr.begin_op t0;
  Era_smr.Ebr.end_op t0;
  Era_smr.Ebr.begin_op t0;
  Era_smr.Ebr.end_op t0;
  Alcotest.(check bool) "epoch advanced" true
    (Era_smr.Ebr.current_epoch g > e0)

let test_ebr_reclaims_after_two_epochs () =
  let heap, mon, sched = setup () in
  let g = Era_smr.Ebr.create heap ~nthreads:1 in
  let t = Era_smr.Ebr.thread g (Sched.external_ctx sched ~tid:0) in
  Era_smr.Ebr.begin_op t;
  let w = Era_smr.Ebr.alloc t ~key:1 in
  Era_smr.Ebr.retire t w;
  Era_smr.Ebr.end_op t;
  Alcotest.(check int) "not yet reclaimed" 1 (Monitor.retired mon);
  for _ = 1 to 4 do
    Era_smr.Ebr.begin_op t;
    Era_smr.Ebr.end_op t
  done;
  Era_smr.Ebr.quiesce t;
  Alcotest.(check int) "reclaimed after epochs advanced" 0
    (Monitor.retired mon)

let test_ebr_stalled_thread_blocks () =
  let heap, mon, sched = setup () in
  let g = Era_smr.Ebr.create heap ~nthreads:2 in
  let t0 = Era_smr.Ebr.thread g (Sched.external_ctx sched ~tid:0) in
  let t1 = Era_smr.Ebr.thread g (Sched.external_ctx sched ~tid:1) in
  (* T1 announces an epoch and never finishes. *)
  Era_smr.Ebr.begin_op t1;
  let e_pinned = Era_smr.Ebr.announced g 1 in
  for i = 0 to 19 do
    Era_smr.Ebr.begin_op t0;
    let w = Era_smr.Ebr.alloc t0 ~key:i in
    Era_smr.Ebr.retire t0 w;
    Era_smr.Ebr.end_op t0
  done;
  Era_smr.Ebr.quiesce t0;
  Alcotest.(check bool) "epoch pinned near announcement" true
    (Era_smr.Ebr.current_epoch g <= e_pinned + 1);
  Alcotest.(check bool) "backlog grows" true (Monitor.retired mon >= 18)

(* ------------------------------------------------------------------ *)
(* HP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_hp_protection_pins_node () =
  let heap, mon, sched = setup () in
  let g = Era_smr.Hp.create heap ~nthreads:2 in
  let t0 = Era_smr.Hp.thread g (Sched.external_ctx sched ~tid:0) in
  let t1 = Era_smr.Hp.thread g (Sched.external_ctx sched ~tid:1) in
  (* Build root -> a, protect a via t1's read, then t0 retires a and
     floods its retire list to force scans. *)
  let root = Mem.alloc_sentinel (Sched.external_ctx sched ~tid:0) ~key:0 in
  Era_smr.Hp.begin_op t0;
  let a = Era_smr.Hp.alloc t0 ~key:1 in
  Era_smr.Hp.write t0 ~via:root ~field:0 a;
  Era_smr.Hp.begin_op t1;
  let a_seen = Era_smr.Hp.read t1 ~via:root ~field:0 in
  Alcotest.(check bool) "read returned the node" true (Word.equal a a_seen);
  Alcotest.(check bool) "address protected" true
    (List.mem (Word.addr_exn a) (Era_smr.Hp.protected_addrs g));
  (* unlink and retire a, then churn enough retirements to scan *)
  Era_smr.Hp.write t0 ~via:root ~field:0 Word.Null;
  Era_smr.Hp.retire t0 a;
  for i = 0 to (2 * Era_smr.Hp.scan_threshold) - 1 do
    let w = Era_smr.Hp.alloc t0 ~key:(100 + i) in
    Era_smr.Hp.retire t0 w
  done;
  Alcotest.(check bool) "a still valid (protected)" true (Heap.is_valid heap a);
  Alcotest.(check bool) "unprotected ones reclaimed" true
    (Monitor.retired mon < Era_smr.Hp.scan_threshold + 2);
  (* Drop protection; next scan frees it. *)
  Era_smr.Hp.end_op t1;
  Era_smr.Hp.quiesce t0;
  Alcotest.(check bool) "a reclaimed after unprotect" false
    (Heap.is_valid heap a);
  Era_smr.Hp.end_op t0

let test_hp_backlog_bounded () =
  let heap, mon, sched = setup () in
  let g = Era_smr.Hp.create heap ~nthreads:1 in
  let t = Era_smr.Hp.thread g (Sched.external_ctx sched ~tid:0) in
  Era_smr.Hp.begin_op t;
  for i = 0 to 499 do
    let w = Era_smr.Hp.alloc t ~key:i in
    Era_smr.Hp.retire t w
  done;
  Alcotest.(check bool) "bounded backlog" true
    (Monitor.retired mon <= Era_smr.Hp.scan_threshold)

(* ------------------------------------------------------------------ *)
(* IBR / HE                                                            *)
(* ------------------------------------------------------------------ *)

let test_ibr_reservation_pins_interval () =
  let heap, _, sched = setup () in
  let g = Era_smr.Ibr.create heap ~nthreads:2 in
  let t0 = Era_smr.Ibr.thread g (Sched.external_ctx sched ~tid:0) in
  let t1 = Era_smr.Ibr.thread g (Sched.external_ctx sched ~tid:1) in
  Era_smr.Ibr.begin_op t0;
  let old = Era_smr.Ibr.alloc t0 ~key:1 in
  (* t1 reserves the current interval (covers [old]'s birth). *)
  Era_smr.Ibr.begin_op t1;
  ignore (Era_smr.Ibr.reservation g 1);
  Era_smr.Ibr.retire t0 old;
  (* churn young nodes to trigger scans *)
  for i = 0 to (2 * Era_smr.Ibr.scan_threshold) - 1 do
    let w = Era_smr.Ibr.alloc t0 ~key:(100 + i) in
    Era_smr.Ibr.retire t0 w
  done;
  Alcotest.(check bool) "old node pinned by reservation" true
    (Heap.is_valid heap old);
  Era_smr.Ibr.end_op t1;
  Era_smr.Ibr.quiesce t0;
  Alcotest.(check bool) "freed once reservation lifted" false
    (Heap.is_valid heap old);
  Era_smr.Ibr.end_op t0

let test_he_era_pins_covered_nodes () =
  let heap, _, sched = setup () in
  let g = Era_smr.He.create heap ~nthreads:2 in
  let t0 = Era_smr.He.thread g (Sched.external_ctx sched ~tid:0) in
  let t1 = Era_smr.He.thread g (Sched.external_ctx sched ~tid:1) in
  let root = Mem.alloc_sentinel (Sched.external_ctx sched ~tid:0) ~key:0 in
  Era_smr.He.begin_op t0;
  let old = Era_smr.He.alloc t0 ~key:1 in
  Era_smr.He.write t0 ~via:root ~field:0 old;
  (* t1 publishes the current era by reading. *)
  Era_smr.He.begin_op t1;
  ignore (Era_smr.He.read t1 ~via:root ~field:0);
  Alcotest.(check bool) "era published" true
    (Era_smr.He.published_eras g <> []);
  Era_smr.He.write t0 ~via:root ~field:0 Word.Null;
  Era_smr.He.retire t0 old;
  (* young churn: born after t1's published era, so reclaimable *)
  for i = 0 to (2 * Era_smr.He.scan_threshold) - 1 do
    let w = Era_smr.He.alloc t0 ~key:(100 + i) in
    Era_smr.He.retire t0 w
  done;
  Alcotest.(check bool) "covered node pinned" true (Heap.is_valid heap old);
  Era_smr.He.end_op t1;
  Era_smr.He.quiesce t0;
  Alcotest.(check bool) "freed once era dropped" false (Heap.is_valid heap old)

(* ------------------------------------------------------------------ *)
(* VBR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vbr_rollback_on_stale_read () =
  let heap, mon, sched = setup () in
  let g = Era_smr.Vbr.create heap ~nthreads:1 in
  let t = Era_smr.Vbr.thread g (Sched.external_ctx sched ~tid:0) in
  let victim = ref Word.Null in
  let first = ref true in
  let r =
    Era_smr.Vbr.with_op t (fun () ->
        if !first then begin
          first := false;
          (* Allocate, retire, and force-recycle a node, then read it. *)
          let w = Era_smr.Vbr.alloc t ~key:1 in
          victim := w;
          for _ = 0 to Era_smr.Vbr.retire_cap + 1 do
            let v = Era_smr.Vbr.alloc t ~key:9 in
            Era_smr.Vbr.retire t v
          done;
          Era_smr.Vbr.retire t w;
          for _ = 0 to Era_smr.Vbr.retire_cap + 1 do
            let v = Era_smr.Vbr.alloc t ~key:9 in
            Era_smr.Vbr.retire t v
          done;
          (* w is now reclaimed: this read must roll back. *)
          ignore (Era_smr.Vbr.read t ~via:!victim ~field:0);
          `Unreachable
        end
        else `Recovered)
  in
  Alcotest.(check bool) "rolled back and recovered" true (r = `Recovered);
  Alcotest.(check bool) "rollback counted" true (Era_smr.Vbr.rollbacks g >= 1);
  Alcotest.(check int) "no safety violation" 0 (Monitor.violation_count mon)

let test_vbr_constant_backlog () =
  let heap, mon, sched = setup () in
  let g = Era_smr.Vbr.create heap ~nthreads:1 in
  let t = Era_smr.Vbr.thread g (Sched.external_ctx sched ~tid:0) in
  Era_smr.Vbr.with_op t (fun () ->
      for i = 0 to 999 do
        let w = Era_smr.Vbr.alloc t ~key:i in
        Era_smr.Vbr.retire t w
      done);
  Alcotest.(check bool) "backlog below cap" true
    (Monitor.retired mon < Era_smr.Vbr.retire_cap);
  Alcotest.(check bool) "reuse happened" true
    ((Heap.stats heap).Heap.reclaims > 900)

(* ------------------------------------------------------------------ *)
(* NBR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nbr_neutralization_restarts_reader () =
  let heap, mon, _ = setup () in
  let sched =
    Sched.create ~nthreads:2
      (Sched.Script [ Sched.Run (0, 6); Sched.Finish 1; Sched.Finish 0 ])
      heap
  in
  ignore mon;
  let g = Era_smr.Nbr.create heap ~nthreads:2 in
  let root = Mem.alloc_sentinel (Sched.external_ctx sched ~tid:1) ~key:0 in
  let restarted_with_fresh_view = ref false in
  Sched.spawn sched ~tid:0 (fun ctx ->
      let t = Era_smr.Nbr.thread g ctx in
      Era_smr.Nbr.with_op t (fun () ->
          Era_smr.Nbr.read_phase t (fun () ->
              (* Loop reading; once neutralized the bracket restarts. *)
              for _ = 1 to 20 do
                ignore (Era_smr.Nbr.read t ~via:root ~field:0)
              done;
              restarted_with_fresh_view := Era_smr.Nbr.restarts g > 0)));
  Sched.spawn sched ~tid:1 (fun ctx ->
      let t = Era_smr.Nbr.thread g ctx in
      Era_smr.Nbr.with_op t (fun () ->
          (* Retire enough to trigger a reclamation pass, which signals. *)
          for i = 0 to Era_smr.Nbr.retire_cap + 2 do
            let w = Era_smr.Nbr.alloc t ~key:i in
            Era_smr.Nbr.retire t w
          done));
  ignore (Sched.run sched);
  Alcotest.(check bool) "neutralization delivered" true
    (Era_smr.Nbr.neutralizations g > 0);
  Alcotest.(check bool) "reader restarted" true (Era_smr.Nbr.restarts g > 0);
  Alcotest.(check bool) "reader observed its restart" true
    !restarted_with_fresh_view

let test_nbr_backlog_bounded_with_stalled_reader () =
  (* Unlike EBR, a stalled reader does not stop NBR reclamation. *)
  let heap, mon, sched = setup () in
  let g = Era_smr.Nbr.create heap ~nthreads:2 in
  let t1 = Era_smr.Nbr.thread g (Sched.external_ctx sched ~tid:1) in
  (* Thread 0 is "stalled mid read phase": it simply never runs again. *)
  for i = 0 to 99 do
    let w = Era_smr.Nbr.alloc t1 ~key:i in
    Era_smr.Nbr.retire t1 w
  done;
  Alcotest.(check bool) "bounded backlog" true
    (Monitor.retired mon <= Era_smr.Nbr.retire_cap)

(* ------------------------------------------------------------------ *)
(* DEBRA+                                                              *)
(* ------------------------------------------------------------------ *)

let test_debra_epoch_advances_and_reclaims () =
  let heap, mon, sched = setup ~nthreads:1 () in
  ignore heap;
  let g = Era_smr.Debra.create heap ~nthreads:1 in
  let t = Era_smr.Debra.thread g (Sched.external_ctx sched ~tid:0) in
  let e0 = Era_smr.Debra.current_epoch g in
  for i = 0 to 9 do
    Era_smr.Debra.with_op t (fun () ->
        let w = Era_smr.Debra.alloc t ~key:i in
        Era_smr.Debra.retire t w)
  done;
  Alcotest.(check bool) "epoch advanced" true
    (Era_smr.Debra.current_epoch g > e0);
  Era_smr.Debra.quiesce t;
  Era_smr.Debra.quiesce t;
  Alcotest.(check int) "all bags freed at quiescence" 0 (Monitor.retired mon)

let test_debra_neutralization_restarts_reader () =
  let heap, mon, _ = setup () in
  let sched =
    Sched.create ~nthreads:2
      (Sched.Script [ Sched.Run (0, 6); Sched.Finish 1; Sched.Finish 0 ])
      heap
  in
  let g = Era_smr.Debra.create heap ~nthreads:2 in
  let root = Mem.alloc_sentinel (Sched.external_ctx sched ~tid:1) ~key:0 in
  Sched.spawn sched ~tid:0 (fun ctx ->
      let t = Era_smr.Debra.thread g ctx in
      Era_smr.Debra.with_op t (fun () ->
          (* A long read loop: stalled after 6 quanta, holding its
             announced epoch, until T1 neutralizes it. *)
          for _ = 1 to 20 do
            ignore (Era_smr.Debra.read t ~via:root ~field:0)
          done));
  Sched.spawn sched ~tid:1 (fun ctx ->
      let t = Era_smr.Debra.thread g ctx in
      (* Each op attempts an advance; past [patience] blocked attempts
         the stalled reader is neutralized and the epoch moves on. *)
      for i = 1 to Era_smr.Debra.patience + 3 do
        Era_smr.Debra.with_op t (fun () ->
            let w = Era_smr.Debra.alloc t ~key:i in
            Era_smr.Debra.retire t w)
      done);
  ignore (Sched.run sched);
  Alcotest.(check bool) "neutralization delivered" true
    (Era_smr.Debra.neutralizations g > 0);
  Alcotest.(check bool) "reader restarted" true (Era_smr.Debra.restarts g > 0);
  Alcotest.(check int) "no safety violation" 0 (Monitor.violation_count mon)

let test_debra_stalled_thread_does_not_block () =
  (* The EBR Figure-1 failure mode, fixed: a thread parked on an old
     announcement is neutralized, so reclamation continues without it. *)
  let heap, mon, sched = setup () in
  let g = Era_smr.Debra.create heap ~nthreads:2 in
  let t0 = Era_smr.Debra.thread g (Sched.external_ctx sched ~tid:0) in
  let t1 = Era_smr.Debra.thread g (Sched.external_ctx sched ~tid:1) in
  (* Thread 0 announces an epoch and never runs again. *)
  Era_smr.Debra.begin_op t0;
  for i = 0 to 99 do
    Era_smr.Debra.with_op t1 (fun () ->
        let w = Era_smr.Debra.alloc t1 ~key:i in
        Era_smr.Debra.retire t1 w)
  done;
  Alcotest.(check bool) "stalled thread neutralized" true
    (Era_smr.Debra.neutralizations g > 0);
  Alcotest.(check int) "its announcement was cleared on its behalf"
    (-1)
    (Era_smr.Debra.announced g 0);
  Alcotest.(check bool)
    (Fmt.str "bounded backlog (%d)" (Monitor.retired mon))
    true
    (Monitor.retired mon <= 10)

(* ------------------------------------------------------------------ *)
(* Phase audit                                                         *)
(* ------------------------------------------------------------------ *)

let test_phase_audit_negative_control () =
  let viols = Era.Access_aware.negative_control () in
  Alcotest.(check bool) "auditor catches bad clients" true (viols <> [])

let test_registry () =
  Alcotest.(check int) "nine schemes" 9 (List.length Registry.all);
  Alcotest.(check bool) "find" true (Registry.find "vbr" <> None);
  Alcotest.(check bool) "find missing" true (Registry.find "zzz" = None);
  Alcotest.check_raises "find_exn missing"
    (Invalid_argument "Registry: unknown scheme \"zzz\"") (fun () ->
      ignore (Registry.find_exn "zzz"))

(* Every case above builds its scheme/heap/monitor state from scratch, so
   execution order must not matter; [Shuffle] enforces it. *)
let () =
  Alcotest.run "era_smr"
  @@ Shuffle.maybe_shuffle
    [
      ( "integration",
        audit_cases
        @ [
          Alcotest.test_case "audit conditions" `Quick test_audit_conditions;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "ebr",
        [
          Alcotest.test_case "epoch advances" `Quick test_ebr_epoch_advances;
          Alcotest.test_case "reclaims after two epochs" `Quick
            test_ebr_reclaims_after_two_epochs;
          Alcotest.test_case "stalled thread blocks reclamation" `Quick
            test_ebr_stalled_thread_blocks;
        ] );
      ( "hp",
        [
          Alcotest.test_case "protection pins node" `Quick
            test_hp_protection_pins_node;
          Alcotest.test_case "bounded backlog" `Quick test_hp_backlog_bounded;
        ] );
      ( "ibr-he",
        [
          Alcotest.test_case "ibr reservation pins" `Quick
            test_ibr_reservation_pins_interval;
          Alcotest.test_case "he era pins" `Quick test_he_era_pins_covered_nodes;
        ] );
      ( "vbr",
        [
          Alcotest.test_case "rollback on stale read" `Quick
            test_vbr_rollback_on_stale_read;
          Alcotest.test_case "constant backlog" `Quick
            test_vbr_constant_backlog;
        ] );
      ( "nbr",
        [
          Alcotest.test_case "neutralization restarts reader" `Quick
            test_nbr_neutralization_restarts_reader;
          Alcotest.test_case "backlog bounded with stalled reader" `Quick
            test_nbr_backlog_bounded_with_stalled_reader;
        ] );
      ( "debra",
        [
          Alcotest.test_case "epochs advance, bags free" `Quick
            test_debra_epoch_advances_and_reclaims;
          Alcotest.test_case "neutralization restarts reader" `Quick
            test_debra_neutralization_restarts_reader;
          Alcotest.test_case "stalled thread does not block" `Quick
            test_debra_stalled_thread_does_not_block;
        ] );
      ( "phase-audit",
        [
          Alcotest.test_case "negative control" `Quick
            test_phase_audit_negative_control;
        ] );
    ]
