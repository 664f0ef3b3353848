(* Unit and property tests for the simulation substrate: words, the node
   life cycle, the heap's Definition 4.1/4.2 checking, and the monitor. *)

open Era_sim

let mon () = Monitor.create ~mode:`Record ~trace:true ()

let heap_with ?config () =
  let m = mon () in
  (Heap.create ?config m, m)

(* ------------------------------------------------------------------ *)
(* Word                                                                *)
(* ------------------------------------------------------------------ *)

let test_word_basics () =
  let w = Word.ptr ~addr:3 ~node:7 in
  Alcotest.(check bool) "ptr" true (Word.is_ptr w);
  Alcotest.(check bool) "unmarked" false (Word.is_marked w);
  let m = Word.mark w in
  Alcotest.(check bool) "marked" true (Word.is_marked m);
  Alcotest.(check bool) "unmark round-trip" true
    (Word.equal w (Word.unmark m));
  Alcotest.(check int) "addr" 3 (Word.addr_exn m);
  Alcotest.(check int) "node" 7 (Word.node_exn m);
  Alcotest.(check bool) "null not marked" false (Word.is_marked Word.Null)

let test_word_bits () =
  let a = Word.ptr ~addr:3 ~node:7 in
  let b = Word.ptr ~addr:3 ~node:9 in
  (* Different logical nodes at the same address are bit-equal: ABA. *)
  Alcotest.(check bool) "same bits across nodes" true (Word.same_bits a b);
  Alcotest.(check bool) "not structurally equal" false (Word.equal a b);
  Alcotest.(check bool) "mark changes bits" false
    (Word.same_bits a (Word.mark a));
  Alcotest.(check bool) "taint invisible to bits" true
    (Word.same_bits a (Word.taint a));
  Alcotest.(check bool) "ints by value" true
    (Word.same_bits (Word.int 5) (Word.int 5));
  Alcotest.(check bool) "null = null" true (Word.same_bits Word.Null Word.Null)

let test_word_taint () =
  let a = Word.ptr ~addr:1 ~node:1 in
  Alcotest.(check bool) "fresh untainted" false (Word.is_stale a);
  Alcotest.(check bool) "tainted" true (Word.is_stale (Word.taint a));
  Alcotest.(check bool) "mark keeps taint" true
    (Word.is_stale (Word.mark (Word.taint a)))

let test_word_exn () =
  Alcotest.check_raises "mark null" (Invalid_argument "Word.mark: not a pointer")
    (fun () -> ignore (Word.mark Word.Null));
  Alcotest.check_raises "addr of int"
    (Invalid_argument "Word.addr_exn: not a pointer") (fun () ->
      ignore (Word.addr_exn (Word.int 3)))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let test_lifecycle_legal () =
  let ok from to_ =
    Alcotest.(check bool)
      (Fmt.str "%a->%a" Lifecycle.pp from Lifecycle.pp to_)
      true
      (Result.is_ok (Lifecycle.check_transition ~from ~to_))
  in
  ok Lifecycle.Unallocated (Lifecycle.Local 0);
  ok (Lifecycle.Local 0) Lifecycle.Shared;
  ok (Lifecycle.Local 1) Lifecycle.Retired;
  ok Lifecycle.Shared Lifecycle.Retired;
  ok Lifecycle.Retired Lifecycle.Unallocated

let test_lifecycle_illegal () =
  let bad from to_ =
    Alcotest.(check bool)
      (Fmt.str "%a->%a" Lifecycle.pp from Lifecycle.pp to_)
      true
      (Result.is_error (Lifecycle.check_transition ~from ~to_))
  in
  bad Lifecycle.Unallocated Lifecycle.Shared;
  bad Lifecycle.Unallocated Lifecycle.Retired;
  bad Lifecycle.Shared (Lifecycle.Local 0);
  bad Lifecycle.Retired Lifecycle.Shared;
  bad Lifecycle.Retired (Lifecycle.Local 2);
  bad (Lifecycle.Local 0) Lifecycle.Unallocated;
  bad Lifecycle.Shared Lifecycle.Shared

let lifecycle_prop =
  (* Random walks through the automaton never reach a state from which
     the accounting (active iff local/shared) is inconsistent. *)
  QCheck2.Test.make ~name:"lifecycle: is_active matches state" ~count:200
    QCheck2.Gen.(list (int_range 0 3))
    (fun moves ->
      let state = ref Lifecycle.Unallocated in
      List.iter
        (fun m ->
          let candidate =
            match m with
            | 0 -> Lifecycle.Local 0
            | 1 -> Lifecycle.Shared
            | 2 -> Lifecycle.Retired
            | _ -> Lifecycle.Unallocated
          in
          match Lifecycle.check_transition ~from:!state ~to_:candidate with
          | Ok () -> state := candidate
          | Error _ -> ())
        moves;
      Lifecycle.is_active !state
      = (match !state with
        | Lifecycle.Local _ | Lifecycle.Shared -> true
        | Lifecycle.Unallocated | Lifecycle.Retired -> false))

(* ------------------------------------------------------------------ *)
(* Rng / Vec                                                           *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let rng_bounds_prop =
  QCheck2.Test.make ~name:"rng: int within bounds" ~count:500
    QCheck2.Gen.(pair int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let vec_model_prop =
  QCheck2.Test.make ~name:"vec: behaves like a list" ~count:300
    QCheck2.Gen.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && List.for_all (fun i -> Vec.get v i = List.nth xs i)
           (List.init (List.length xs) Fun.id))

let test_vec_find_last () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 4; 2; 4; 3 ];
  Alcotest.(check (option int)) "find_last" (Some 4)
    (Vec.find_last (fun x -> x = 4) v);
  Alcotest.(check (option int)) "absent" None
    (Vec.find_last (fun x -> x = 9) v)

(* ------------------------------------------------------------------ *)
(* Heap: life cycle and validity                                       *)
(* ------------------------------------------------------------------ *)

let test_heap_alloc_retire_reclaim () =
  let h, m = heap_with () in
  let w = Heap.alloc h ~tid:0 ~key:5 in
  Alcotest.(check bool) "valid after alloc" true (Heap.is_valid h w);
  Alcotest.(check int) "active" 1 (Monitor.active m);
  Heap.retire h ~tid:0 w;
  Alcotest.(check bool) "still valid while retired" true (Heap.is_valid h w);
  Alcotest.(check int) "retired" 1 (Monitor.retired m);
  Heap.reclaim h ~tid:0 w;
  Alcotest.(check bool) "invalid after reclaim" false (Heap.is_valid h w);
  Alcotest.(check int) "retired back to 0" 0 (Monitor.retired m);
  Alcotest.(check int) "no violations" 0 (Monitor.violation_count m)

let test_heap_node_identity_on_reuse () =
  let h, _ = heap_with () in
  let w1 = Heap.alloc h ~tid:0 ~key:1 in
  Heap.retire h ~tid:0 w1;
  Heap.reclaim h ~tid:0 w1;
  let w2 = Heap.alloc h ~tid:0 ~key:2 in
  Alcotest.(check int) "address reused" (Word.addr_exn w1) (Word.addr_exn w2);
  Alcotest.(check bool) "different logical node" false
    (Word.node_exn w1 = Word.node_exn w2);
  Alcotest.(check bool) "old pointer invalid" false (Heap.is_valid h w1);
  Alcotest.(check bool) "classified as reused" true
    (Heap.validity h w1 = Heap.Invalid_reused)

let test_heap_double_free () =
  let h, m = heap_with () in
  let w = Heap.alloc h ~tid:0 ~key:1 in
  Heap.retire h ~tid:0 w;
  Heap.retire h ~tid:0 w;
  Alcotest.(check int) "double retire flagged" 1 (Monitor.violation_count m);
  Heap.reclaim h ~tid:0 w;
  Heap.reclaim h ~tid:0 w;
  Alcotest.(check int) "double reclaim flagged" 2 (Monitor.violation_count m)

let test_heap_unsafe_read_taints () =
  let h, m = heap_with () in
  let a = Heap.alloc h ~tid:0 ~key:1 in
  let b = Heap.alloc h ~tid:0 ~key:2 in
  Heap.write_checked h ~tid:0 ~via:a ~field:0 b;
  Heap.retire h ~tid:0 a;
  Heap.reclaim h ~tid:0 a;
  (* Peek through the dangling pointer: unsafe but not a violation. *)
  let w, v = Heap.peek h ~tid:0 ~via:a ~field:0 in
  Alcotest.(check bool) "invalid" true (v <> Heap.Valid);
  Alcotest.(check bool) "tainted" true (Word.is_stale w);
  Alcotest.(check int) "peek is not a violation" 0 (Monitor.violation_count m);
  (* Checked read through it is a use: Definition 4.2(3). *)
  ignore (Heap.read_checked h ~tid:0 ~via:a ~field:0);
  Alcotest.(check int) "checked read violates" 1 (Monitor.violation_count m);
  (* Dereferencing the tainted word is also a use. *)
  ignore (Heap.peek h ~tid:0 ~via:w ~field:0);
  Alcotest.(check bool) "stale deref flagged" true
    (Monitor.violation_count m >= 2)

let test_heap_unsafe_write () =
  let h, m = heap_with () in
  let a = Heap.alloc h ~tid:0 ~key:1 in
  Heap.retire h ~tid:0 a;
  Heap.reclaim h ~tid:0 a;
  Heap.write_checked h ~tid:0 ~via:a ~field:0 Word.Null;
  Alcotest.(check bool) "unsafe write flagged" true
    (List.exists
       (function
         | Event.Violation { kind = Event.Unsafe_write; _ } -> true
         | _ -> false)
       (Monitor.violations m))

let test_heap_aba_cas () =
  (* The heap's plain CAS compares bits, so an ABA scenario succeeds (and
     is flagged); the identity CAS refuses. *)
  let h, m = heap_with () in
  let anchor = Heap.alloc_sentinel h ~tid:0 ~key:0 in
  let a = Heap.alloc h ~tid:0 ~key:1 in
  Heap.write_checked h ~tid:0 ~via:anchor ~field:0 a;
  Heap.retire h ~tid:0 a;
  Heap.reclaim h ~tid:0 a;
  let b = Heap.alloc h ~tid:0 ~key:9 in
  Alcotest.(check int) "same address" (Word.addr_exn a) (Word.addr_exn b);
  Heap.write_checked h ~tid:0 ~via:anchor ~field:0 b;
  (* CAS with the stale expected pointer: bits match (ABA). *)
  let ok =
    Heap.cas_checked h ~tid:0 ~via:anchor ~field:0 ~expected:a ~desired:Word.Null
  in
  Alcotest.(check bool) "bit CAS suffers ABA" true ok;
  Heap.write_checked h ~tid:0 ~via:anchor ~field:0 b;
  let ok2 =
    Heap.cas_identity h ~tid:0 ~via:anchor ~field:0 ~expected:a
      ~desired:Word.Null
  in
  Alcotest.(check bool) "identity CAS immune to ABA" false ok2;
  Alcotest.(check int) "no spurious violations" 0 (Monitor.violation_count m)

let test_heap_system_space () =
  let config = { Heap.default_config with Heap.space = Heap.Return_to_system } in
  let h, m = heap_with ~config () in
  let a = Heap.alloc h ~tid:0 ~key:1 in
  Heap.retire h ~tid:0 a;
  Heap.reclaim h ~tid:0 a;
  Alcotest.(check bool) "system classified" true
    (Heap.validity h a = Heap.Invalid_system);
  ignore (Heap.peek h ~tid:0 ~via:a ~field:0);
  Alcotest.(check bool) "segfault even on peek" true
    (List.exists
       (function
         | Event.Violation { kind = Event.System_space_access; _ } -> true
         | _ -> false)
       (Monitor.violations m));
  (* System cells are never recycled. *)
  let b = Heap.alloc h ~tid:0 ~key:2 in
  Alcotest.(check bool) "no reuse from system space" false
    (Word.addr_exn a = Word.addr_exn b)

let test_heap_capacity () =
  let config = { Heap.default_config with Heap.capacity = Some 4 } in
  let h, _ = heap_with ~config () in
  let ws = List.init 4 (fun k -> Heap.alloc h ~tid:0 ~key:k) in
  Alcotest.check_raises "exhausted" Heap.Heap_exhausted (fun () ->
      ignore (Heap.alloc h ~tid:0 ~key:9));
  (* Reclaiming frees capacity again. *)
  let w = List.hd ws in
  Heap.retire h ~tid:0 w;
  Heap.reclaim h ~tid:0 w;
  ignore (Heap.alloc h ~tid:0 ~key:9)

let test_heap_share_promotion () =
  let h, _ = heap_with () in
  let root = Heap.alloc_sentinel h ~tid:0 ~key:0 in
  let a = Heap.alloc h ~tid:0 ~key:1 in
  Alcotest.(check bool) "local before publish" true
    (match Heap.cell_state h ~addr:(Word.addr_exn a) with
    | Lifecycle.Local _ -> true
    | _ -> false);
  Heap.write_checked h ~tid:0 ~via:root ~field:0 a;
  Alcotest.(check bool) "shared after publish" true
    (Heap.cell_state h ~addr:(Word.addr_exn a) = Lifecycle.Shared);
  Alcotest.(check bool) "entry flag" true
    (Heap.is_entry h ~addr:(Word.addr_exn root));
  Alcotest.(check bool) "non-entry" false
    (Heap.is_entry h ~addr:(Word.addr_exn a))

let heap_counters_prop =
  (* Random alloc/retire/reclaim interleavings keep the monitor counters
     equal to the heap's ground truth. *)
  QCheck2.Test.make ~name:"heap: monitor counters track ground truth"
    ~count:100
    QCheck2.Gen.(list (int_range 0 2))
    (fun moves ->
      let m = Monitor.create ~mode:`Record ~trace:false () in
      let h = Heap.create m in
      let live = ref [] and retired = ref [] in
      let step mv =
        match mv with
        | 0 ->
          let w = Heap.alloc h ~tid:0 ~key:0 in
          live := w :: !live
        | 1 -> (
          match !live with
          | w :: rest ->
            Heap.retire h ~tid:0 w;
            live := rest;
            retired := w :: !retired
          | [] -> ())
        | _ -> (
          match !retired with
          | w :: rest ->
            Heap.reclaim h ~tid:0 w;
            retired := rest
          | [] -> ())
      in
      List.iter step moves;
      Monitor.active m = List.length !live
      && Monitor.retired m = List.length !retired
      && Monitor.violation_count m = 0
      && List.length (Heap.live_nodes h) = List.length !live
      && List.length (Heap.retired_nodes h) = List.length !retired)

let validity_monotone_prop =
  (* Once a pointer goes invalid it never becomes valid again (nodes are
     logical entities: Definition 4.1). *)
  QCheck2.Test.make ~name:"heap: validity is monotone decreasing" ~count:100
    QCheck2.Gen.(list (int_range 0 2))
    (fun moves ->
      let m = Monitor.create ~mode:`Record ~trace:false () in
      let h = Heap.create m in
      let w0 = Heap.alloc h ~tid:0 ~key:0 in
      let dead = ref false in
      let ok = ref true in
      let live = ref [ w0 ] and retired = ref [] in
      let step mv =
        (match mv with
        | 0 -> live := Heap.alloc h ~tid:0 ~key:0 :: !live
        | 1 -> (
          match !live with
          | w :: rest ->
            Heap.retire h ~tid:0 w;
            live := rest;
            retired := w :: !retired
          | [] -> ())
        | _ -> (
          match !retired with
          | w :: rest ->
            Heap.reclaim h ~tid:0 w;
            retired := rest
          | [] -> ()));
        let valid = Heap.is_valid h w0 in
        if !dead && valid then ok := false;
        if not valid then dead := true
      in
      List.iter step moves;
      !ok)

(* ------------------------------------------------------------------ *)
(* Monitor                                                             *)
(* ------------------------------------------------------------------ *)

let test_monitor_raise_mode () =
  let m = Monitor.create ~mode:`Raise () in
  let h = Heap.create m in
  let a = Heap.alloc h ~tid:0 ~key:1 in
  Heap.retire h ~tid:0 a;
  Heap.reclaim h ~tid:0 a;
  Alcotest.(check bool) "raises on violation" true
    (match Heap.read_checked h ~tid:0 ~via:a ~field:0 with
    | _ -> false
    | exception Monitor.Violation _ -> true)

(* The counts follow every Alloc/Retire/Reclaim and the maxima keep
   their peaks after the counts fall back. *)
let test_monitor_maxima () =
  let m = mon () in
  let h = Heap.create m in
  let a = Heap.alloc h ~tid:0 ~key:1 in
  let b = Heap.alloc h ~tid:0 ~key:2 in
  Heap.retire h ~tid:0 a;
  Heap.retire h ~tid:0 b;
  Alcotest.(check (list int)) "active/retired after two retires" [ 0; 2 ]
    [ Monitor.active m; Monitor.retired m ];
  Heap.reclaim h ~tid:0 a;
  Heap.reclaim h ~tid:0 b;
  let c = Heap.alloc h ~tid:0 ~key:3 in
  Heap.retire h ~tid:0 c;
  Alcotest.(check (list int)) "active/retired at the end" [ 0; 1 ]
    [ Monitor.active m; Monitor.retired m ];
  Alcotest.(check int) "max_active keeps its peak" 2 (Monitor.max_active m);
  Alcotest.(check int) "max_retired keeps its peak" 2 (Monitor.max_retired m)

let test_monitor_subscribe () =
  let m = mon () in
  let seen = ref 0 in
  Monitor.subscribe m (fun _ _ -> incr seen);
  Monitor.emit m (Event.Note "a");
  Monitor.emit m (Event.Note "b");
  Alcotest.(check int) "hook called" 2 !seen;
  Alcotest.(check int) "time advanced" 2 (Monitor.time m)

(* Regression: a hook that unsubscribes (itself or a later hook) while a
   dispatch is in flight must not disturb that dispatch — hooks run over
   a stable snapshot, and the removal takes effect from the next
   event. Previously this mutated the hook table mid-iteration. *)
let test_monitor_unsubscribe_during_emit () =
  let m = mon () in
  let a_seen = ref 0 and b_seen = ref 0 in
  let rec a _ _ =
    incr a_seen;
    (* During dispatch, remove both the later hook and ourselves. *)
    Monitor.unsubscribe m b;
    Monitor.unsubscribe m a
  and b _ _ = incr b_seen in
  Monitor.subscribe m a;
  Monitor.subscribe m b;
  Monitor.emit m (Event.Note "during");
  Alcotest.(check int) "a ran" 1 !a_seen;
  Alcotest.(check int) "b still ran (stable snapshot)" 1 !b_seen;
  Monitor.emit m (Event.Note "after");
  Alcotest.(check int) "a detached from next event" 1 !a_seen;
  Alcotest.(check int) "b detached from next event" 1 !b_seen;
  (* Resubscribing after a mid-dispatch unsubscribe works normally. *)
  Monitor.subscribe m b;
  Monitor.emit m (Event.Note "again");
  Alcotest.(check int) "b resubscribed" 2 !b_seen

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "era_sim"
  @@ Shuffle.maybe_shuffle
    [
      ( "word",
        [
          Alcotest.test_case "basics" `Quick test_word_basics;
          Alcotest.test_case "bit-pattern equality" `Quick test_word_bits;
          Alcotest.test_case "taint" `Quick test_word_taint;
          Alcotest.test_case "exceptions" `Quick test_word_exn;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "legal transitions" `Quick test_lifecycle_legal;
          Alcotest.test_case "illegal transitions" `Quick
            test_lifecycle_illegal;
        ] );
      qsuite "lifecycle-props" [ lifecycle_prop ];
      ( "rng-vec",
        [
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          Alcotest.test_case "vec find_last" `Quick test_vec_find_last;
        ] );
      qsuite "rng-vec-props" [ rng_bounds_prop; vec_model_prop ];
      ( "heap",
        [
          Alcotest.test_case "alloc/retire/reclaim" `Quick
            test_heap_alloc_retire_reclaim;
          Alcotest.test_case "node identity on reuse" `Quick
            test_heap_node_identity_on_reuse;
          Alcotest.test_case "double free" `Quick test_heap_double_free;
          Alcotest.test_case "unsafe read taints" `Quick
            test_heap_unsafe_read_taints;
          Alcotest.test_case "unsafe write" `Quick test_heap_unsafe_write;
          Alcotest.test_case "ABA: bit CAS vs identity CAS" `Quick
            test_heap_aba_cas;
          Alcotest.test_case "system space" `Quick test_heap_system_space;
          Alcotest.test_case "capacity" `Quick test_heap_capacity;
          Alcotest.test_case "share promotion" `Quick
            test_heap_share_promotion;
        ] );
      qsuite "heap-props" [ heap_counters_prop; validity_monotone_prop ];
      ( "monitor",
        [
          Alcotest.test_case "raise mode" `Quick test_monitor_raise_mode;
          Alcotest.test_case "active/retired maxima" `Quick
            test_monitor_maxima;
          Alcotest.test_case "subscribe" `Quick test_monitor_subscribe;
          Alcotest.test_case "unsubscribe during emit" `Quick
            test_monitor_unsubscribe_during_emit;
        ] );
    ]
