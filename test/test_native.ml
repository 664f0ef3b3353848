(* Tests for the native (Domain/Atomic) layer: sequential semantics,
   multi-domain stress with verification, and reclamation statistics. *)

open Era_native

module Int_set = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Sequential model checks                                             *)
(* ------------------------------------------------------------------ *)

let test_native_harris_sequential () =
  let module L = N_harris.Make (N_ebr) in
  let g = N_ebr.create ~ndomains:1 in
  let s = N_ebr.thread g 0 in
  let l = L.create () in
  let model = ref Int_set.empty in
  let st = ref 424242L in
  let next () =
    st := Int64.add !st 0x9E3779B97F4A7C15L;
    Int64.to_int (Int64.shift_right_logical !st 3)
  in
  for _ = 1 to 2000 do
    let k = 1 + (next () mod 20) in
    match next () mod 3 with
    | 0 ->
      let e = not (Int_set.mem k !model) in
      model := Int_set.add k !model;
      Alcotest.(check bool) "insert" e (L.insert l s k)
    | 1 ->
      let e = Int_set.mem k !model in
      model := Int_set.remove k !model;
      Alcotest.(check bool) "delete" e (L.delete l s k)
    | _ -> Alcotest.(check bool) "contains" (Int_set.mem k !model)
             (L.contains l s k)
  done;
  Alcotest.(check (list int)) "final" (Int_set.elements !model) (L.to_list l s)

let test_native_michael_sequential () =
  let module L = N_michael.Make (N_hp) in
  let g = N_hp.create ~ndomains:1 in
  let s = N_hp.thread g 0 in
  let l = L.create () in
  let model = ref Int_set.empty in
  let st = ref 99L in
  let next () =
    st := Int64.add !st 0x9E3779B97F4A7C15L;
    Int64.to_int (Int64.shift_right_logical !st 3)
  in
  for _ = 1 to 2000 do
    let k = 1 + (next () mod 20) in
    match next () mod 3 with
    | 0 ->
      let e = not (Int_set.mem k !model) in
      model := Int_set.add k !model;
      Alcotest.(check bool) "insert" e (L.insert l s k)
    | 1 ->
      let e = Int_set.mem k !model in
      model := Int_set.remove k !model;
      Alcotest.(check bool) "delete" e (L.delete l s k)
    | _ -> Alcotest.(check bool) "contains" (Int_set.mem k !model)
             (L.contains l s k)
  done;
  Alcotest.(check (list int)) "final" (Int_set.elements !model) (L.to_list l s)

let test_native_treiber_sequential () =
  let module T = N_treiber.Make (N_ebr) in
  let g = N_ebr.create ~ndomains:1 in
  let s = N_ebr.thread g 0 in
  let t = T.create () in
  Alcotest.(check (option int)) "empty" None (T.pop t s);
  T.push t s 1;
  T.push t s 2;
  Alcotest.(check (option int)) "lifo" (Some 2) (T.pop t s);
  Alcotest.(check (option int)) "lifo2" (Some 1) (T.pop t s)

let test_native_msqueue_sequential () =
  let module Q = N_msqueue.Make (N_hp) in
  let g = N_hp.create ~ndomains:1 in
  let s = N_hp.thread g 0 in
  let q = Q.create () in
  Alcotest.(check (option int)) "empty" None (Q.dequeue q s);
  Q.enqueue q s 1;
  Q.enqueue q s 2;
  Q.enqueue q s 3;
  Alcotest.(check (option int)) "fifo" (Some 1) (Q.dequeue q s);
  Alcotest.(check (option int)) "fifo2" (Some 2) (Q.dequeue q s);
  Alcotest.(check (option int)) "fifo3" (Some 3) (Q.dequeue q s);
  Alcotest.(check (option int)) "empty again" None (Q.dequeue q s)

let test_native_debra_sequential () =
  (* Michael + DEBRA+ under the same 2000-op model as michael+hp. A
     single domain never lags behind its own advances, so no
     neutralization fires — this pins the scheme's plain-EBR face. *)
  let module L = N_michael.Make (N_debra) in
  let g = N_debra.create ~ndomains:1 in
  let s = N_debra.thread g 0 in
  let l = L.create () in
  let model = ref Int_set.empty in
  let st = ref 515151L in
  let next () =
    st := Int64.add !st 0x9E3779B97F4A7C15L;
    Int64.to_int (Int64.shift_right_logical !st 3)
  in
  for _ = 1 to 2000 do
    let k = 1 + (next () mod 20) in
    match next () mod 3 with
    | 0 ->
      let e = not (Int_set.mem k !model) in
      model := Int_set.add k !model;
      Alcotest.(check bool) "insert" e (L.insert l s k)
    | 1 ->
      let e = Int_set.mem k !model in
      model := Int_set.remove k !model;
      Alcotest.(check bool) "delete" e (L.delete l s k)
    | _ -> Alcotest.(check bool) "contains" (Int_set.mem k !model)
             (L.contains l s k)
  done;
  Alcotest.(check (list int)) "final" (Int_set.elements !model) (L.to_list l s);
  Alcotest.(check int) "no neutralization single-domain" 0
    (N_debra.neutralizations g)

(* ------------------------------------------------------------------ *)
(* Multi-domain stress with verifiable outcomes                        *)
(* ------------------------------------------------------------------ *)

let test_native_parallel_disjoint_inserts () =
  (* Two domains insert disjoint key ranges into one Michael+HP list;
     every key must be present at the end. *)
  let module L = N_michael.Make (N_hp) in
  let g = N_hp.create ~ndomains:2 in
  let l = L.create () in
  let worker lo hi d () =
    let s = N_hp.thread g d in
    for k = lo to hi do
      ignore (L.insert l s k)
    done
  in
  let d1 = Domain.spawn (worker 101 200 1) in
  worker 1 100 0 ();
  Domain.join d1;
  let s = N_hp.thread g 0 in
  Alcotest.(check (list int)) "all 200 keys present"
    (List.init 200 (fun i -> i + 1))
    (L.to_list l s)

let test_native_debra_parallel_restarts () =
  (* Two domains insert disjoint ranges into one Michael+DEBRA+ list
     with a tiny amortize period, so advance attempts (and hence
     neutralizations of whichever domain is between announcements) are
     frequent. A neutralized insert restarts from the top; every key
     must still land exactly once. *)
  let module L = N_michael.Make (N_debra) in
  let g = N_debra.create_with ~amortize:1 ~ndomains:2 () in
  let l = L.create () in
  let worker lo hi d () =
    let s = N_debra.thread g d in
    for k = lo to hi do
      ignore (L.insert l s k)
    done
  in
  let d1 = Domain.spawn (worker 101 200 1) in
  worker 1 100 0 ();
  Domain.join d1;
  let s = N_debra.thread g 0 in
  Alcotest.(check (list int)) "all 200 keys present"
    (List.init 200 (fun i -> i + 1))
    (L.to_list l s);
  Alcotest.(check bool) "flag accounting" true
    (N_debra.restarts g <= N_debra.neutralizations g)

let test_native_parallel_churn_counts () =
  (* Two domains each push/pop on a Treiber stack; pushes - successful
     pops = final size, and every popped value was pushed. *)
  let module T = N_treiber.Make (N_ebr) in
  let g = N_ebr.create ~ndomains:2 in
  let t = T.create () in
  let pops = Array.make 2 0 in
  let worker d () =
    let s = N_ebr.thread g d in
    for k = 1 to 5000 do
      T.push t s ((d * 100000) + k);
      if k mod 2 = 0 then
        match T.pop t s with Some _ -> pops.(d) <- pops.(d) + 1 | None -> ()
    done
  in
  let d1 = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d1;
  let s = N_ebr.thread g 0 in
  let remaining = ref 0 in
  let rec drain () =
    match T.pop t s with
    | Some _ ->
      incr remaining;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "push/pop conservation" 10000
    (pops.(0) + pops.(1) + !remaining)

let test_native_queue_fifo_per_producer () =
  (* Single consumer, one producer domain: the consumer must see the
     producer's values in order. *)
  let module Q = N_msqueue.Make (N_ebr) in
  let g = N_ebr.create ~ndomains:2 in
  let q = Q.create () in
  let producer () =
    let s = N_ebr.thread g 1 in
    for k = 1 to 5000 do
      Q.enqueue q s k
    done
  in
  let p = Domain.spawn producer in
  let s = N_ebr.thread g 0 in
  let last = ref 0 in
  let seen = ref 0 in
  let ok = ref true in
  while !seen < 5000 do
    match Q.dequeue q s with
    | Some v ->
      if v <= !last then ok := false;
      last := v;
      incr seen
    | None -> Domain.cpu_relax ()
  done;
  Domain.join p;
  Alcotest.(check bool) "FIFO per producer" true !ok

(* ------------------------------------------------------------------ *)
(* The node as its own atomic cell                                     *)
(* ------------------------------------------------------------------ *)

(* [Nnode.next] views the node itself as a [link Atomic.t]: every atomic
   primitive must act on the node's link and nothing else. *)
let test_nnode_cell () =
  let open Nnode in
  Alcotest.(check bool) "nil's link targets nil" true ((get nil).target == nil);
  let a = make ~key:1 and b = make ~key:2 in
  Alcotest.(check bool) "fresh link is unmarked nil" true
    ((get a).target == nil && not (get a).marked);
  let l = link b in
  Atomic.set (next a) l;
  Alcotest.(check bool) "set is seen by get" true (get a == l);
  Alcotest.(check bool) "CAS with an equal but stale link fails" false
    (Atomic.compare_and_set (next a) (link b) (link nil));
  Alcotest.(check bool) "failed CAS leaves the link" true (get a == l);
  let m = link ~marked:true b in
  Alcotest.(check bool) "CAS with the read link succeeds" true
    (Atomic.compare_and_set (next a) l m);
  Alcotest.(check bool) "CAS result is seen by get" true (get a == m);
  Alcotest.(check bool) "exchange returns the old link" true
    (Atomic.exchange (next a) l == m);
  Alcotest.(check (pair int int)) "key and birth untouched" (1, 0)
    (a.key, a.birth);
  (* Write barrier: a major-heap node pointing at a minor-heap link must
     keep it alive and intact across a minor collection. *)
  Gc.full_major ();
  Atomic.set (next a) (link (make ~key:42));
  Gc.minor ();
  Gc.full_major ();
  Alcotest.(check int) "young target survives promotion" 42
    (get a).target.key;
  let r = recycle a ~key:7 in
  Alcotest.(check bool) "recycle reuses the node" true (r == a);
  Alcotest.(check int) "recycle sets the key" 7 a.key;
  Alcotest.(check bool) "recycle installs a fresh unmarked nil link" true
    ((get a).target == nil && (not (get a).marked) && get a != l);
  Alcotest.(check bool) "recycling nil allocates" true
    (recycle nil ~key:3 != nil && nil.key = max_int)

let with_small_minor_heap f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 4096 };
  Fun.protect f ~finally:(fun () -> Gc.set saved)

let splitmix seed =
  let st = ref seed in
  fun () ->
    st := Int64.add !st 0x9E3779B97F4A7C15L;
    Int64.to_int (Int64.shift_right_logical !st 3)

(* Spin until both workers are running, so their phases overlap instead
   of one finishing while the other domain is still being spawned. *)
let start_together ready =
  Atomic.incr ready;
  while Atomic.get ready < 2 do
    Domain.cpu_relax ()
  done

let check_reclaim_accounting g =
  let st = N_ebr.stats g in
  Alcotest.(check int) "reclaimed + backlog = retired" st.Nsmr.retired
    (st.Nsmr.reclaimed + st.Nsmr.backlog)

module type EBR_SET = sig
  type t

  val create : unit -> t
  val insert : t -> N_ebr.tctx -> int -> bool
  val delete : t -> N_ebr.tctx -> int -> bool
  val to_list : t -> N_ebr.tctx -> int list
end

(* Two-domain churn under a tiny minor heap, with full major collections
   between phases, so link CASes keep crossing the minor/major boundary.
   The checks are perfbench's: a strictly ascending list, conserved
   size, and [reclaimed + backlog = retired] at quiescence. *)
let set_churn (module L : EBR_SET) () =
  with_small_minor_heap @@ fun () ->
  let keys = 32 and phase_ops = 100_000 in
  let g = N_ebr.create ~ndomains:2 in
  let l = L.create () in
  let s0 = N_ebr.thread g 0 in
  let prefill = ref 0 in
  for k = 0 to keys - 1 do
    if k land 1 = 0 && L.insert l s0 k then incr prefill
  done;
  let ready = Atomic.make 0 in
  let worker d () =
    let s = N_ebr.thread g d in
    let next = splitmix (Int64.of_int (77 + d)) in
    start_together ready;
    let ins = ref 0 and del = ref 0 in
    for _ = 1 to phase_ops do
      let k = next () mod keys in
      if next () land 1 = 0 then (if L.insert l s k then incr ins)
      else if L.delete l s k then incr del
    done;
    (!ins, !del)
  in
  let net = ref !prefill in
  for _ = 1 to 3 do
    Gc.full_major ();
    Atomic.set ready 0;
    let d1 = Domain.spawn (worker 1) in
    let i0, d0 = worker 0 () in
    let i1, d1 = Domain.join d1 in
    net := !net + i0 + i1 - d0 - d1
  done;
  Gc.full_major ();
  let final = L.to_list l s0 in
  let rec ascending = function
    | a :: (b :: _ as tl) -> a < b && ascending tl
    | _ -> true
  in
  Alcotest.(check bool) "strictly ascending" true (ascending final);
  Alcotest.(check int) "prefill + inserts - deletes" !net
    (List.length final);
  check_reclaim_accounting g

let test_treiber_churn () =
  with_small_minor_heap @@ fun () ->
  let module T = N_treiber.Make (N_ebr) in
  let phase_ops = 100_000 and prefill = 32 in
  let g = N_ebr.create ~ndomains:2 in
  let t = T.create () in
  let s0 = N_ebr.thread g 0 in
  for v = 1 to prefill do
    T.push t s0 (-v)
  done;
  let ready = Atomic.make 0 in
  let worker phase d () =
    let s = N_ebr.thread g d in
    let next = splitmix (Int64.of_int (5 + d)) in
    start_together ready;
    let pushed = ref 0 and popped = ref [] in
    for i = 1 to phase_ops do
      if next () land 1 = 0 then begin
        T.push t s ((((phase * 2) + d) * phase_ops) + i);
        incr pushed
      end
      else
        match T.pop t s with Some v -> popped := v :: !popped | None -> ()
    done;
    (!pushed, !popped)
  in
  let pushes = ref prefill and popped = ref [] in
  for phase = 0 to 2 do
    Gc.full_major ();
    Atomic.set ready 0;
    let d1 = Domain.spawn (worker phase 1) in
    let p0, v0 = worker phase 0 () in
    let p1, v1 = Domain.join d1 in
    pushes := !pushes + p0 + p1;
    popped := v0 @ v1 @ !popped
  done;
  Gc.full_major ();
  let rec drain acc =
    match T.pop t s0 with Some v -> drain (v :: acc) | None -> acc
  in
  let remaining = drain [] in
  Alcotest.(check int) "prefill + pushes - pops" (!pushes - List.length !popped)
    (List.length remaining);
  let seen = List.sort_uniq compare (remaining @ !popped) in
  Alcotest.(check int) "every value popped or left exactly once" !pushes
    (List.length seen);
  check_reclaim_accounting g

(* ------------------------------------------------------------------ *)
(* Limbo bags and pools                                                *)
(* ------------------------------------------------------------------ *)

let test_limbo_free_le () =
  let l = Limbo.create () in
  (* 3 epochs x 100 nodes: tags non-decreasing, bags seal on tag change. *)
  let all = Array.init 300 (fun i -> Nnode.make ~key:i) in
  Array.iteri (fun i n -> Limbo.push l ~tag:(i / 100) n) all;
  Alcotest.(check int) "size" 300 (Limbo.size l);
  let last = ref min_int in
  Limbo.iter l ~f:(fun tag _ ->
      Alcotest.(check bool) "tags non-decreasing along the chain" true
        (tag >= !last);
      last := tag);
  let free_count = ref 0 in
  let freed = Limbo.free_le l ~horizon:1 ~free:(fun _ -> incr free_count) in
  Alcotest.(check int) "freed exactly tags 0-1" 200 freed;
  Alcotest.(check int) "free callback per node" 200 !free_count;
  Alcotest.(check int) "remaining" 100 (Limbo.size l);
  Limbo.iter l ~f:(fun tag _ -> Alcotest.(check int) "survivor tag" 2 tag);
  (* Draining everything reopens a blank bag; pushes still work. *)
  ignore (Limbo.free_le l ~horizon:10 ~free:(fun _ -> ()));
  Alcotest.(check int) "drained" 0 (Limbo.size l);
  Limbo.push l ~tag:7 (Nnode.make ~key:1);
  Alcotest.(check int) "usable after drain" 1 (Limbo.size l)

let test_limbo_sweep () =
  let l = Limbo.create () in
  let nodes = Array.init 200 (fun i -> Nnode.make ~key:i) in
  Array.iter (fun n -> Limbo.push l ~tag:0 n) nodes;
  let pool = Limbo.Pool.create () in
  let freed =
    Limbo.sweep l
      ~keep:(fun _ n -> n.Nnode.key land 1 = 0)
      ~free:(fun n -> Limbo.Pool.put pool n)
  in
  Alcotest.(check int) "odd keys freed" 100 freed;
  Alcotest.(check int) "pool holds the freed nodes" 100 (Limbo.Pool.size pool);
  Alcotest.(check int) "even keys stay" 100 (Limbo.size l);
  Limbo.iter l ~f:(fun _ n ->
      Alcotest.(check bool) "survivors all even" true (n.Nnode.key land 1 = 0));
  (* A sweep that frees everything recycles every bag but one, so the
     chain stays usable. *)
  ignore (Limbo.sweep l ~keep:(fun _ _ -> false) ~free:(fun _ -> ()));
  Alcotest.(check int) "empty after full sweep" 0 (Limbo.size l);
  Limbo.push l ~tag:0 (Nnode.make ~key:1);
  Alcotest.(check int) "usable after full sweep" 1 (Limbo.size l)

let test_limbo_pool () =
  let p = Limbo.Pool.create () in
  Alcotest.(check bool) "take on empty is nil" true
    (Limbo.Pool.take p == Nnode.nil);
  (* Push past the initial capacity to exercise the doubling. *)
  let nodes = Array.init 200 (fun i -> Nnode.make ~key:i) in
  Array.iter (Limbo.Pool.put p) nodes;
  Alcotest.(check int) "size" 200 (Limbo.Pool.size p);
  Alcotest.(check bool) "mem sees a pooled node" true
    (Limbo.Pool.mem p nodes.(5));
  let n = Limbo.Pool.take p in
  Alcotest.(check bool) "take returns a node" true (n != Nnode.nil);
  Alcotest.(check bool) "taken node leaves the pool" false
    (Limbo.Pool.mem p n);
  Alcotest.(check int) "size after take" 199 (Limbo.Pool.size p)

(* ------------------------------------------------------------------ *)
(* Protected-never-pooled properties                                   *)
(* ------------------------------------------------------------------ *)

(* A deterministic adversarial interleaving of a protector domain and a
   retirer domain sharing one HP instance: whatever the order of
   protects, retires (including retiring the currently protected node)
   and scan-forcing churn, a node published in a hazard slot must never
   be recycled into a pool. The protected set is tracked externally and
   compared against the scheme's own pool after every step that can
   scan. *)
let hp_protected_never_pooled =
  QCheck2.Test.make ~name:"hp: protected node never pooled" ~count:60
    QCheck2.Gen.(
      list_size (int_range 10 80) (pair (int_range 0 3) (int_range 0 15)))
    (fun steps ->
      let g = N_hp.create ~ndomains:2 in
      let t0 = N_hp.thread g 0 (* retirer *)
      and t1 = N_hp.thread g 1 (* protector *) in
      let nodes = Array.init 16 (fun i -> Nnode.make ~key:i) in
      let holder = Nnode.make ~key:(-1) in
      let retired = Array.make 16 false in
      let protected_ = ref (-1) in
      let ok = ref true in
      let check () =
        if !protected_ >= 0 && N_hp.in_pool t0 nodes.(!protected_) then
          ok := false
      in
      List.iter
        (fun (op, i) ->
          match op with
          | 0 ->
            (* Protect node i (only live nodes — protect-validate would
               reject a retired one at the list layer). *)
            if not retired.(i) then begin
              N_hp.begin_op t1;
              Atomic.set (Nnode.next holder) (Nnode.link nodes.(i));
              ignore (N_hp.read_link t1 holder);
              protected_ := i
            end
          | 1 ->
            N_hp.end_op t1;
            protected_ := -1
          | 2 ->
            if not retired.(i) then begin
              retired.(i) <- true;
              N_hp.retire t0 nodes.(i);
              check ()
            end
          | _ ->
            (* Churn enough fresh dummies through the retirer to force a
               threshold scan. *)
            for k = 1 to N_hp.scan_threshold do
              N_hp.retire t0 (Nnode.make ~key:(1000 + k))
            done;
            check ())
        steps;
      (* Once protection drops, a forced scan must recycle every
         previously retired node — protection delays reuse, it does not
         leak. *)
      N_hp.end_op t1;
      protected_ := -1;
      for k = 1 to N_hp.scan_threshold do
        N_hp.retire t0 (Nnode.make ~key:(2000 + k))
      done;
      Array.iteri
        (fun i n -> if retired.(i) && not (N_hp.in_pool t0 n) then ok := false)
        nodes;
      !ok)

(* The IBR analogue: a retired node whose [birth, retire] interval
   intersects the reserver's externally tracked [lo, hi] must never be
   in the retirer's pool at the first check after the scan that could
   have freed it. Nodes are allocated through the scheme so births are
   stamped and the pool recycles for real; a tracked node that is freed
   legitimately (checked against the reservation active at that moment)
   is marked escaped, because churn allocs may then resurrect it with
   fresh birth/retire metadata. *)
let ibr_reserved_never_pooled =
  QCheck2.Test.make ~name:"ibr: reserved interval never pooled" ~count:60
    QCheck2.Gen.(
      list_size (int_range 10 80) (pair (int_range 0 3) (int_range 0 15)))
    (fun steps ->
      let g = N_ibr.create ~ndomains:2 in
      let t0 = N_ibr.thread g 0 (* retirer *)
      and t1 = N_ibr.thread g 1 (* reserver *) in
      let nodes = Array.init 16 (fun i -> N_ibr.alloc t0 (i + 1)) in
      let birth = Array.map (fun n -> n.Nnode.birth) nodes in
      let holder = Nnode.make ~key:0 in
      let retired = Array.make 16 (-1) in (* retire epoch; -1 = live *)
      let escaped = Array.make 16 false in
      let resv = ref None in (* externally tracked [lo, hi] *)
      let ok = ref true in
      (* Every step that can scan ends with [check], so each free is
         validated against the reservation active when it happened
         before the reservation can change. *)
      let check () =
        Array.iteri
          (fun i n ->
            if (not escaped.(i)) && retired.(i) >= 0 && N_ibr.in_pool t0 n
            then begin
              (match !resv with
              | Some (lo, hi) when retired.(i) >= lo && birth.(i) <= hi ->
                ok := false
              | _ -> ());
              escaped.(i) <- true
            end)
          nodes
      in
      List.iter
        (fun (op, i) ->
          match op with
          | 0 ->
            if retired.(i) < 0 && not escaped.(i) then begin
              N_ibr.begin_op t1;
              let lo = N_ibr.current_epoch g in
              Atomic.set (Nnode.next holder) (Nnode.link nodes.(i));
              ignore (N_ibr.read_link t1 holder);
              resv := Some (lo, N_ibr.current_epoch g)
            end
          | 1 ->
            N_ibr.end_op t1;
            resv := None
          | 2 ->
            if retired.(i) < 0 && not escaped.(i) then begin
              retired.(i) <- N_ibr.current_epoch g;
              N_ibr.retire t0 nodes.(i);
              check ()
            end
          | _ ->
            (* Alloc-then-retire churn: advances the epoch and forces
               threshold scans. Allocs may resurrect escaped nodes. *)
            let dummies =
              Array.init N_ibr.scan_threshold (fun k ->
                  N_ibr.alloc t0 (100 + k))
            in
            Array.iter (fun d -> N_ibr.retire t0 d) dummies;
            check ())
        steps;
      !ok)

(* ------------------------------------------------------------------ *)
(* DEBRA+ neutralization                                               *)
(* ------------------------------------------------------------------ *)

let test_native_debra_neutralization_unblocks () =
  (* The E9 scenario in miniature, single-threaded and deterministic:
     domain 1 opens an operation and stalls; domain 0 churns. After
     [patience] blocked advance attempts the observer flags the
     laggard, the epoch advances past it and reclamation resumes. The
     victim's next protected read consumes the flag and unwinds. *)
  let g = N_debra.create_with ~amortize:1 ~ndomains:2 () in
  let t0 = N_debra.thread g 0 and t1 = N_debra.thread g 1 in
  N_debra.begin_op t1;
  (* victim stalled *)
  for k = 1 to 200 do
    N_debra.begin_op t0;
    N_debra.retire t0 (Nnode.make ~key:k);
    N_debra.end_op t0
  done;
  Alcotest.(check bool) "laggard flagged" true (N_debra.neutralizations g >= 1);
  Alcotest.(check bool) "churner reclaims despite the stall" true
    (N_debra.reclaimed g > 100);
  Alcotest.(check int) "flag not yet consumed" 0 (N_debra.restarts g);
  let holder = Nnode.make ~key:0 in
  (match N_debra.read_link t1 holder with
  | _ -> Alcotest.fail "stalled victim's next read must neutralize"
  | exception Nsmr.Neutralized -> ());
  Alcotest.(check int) "restart recorded" 1 (N_debra.restarts g);
  (* The restarted operation proceeds normally: re-announced at the
     current epoch, reads succeed, and the op closes. *)
  N_debra.begin_op t1;
  ignore (N_debra.read_link t1 holder);
  N_debra.end_op t1

(* The DEBRA+ analogue of the two properties above, driving the scheme
   API directly through an adversarial interleaving of a victim and a
   churner/observer context. The invariants:

   - epoch protection with neutralization: a node retired during the
     victim's current operation attempt can only be freed once the
     victim has been flagged — so whenever the victim completes a
     [read_link] {e without} raising, none of those nodes is in the
     churner's pool;
   - restart hygiene: when the victim {e is} neutralized, every node it
     allocated in the abandoned attempt is back in its pool (no leak,
     no double hand-off), and the flag accounting balances.

   The victim only re-reads nodes retired during its current attempt
   (a pointer held across a restart is abandoned by construction — the
   restart wrapper re-traverses from the root, which is exactly why
   only restartable structures may use the scheme). *)
let debra_neutralized_never_derefs_pooled =
  QCheck2.Test.make ~name:"debra: victim never handed a pooled node" ~count:60
    QCheck2.Gen.(
      list_size (int_range 10 80) (pair (int_range 0 3) (int_range 0 15)))
    (fun steps ->
      let g = N_debra.create_with ~amortize:1 ~ndomains:2 () in
      let t0 = N_debra.thread g 0 (* churner / observer *)
      and t1 = N_debra.thread g 1 (* victim *) in
      let nodes = Array.init 16 (fun i -> Nnode.make ~key:i) in
      let holder = Nnode.make ~key:(-1) in
      let att = ref 0 in
      let retire_att = Array.make 16 (-1) in (* attempt when retired *)
      let victim_fresh = ref [] in
      let ok = ref true in
      let restart () =
        (* The restart wrapper's view: abandoned allocations must
           already be back in the victim's own pool. *)
        List.iter
          (fun n -> if not (N_debra.in_pool t1 n) then ok := false)
          !victim_fresh;
        victim_fresh := [];
        incr att;
        N_debra.begin_op t1
      in
      N_debra.begin_op t1;
      List.iter
        (fun (op, i) ->
          match op with
          | 0 ->
            (* Victim dereference. Eligible targets: live nodes, or
               nodes retired during this very attempt (the pointer was
               obtained before the retire — HP's protected-then-retired
               case, played on epochs). *)
            if retire_att.(i) = -1 || retire_att.(i) = !att then begin
              Atomic.set (Nnode.next holder) (Nnode.link nodes.(i));
              match N_debra.read_link t1 holder with
              | _ ->
                (* No flag: nothing retired during this attempt may
                   have been freed. *)
                Array.iteri
                  (fun j n ->
                    if retire_att.(j) = !att && N_debra.in_pool t0 n then
                      ok := false)
                  nodes
              | exception Nsmr.Neutralized -> restart ()
            end
          | 1 ->
            (* Victim allocates into the in-progress attempt. *)
            let n = N_debra.alloc t1 (100 + i) in
            victim_fresh := n :: !victim_fresh
          | 2 ->
            if retire_att.(i) = -1 then begin
              retire_att.(i) <- !att;
              N_debra.retire t0 nodes.(i)
            end
          | _ ->
            (* Churner op: amortize = 1, so every begin_op runs the
               slow path — an advance attempt (building the victim's
               lag towards [patience]) plus a free pass. *)
            N_debra.begin_op t0;
            N_debra.retire t0 (Nnode.make ~key:(1000 + i));
            N_debra.end_op t0)
        steps;
      N_debra.end_op t1;
      if N_debra.restarts g > N_debra.neutralizations g then ok := false;
      !ok)

let test_e9_debra_bounded () =
  (* The native face of Figure 1's survival: same stalled-domain row as
     E9, but the stall gets neutralized and the backlog stays bounded
     while reclamation proceeds. Contrast test_e9_shape's EBR row
     (backlog tracks churn volume, nothing reclaimed). *)
  let r = Throughput.e9_row ~scheme:`Debra ~churn_ops:20_000 () in
  Alcotest.(check int) "stalled domain is a one-shot"
    ((2 * 20_000) + 1)
    r.Throughput.total_ops;
  Alcotest.(check bool) "debra backlog bounded under stall" true
    (r.Throughput.max_backlog < 2_000);
  Alcotest.(check bool) "debra reclaims despite the stall" true
    (r.Throughput.reclaimed > 10_000)

let test_e8_debra_harris_refused () =
  Alcotest.(check bool) "debra+harris pairing refused" true
    (match
       Throughput.e8_row Throughput.Harris ~scheme:`Debra Throughput.Churn
         ~domains:1 ~ops_per_domain:10
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Reclamation statistics                                              *)
(* ------------------------------------------------------------------ *)

let test_native_ebr_reclaims () =
  let module L = N_michael.Make (N_ebr) in
  let g = N_ebr.create ~ndomains:1 in
  let s = N_ebr.thread g 0 in
  let l = L.create () in
  for k = 1 to 1000 do
    ignore (L.insert l s (k mod 10));
    ignore (L.delete l s (k mod 10))
  done;
  Alcotest.(check bool) "ebr recycles" true (N_ebr.reclaimed g > 100);
  (* The amortized slow path runs every [default_amortize] ops, so up to
     a few epochs' worth of retires may sit in limbo between frees. *)
  Alcotest.(check bool) "backlog small" true
    (N_ebr.backlog g < 4 * N_ebr.default_amortize)

let test_native_ebr_amortize_differential () =
  (* Amortization may only change when reclamation happens, never list
     semantics: the same op sequence against K=1 (per-op epoch checks,
     the unamortized scheme) and the default K must produce identical
     final contents. *)
  let module L = N_michael.Make (N_ebr) in
  let run g =
    let s = N_ebr.thread g 0 in
    let l = L.create () in
    let st = ref 7L in
    let next () =
      st := Int64.add !st 0x9E3779B97F4A7C15L;
      Int64.to_int (Int64.shift_right_logical !st 3)
    in
    for _ = 1 to 3000 do
      let k = 1 + (next () mod 40) in
      match next () mod 3 with
      | 0 -> ignore (L.insert l s k)
      | 1 -> ignore (L.delete l s k)
      | _ -> ignore (L.contains l s k)
    done;
    L.to_list l s
  in
  let unamortized = run (N_ebr.create_with ~amortize:1 ~ndomains:1 ()) in
  let amortized = run (N_ebr.create ~ndomains:1) in
  Alcotest.(check (list int)) "identical final contents" unamortized amortized

let test_native_hp_bounded_backlog () =
  let module L = N_michael.Make (N_hp) in
  let g = N_hp.create ~ndomains:1 in
  let s = N_hp.thread g 0 in
  let l = L.create () in
  for k = 1 to 2000 do
    ignore (L.insert l s (k mod 10));
    ignore (L.delete l s (k mod 10))
  done;
  Alcotest.(check bool) "hp backlog bounded" true
    (N_hp.max_backlog g <= N_hp.scan_threshold)

let test_e9_shape () =
  (* The robustness trade-off: a stalled domain blows up EBR's backlog
     but not HP's. *)
  let ebr = Throughput.e9_row ~scheme:`Ebr ~churn_ops:20_000 () in
  let hp = Throughput.e9_row ~scheme:`Hp ~churn_ops:20_000 () in
  (* The stalled domain performs exactly one (never-ending) op, so the
     row's op count is the two churners' plus one — computed, not
     patched. A wrong count here means the stall is no longer a genuine
     one-shot. *)
  Alcotest.(check int) "stalled domain is a one-shot"
    ((2 * 20_000) + 1)
    ebr.Throughput.total_ops;
  Alcotest.(check bool) "ebr backlog explodes" true
    (ebr.Throughput.max_backlog > 1000);
  Alcotest.(check bool) "ebr backlog tracks churn volume" true
    (ebr.Throughput.max_backlog > 2 * 20_000 / 8);
  Alcotest.(check bool) "hp backlog bounded" true
    (hp.Throughput.max_backlog <= 2 * 64);
  Alcotest.(check bool) "ebr reclaimed nothing under stall" true
    (ebr.Throughput.reclaimed < ebr.Throughput.max_backlog / 2)

let test_e8_hp_harris_refused () =
  Alcotest.(check bool) "hp+harris pairing refused" true
    (match
       Throughput.e8_row Throughput.Harris ~scheme:`Hp Throughput.Churn
         ~domains:1 ~ops_per_domain:10
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "era_native"
    [
      ( "sequential",
        [
          Alcotest.test_case "harris+ebr model" `Quick
            test_native_harris_sequential;
          Alcotest.test_case "michael+hp model" `Quick
            test_native_michael_sequential;
          Alcotest.test_case "michael+debra model" `Quick
            test_native_debra_sequential;
          Alcotest.test_case "treiber" `Quick test_native_treiber_sequential;
          Alcotest.test_case "msqueue" `Quick test_native_msqueue_sequential;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "disjoint inserts" `Slow
            test_native_parallel_disjoint_inserts;
          Alcotest.test_case "debra disjoint inserts with restarts" `Slow
            test_native_debra_parallel_restarts;
          Alcotest.test_case "stack conservation" `Slow
            test_native_parallel_churn_counts;
          Alcotest.test_case "queue FIFO" `Slow
            test_native_queue_fifo_per_producer;
        ] );
      ( "node cell",
        [
          Alcotest.test_case "atomic view of the link" `Quick test_nnode_cell;
          Alcotest.test_case "michael+ebr churn across GC" `Slow
            (set_churn (module N_michael.Make (N_ebr)));
          Alcotest.test_case "harris+ebr churn across GC" `Slow
            (set_churn (module N_harris.Make (N_ebr)));
          Alcotest.test_case "treiber+ebr churn across GC" `Slow
            test_treiber_churn;
        ] );
      ( "limbo",
        [
          Alcotest.test_case "free_le" `Quick test_limbo_free_le;
          Alcotest.test_case "sweep" `Quick test_limbo_sweep;
          Alcotest.test_case "pool" `Quick test_limbo_pool;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "ebr recycles" `Quick test_native_ebr_reclaims;
          Alcotest.test_case "ebr amortize differential" `Quick
            test_native_ebr_amortize_differential;
          Alcotest.test_case "hp bounded backlog" `Quick
            test_native_hp_bounded_backlog;
          QCheck_alcotest.to_alcotest hp_protected_never_pooled;
          QCheck_alcotest.to_alcotest ibr_reserved_never_pooled;
          Alcotest.test_case "E9 shape" `Slow test_e9_shape;
          Alcotest.test_case "hp+harris refused" `Quick
            test_e8_hp_harris_refused;
        ] );
      ( "neutralization",
        [
          Alcotest.test_case "stall flagged, epoch unblocked" `Quick
            test_native_debra_neutralization_unblocks;
          QCheck_alcotest.to_alcotest debra_neutralized_never_derefs_pooled;
          Alcotest.test_case "E9 debra bounded" `Slow test_e9_debra_bounded;
          Alcotest.test_case "debra+harris refused" `Quick
            test_e8_debra_harris_refused;
        ] );
    ]
