(* Tests for the effects-based scheduler: fiber quanta, scripts, stalls,
   solo-run budgets, operation recording, and the per-yield decision
   point. *)

open Era_sim
module Sched = Era_sched.Sched
module Mem = Era_sched.Mem

let setup ?(nthreads = 2) strategy =
  let mon = Monitor.create ~mode:`Record ~trace:true () in
  let heap = Heap.create mon in
  (Sched.create ~nthreads strategy heap, mon)

let test_round_robin_completes () =
  let sched, _ = setup Sched.Round_robin in
  let log = ref [] in
  Sched.spawn sched ~tid:0 (fun ctx ->
      for _ = 1 to 3 do
        Sched.yield ctx;
        log := 0 :: !log
      done);
  Sched.spawn sched ~tid:1 (fun ctx ->
      for _ = 1 to 3 do
        Sched.yield ctx;
        log := 1 :: !log
      done);
  Alcotest.(check bool) "all finished" true (Sched.run sched = Sched.All_finished);
  Alcotest.(check (list int)) "perfect alternation" [ 1; 0; 1; 0; 1; 0 ] !log;
  Alcotest.(check int) "steps counted" 4 (Sched.steps_of sched 0)

let test_yield_is_one_quantum () =
  (* Each quantum runs exactly the code between two yields. *)
  let sched, _ = setup ~nthreads:1 Sched.Round_robin in
  let trace = ref [] in
  Sched.spawn sched ~tid:0 (fun ctx ->
      trace := "a" :: !trace;
      Sched.yield ctx;
      trace := "b" :: !trace;
      Sched.yield ctx;
      trace := "c" :: !trace);
  ignore (Sched.run sched);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !trace)

let test_script_run_until () =
  let sched, mon = setup (Sched.Script [
      Sched.Run_until_label (0, "checkpoint");
      Sched.Finish 1;
      Sched.Finish 0;
    ])
  in
  let order = ref [] in
  Sched.spawn sched ~tid:0 (fun ctx ->
      order := "t0-pre" :: !order;
      Sched.label ctx "checkpoint";
      Sched.yield ctx;
      order := "t0-post" :: !order);
  Sched.spawn sched ~tid:1 (fun ctx ->
      Sched.yield ctx;
      order := "t1" :: !order);
  Alcotest.(check bool) "finished" true (Sched.run sched = Sched.All_finished);
  Alcotest.(check (list string))
    "t1 ran while t0 was parked at the label"
    [ "t0-pre"; "t1"; "t0-post" ]
    (List.rev !order);
  Alcotest.(check bool) "label recorded" true
    (List.exists
       (function Event.Label { name = "checkpoint"; _ } -> true | _ -> false)
       (Monitor.trace mon))

let test_script_run_steps () =
  let sched, _ =
    setup (Sched.Script [ Sched.Run (0, 2); Sched.Run (1, 1); Sched.Finish_all ])
  in
  let log = ref [] in
  let body tid ctx =
    for _ = 1 to 3 do
      Sched.yield ctx;
      log := tid :: !log
    done
  in
  Sched.spawn sched ~tid:0 (body 0);
  Sched.spawn sched ~tid:1 (body 1);
  ignore (Sched.run sched);
  Alcotest.(check (list int)) "quantum accounting" [ 0; 0; 1; 0; 1; 1 ]
    (List.rev !log)

let test_stall_skips_thread () =
  let sched, _ = setup Sched.Round_robin in
  let ran1 = ref false in
  Sched.spawn sched ~tid:0 (fun ctx -> Sched.yield ctx);
  Sched.spawn sched ~tid:1 (fun ctx ->
      Sched.yield ctx;
      ran1 := true);
  Sched.stall sched 1;
  Alcotest.(check bool) "stalled remains" true (Sched.run sched = Sched.No_runnable);
  Alcotest.(check bool) "t1 never ran" false !ran1;
  Sched.unstall sched 1;
  Alcotest.(check bool) "resumes" true (Sched.run sched = Sched.All_finished);
  Alcotest.(check bool) "t1 ran" true !ran1

let test_finish_bounded_flags_progress () =
  let sched, mon =
    setup ~nthreads:1 (Sched.Script [ Sched.Finish_bounded (0, 10) ])
  in
  Sched.spawn sched ~tid:0 (fun ctx ->
      while true do
        Sched.yield ctx
      done);
  ignore (Sched.run sched);
  Alcotest.(check bool) "progress violation" true
    (List.exists
       (function
         | Event.Violation { kind = Event.Progress_failure; _ } -> true
         | _ -> false)
       (Monitor.violations mon))

(* A budget of zero or less is spent before the first quantum: the live
   thread is flagged at once and the script ends, instead of the budget
   being re-armed at every pick until the step limit. *)
let test_finish_bounded_spent_budget () =
  List.iter
    (fun budget ->
      let mon = Monitor.create ~mode:`Record ~trace:true () in
      let sched =
        Sched.create ~max_steps:10_000 ~nthreads:1
          (Sched.Script [ Sched.Finish_bounded (0, budget) ])
          (Heap.create mon)
      in
      Sched.spawn sched ~tid:0 (fun ctx ->
          while true do
            Sched.yield ctx
          done);
      let outcome = Sched.run sched in
      let label = Fmt.str "budget %d" budget in
      Alcotest.(check bool) (label ^ ": script done") true
        (outcome = Sched.Script_done);
      Alcotest.(check int) (label ^ ": no quantum ran") 0
        (Sched.total_steps sched);
      Alcotest.(check bool) (label ^ ": progress violation") true
        (List.exists
           (function
             | Event.Violation { kind = Event.Progress_failure; _ } -> true
             | _ -> false)
           (Monitor.violations mon)))
    [ 0; -5 ]

let test_random_deterministic () =
  let run seed =
    let sched, mon = setup (Sched.Random (Rng.create seed)) in
    let body _tid ctx =
      for k = 1 to 5 do
        Mem.fence ctx ~event:(Event.Note (string_of_int k)) ()
      done
    in
    Sched.spawn sched ~tid:0 (body 0);
    Sched.spawn sched ~tid:1 (body 1);
    ignore (Sched.run sched);
    List.map Event.to_string (Monitor.trace mon)
  in
  Alcotest.(check (list string)) "same seed, same schedule" (run 5) (run 5);
  Alcotest.(check bool) "different seeds diverge" true
    (run 5 <> run 6 || run 5 <> run 7)

(* ------------------------------------------------------------------ *)
(* Golden determinism traces                                           *)
(*                                                                     *)
(* Captured from the build before the scratch-buffer pick path and the *)
(* monitor fast path landed. A seeded Random run must reproduce both   *)
(* the per-quantum tid sequence (same Rng draws) and the monitor event *)
(* trace (same observed behaviour) bit for bit.                        *)
(* ------------------------------------------------------------------ *)

(* Staggered finish times shrink the candidate set as threads finish,
   exercising pick_random's index arithmetic. *)
let golden_random_run seed =
  let mon = Monitor.create ~mode:`Record ~trace:true () in
  let heap = Heap.create mon in
  let sched = Sched.create ~nthreads:3 (Sched.Random (Rng.create seed)) heap in
  let quanta = ref [] in
  let body tid iters ctx =
    for k = 1 to iters do
      let w = Mem.alloc ctx ~key:((tid * 100) + k) in
      quanta := tid :: !quanta;
      Mem.write ctx ~via:w ~field:0 Word.Null;
      quanta := tid :: !quanta;
      Mem.retire ctx w;
      quanta := tid :: !quanta
    done
  in
  Sched.spawn sched ~tid:0 (body 0 3);
  Sched.spawn sched ~tid:1 (body 1 5);
  Sched.spawn sched ~tid:2 (body 2 2);
  ignore (Sched.run sched);
  (List.rev !quanta, List.map Event.to_string (Monitor.trace mon))

let test_golden_quanta_seed11 () =
  let tids, events = golden_random_run 11 in
  Alcotest.(check (list int)) "tid quantum trace (seed 11)"
    [ 2; 2; 2; 2; 0; 0; 0; 2; 0; 1; 1; 2; 0; 1; 1;
      1; 1; 0; 1; 1; 1; 1; 1; 1; 0; 1; 1; 1; 0; 0 ]
    tids;
  Alcotest.(check (list string)) "event trace (seed 11)"
    [
      "T2 alloc &0#0 key=201"; "T2 write &0#0.f0"; "T2 retire &0#0";
      "T2 alloc &1#1 key=202"; "T0 alloc &2#2 key=1"; "T0 write &2#2.f0";
      "T0 retire &2#2"; "T2 write &1#1.f0"; "T0 alloc &3#3 key=2";
      "T1 alloc &4#4 key=101"; "T1 write &4#4.f0"; "T2 retire &1#1";
      "T0 write &3#3.f0"; "T1 retire &4#4"; "T1 alloc &5#5 key=102";
      "T1 write &5#5.f0"; "T1 retire &5#5"; "T0 retire &3#3";
      "T1 alloc &6#6 key=103"; "T1 write &6#6.f0"; "T1 retire &6#6";
      "T1 alloc &7#7 key=104"; "T1 write &7#7.f0"; "T1 retire &7#7";
      "T0 alloc &8#8 key=3"; "T1 alloc &9#9 key=105"; "T1 write &9#9.f0";
      "T1 retire &9#9"; "T0 write &8#8.f0"; "T0 retire &8#8";
    ]
    events

let test_golden_quanta_seed12 () =
  let tids, events = golden_random_run 12 in
  Alcotest.(check (list int)) "tid quantum trace (seed 12)"
    [ 0; 0; 2; 2; 0; 0; 0; 0; 2; 0; 2; 0; 0; 2; 2;
      1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1 ]
    tids;
  Alcotest.(check int) "event count (seed 12)" 30 (List.length events);
  Alcotest.(check int) "event fingerprint (seed 12)" 547975592
    (Hashtbl.hash (String.concat "\n" events))

(* The monitor fast path skips building Access/Key_read events when
   nothing observes them — so attaching any observer (trace or hook)
   must yield the identical event sequence. *)
let test_hook_sees_trace_sequence () =
  let run ~use_hook =
    let collected = ref [] in
    let mon = Monitor.create ~mode:`Record ~trace:(not use_hook) () in
    if use_hook then
      Monitor.subscribe mon (fun _time ev ->
          collected := Event.to_string ev :: !collected);
    let heap = Heap.create mon in
    let sched =
      Sched.create ~nthreads:2 (Sched.Random (Rng.create 21)) heap
    in
    let body tid ctx =
      for k = 1 to 4 do
        let w = Mem.alloc ctx ~key:((tid * 10) + k) in
        Mem.write ctx ~via:w ~field:0 (Word.int k);
        ignore (Mem.read ctx ~via:w ~field:0);
        Mem.retire ctx w
      done
    in
    Sched.spawn sched ~tid:0 (body 0);
    Sched.spawn sched ~tid:1 (body 1);
    ignore (Sched.run sched);
    if use_hook then List.rev !collected
    else List.map Event.to_string (Monitor.trace mon)
  in
  let via_trace = run ~use_hook:false in
  let via_hook = run ~use_hook:true in
  Alcotest.(check bool) "trace nonempty" true (via_trace <> []);
  Alcotest.(check (list string))
    "hook sees exactly the traced sequence" via_trace via_hook

let test_crash_captured () =
  let sched, _ = setup ~nthreads:1 Sched.Round_robin in
  Sched.spawn sched ~tid:0 (fun ctx ->
      Sched.yield ctx;
      failwith "boom");
  ignore (Sched.run sched);
  Alcotest.(check bool) "crash recorded" true
    (match Sched.thread_outcome sched 0 with
    | Sched.Crashed (Failure msg) -> String.equal msg "boom"
    | _ -> false)

let test_run_op_records () =
  let sched, mon = setup ~nthreads:1 Sched.Round_robin in
  Sched.spawn sched ~tid:0 (fun ctx ->
      ignore
        (Sched.run_op ctx
           { Event.name = "insert"; args = [ 7 ] }
           (fun () ->
             Sched.yield ctx;
             Event.R_bool true)));
  ignore (Sched.run sched);
  let h = Era_history.History.of_monitor mon in
  Alcotest.(check int) "one op" 1 (List.length h);
  let r = List.hd h in
  Alcotest.(check string) "name" "insert" r.Era_history.History.op.Event.name;
  Alcotest.(check bool) "completed" true
    (r.Era_history.History.result = Some (Event.R_bool true))

let test_external_ctx () =
  (* Data-structure code runs outside the scheduler during setup. *)
  let sched, mon = setup ~nthreads:1 Sched.Round_robin in
  let ext = Sched.external_ctx sched ~tid:0 in
  let w = Mem.alloc ext ~key:3 in
  Mem.write ext ~via:w ~field:0 Word.Null;
  Alcotest.(check int) "events recorded" 2 (Monitor.time mon)

let test_mem_ops_are_steps () =
  (* Every Mem access is exactly one scheduling quantum. *)
  let sched, _ = setup Sched.Round_robin in
  let log = ref [] in
  Sched.spawn sched ~tid:0 (fun ctx ->
      let w = Mem.alloc ctx ~key:0 in
      log := "alloc0" :: !log;
      Mem.write ctx ~via:w ~field:0 Word.Null;
      log := "write0" :: !log);
  Sched.spawn sched ~tid:1 (fun ctx ->
      let _ = Mem.alloc ctx ~key:1 in
      log := "alloc1" :: !log;
      Sched.yield ctx;
      log := "done1" :: !log);
  ignore (Sched.run sched);
  Alcotest.(check (list string))
    "interleaved at access granularity"
    [ "alloc0"; "alloc1"; "write0"; "done1" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* The decision point                                                  *)
(*                                                                     *)
(* A quantum ends at the thread's next yield, where the strategy picks *)
(* the next thread once. Picking the running thread continues it       *)
(* inline; only a switch suspends the fiber.                           *)
(* ------------------------------------------------------------------ *)

let spin ctx =
  while true do
    Sched.yield ctx
  done

let test_controller_exception_not_a_crash () =
  let calls = ref 0 in
  let sched, _ =
    setup ~nthreads:1
      (Sched.Controlled
         (fun _ ->
           incr calls;
           if !calls = 3 then raise Exit else 0))
  in
  Sched.spawn sched ~tid:0 spin;
  Alcotest.check_raises "run re-raises the controller's exception" Exit
    (fun () -> ignore (Sched.run sched));
  Alcotest.(check bool) "thread still running, not crashed" true
    (Sched.thread_outcome sched 0 = Sched.Running);
  Alcotest.(check int) "two quanta ran" 2 (Sched.total_steps sched)

let test_controller_sees_no_current_tid () =
  let seen = ref [] in
  let sched, _ =
    setup
      (Sched.Controlled
         (fun s ->
           seen := Sched.current_tid s :: !seen;
           match Sched.runnable_tids s with [] -> -1 | tid :: _ -> tid))
  in
  let body ctx =
    for _ = 1 to 4 do
      Sched.yield ctx
    done
  in
  Sched.spawn sched ~tid:0 body;
  Sched.spawn sched ~tid:1 body;
  Alcotest.(check bool) "finished" true (Sched.run sched = Sched.All_finished);
  Alcotest.(check int) "one call per quantum, plus the final -1"
    (Sched.total_steps sched + 1) (List.length !seen);
  Alcotest.(check bool) "current_tid is -1 in every call" true
    (List.for_all (fun c -> c = -1) !seen)

let test_repick_stops_at_step_limit () =
  let calls = ref 0 in
  let mon = Monitor.create ~mode:`Record () in
  let sched =
    Sched.create ~max_steps:50 ~nthreads:1
      (Sched.Controlled
         (fun _ ->
           incr calls;
           0))
      (Heap.create mon)
  in
  Sched.spawn sched ~tid:0 spin;
  Alcotest.(check bool) "step limit" true (Sched.run sched = Sched.Step_limit);
  Alcotest.(check int) "exactly max_steps quanta" 50 (Sched.total_steps sched);
  Alcotest.(check int) "one pick per quantum" 50 !calls;
  Alcotest.(check int) "one suspension, at the limit" 1 (Sched.switches sched)

(* Count hook calls per tid and check they tile the monitor clock. *)
let hooked_run ?max_steps ~nthreads strategy bodies =
  let mon = Monitor.create ~mode:`Record () in
  let sched = Sched.create ?max_steps ~nthreads strategy (Heap.create mon) in
  let per_tid = Array.make nthreads 0 in
  let last = ref 0 and tiled = ref true in
  Sched.set_quantum_hook sched
    (Some
       (fun tid t0 t1 ->
         per_tid.(tid) <- per_tid.(tid) + 1;
         if t0 <> !last then tiled := false;
         last := t1));
  List.iteri (fun tid body -> Sched.spawn sched ~tid body) bodies;
  let outcome = Sched.run sched in
  Alcotest.(check int) "hook calls = total_steps" (Sched.total_steps sched)
    (Array.fold_left ( + ) 0 per_tid);
  Array.iteri
    (fun tid n ->
      Alcotest.(check int) (Fmt.str "hook calls of T%d" tid)
        (Sched.steps_of sched tid) n)
    per_tid;
  Alcotest.(check bool) "quanta tile the monitor clock" true !tiled;
  (sched, outcome)

let fences n ctx =
  for k = 1 to n do
    Mem.fence ctx ~event:(Event.Note (string_of_int k)) ()
  done

let test_quantum_hook_every_quantum () =
  let _, o =
    hooked_run ~nthreads:2
      (Sched.Controlled
         (fun s ->
           match Sched.runnable_tids s with [] -> -1 | tid :: _ -> tid))
      [ fences 5; fences 3 ]
  in
  Alcotest.(check bool) "controlled finished" true (o = Sched.All_finished);
  (* T0 finishes early; T1's long tail runs solo. *)
  let sched, o =
    hooked_run ~nthreads:2
      (Sched.Random (Rng.create 3))
      [ fences 2; fences 20 ]
  in
  Alcotest.(check bool) "random finished" true (o = Sched.All_finished);
  Alcotest.(check bool) "solo tail continues inline" true
    (Sched.switches sched < 10);
  let sched, o =
    hooked_run ~nthreads:1 (Sched.Script [ Sched.Run (0, 7) ]) [ spin ]
  in
  Alcotest.(check bool) "script done" true (o = Sched.Script_done);
  Alcotest.(check int) "Run (0, 7) ran 7 quanta" 7 (Sched.steps_of sched 0)

(* T1 does nothing in its first quantum, so slotting it in after an
   instruction completes changes no event: the timed event log must be
   the same whether T0's completing quantum continues inline into the
   next instruction or suspends for T1. *)
let timed_script_run script =
  let mon = Monitor.create ~mode:`Record () in
  let log = ref [] in
  Monitor.subscribe mon (fun time ev ->
      log := (time, Event.to_string ev) :: !log);
  let sched = Sched.create ~nthreads:2 (Sched.Script script) (Heap.create mon) in
  Sched.spawn sched ~tid:0 (fences 8);
  Sched.spawn sched ~tid:1 (fun ctx -> Sched.yield ctx);
  ignore (Sched.run sched);
  (List.rev !log, Sched.switches sched)

let test_inline_completion_same_events () =
  let is_note n = function Event.Note m -> m = n | _ -> false in
  let check label first =
    let inline, s_inline =
      timed_script_run [ first; Sched.Finish 0; Sched.Finish 1 ]
    in
    let switched, s_switched =
      timed_script_run
        [ first; Sched.Run (1, 1); Sched.Finish 0; Sched.Finish 1 ]
    in
    Alcotest.(check (list (pair int string)))
      (label ^ ": same events at the same times") switched inline;
    Alcotest.(check bool) (label ^ ": inline path taken") true
      (s_inline < s_switched);
    inline
  in
  let events = check "Run_until" (Sched.Run_until (0, is_note "3")) in
  Alcotest.(check int) "all eight notes" 8 (List.length events);
  (* Quantum 1 reaches the first fence; quanta 2-4 emit notes 1-3 at
     times 1-3, so the exhausted budget is flagged at time 4, before
     note 4. *)
  let events = check "Finish_bounded" (Sched.Finish_bounded (0, 4)) in
  Alcotest.(check bool) "progress violation right after quantum 4" true
    (match List.assoc_opt 4 events with
    | Some ev -> String.starts_with ~prefix:"T0 VIOLATION" ev
    | None -> false)

(* The runnable mask is kept at spawn, stall, unstall and thread exit
   instead of being scanned for. Random spawn/stall/unstall sequences,
   with threads that finish or raise, under [Random] and [Controlled]:
   after every quantum the mask must equal the one folded from each
   thread's outcome and the stalls the test itself issued. *)
type act = Yield | Stall of int | Unstall of int | Spawn of int | Raise

let pp_act ppf = function
  | Yield -> Fmt.string ppf "y"
  | Stall j -> Fmt.pf ppf "s%d" j
  | Unstall j -> Fmt.pf ppf "u%d" j
  | Spawn j -> Fmt.pf ppf "n%d" j
  | Raise -> Fmt.string ppf "!"

let mask_case =
  let open QCheck.Gen in
  let case =
    int_range 1 6 >>= fun n ->
    let tid = int_bound (n - 1) in
    let act =
      frequency
        [
          (4, return Yield);
          (2, map (fun j -> Stall j) tid);
          (2, map (fun j -> Unstall j) tid);
          (1, map (fun j -> Spawn j) tid);
          (1, return Raise);
        ]
    in
    let thread = triple bool bool (list_size (int_bound 8) act) in
    pair (list_size (return n) thread) (pair bool small_nat)
  in
  let print (threads, (controlled, seed)) =
    Fmt.str "%s seed %d: %a"
      (if controlled then "controlled" else "random")
      seed
      Fmt.(
        list ~sep:(any " | ") (fun ppf (spawned, stalled, acts) ->
            pf ppf "%s%s %a"
              (if spawned then "spawned" else "-")
              (if stalled then ",stalled" else "")
              (list ~sep:sp pp_act) acts))
      threads
  in
  QCheck.make ~print case

let prop_runnable_mask =
  QCheck.Test.make ~count:300 ~name:"runnable mask = folded runnable set"
    mask_case (fun (threads, (controlled, seed)) ->
      let threads = Array.of_list threads in
      let n = Array.length threads in
      let stalled = Array.make n false in
      let rng = Rng.create seed in
      let strategy =
        if controlled then
          Sched.Controlled
            (fun s ->
              match Sched.runnable_tids s with
              | [] -> -1
              | l -> List.nth l (Rng.int rng (List.length l)))
        else Sched.Random (Rng.create seed)
      in
      let sched, _ = setup ~nthreads:n strategy in
      let folded () =
        let m = ref 0 in
        for tid = 0 to n - 1 do
          match Sched.thread_outcome sched tid with
          | Sched.Running when not stalled.(tid) -> m := !m lor (1 lsl tid)
          | Sched.Running | Not_spawned | Finished | Crashed _ -> ()
        done;
        !m
      in
      let ok = ref true in
      let check () = if Sched.runnable_mask sched <> folded () then ok := false in
      let rec body tid ctx =
        let _, _, acts = threads.(tid) in
        List.iter
          (fun a ->
            (match a with
            | Yield -> ()
            | Stall j ->
              Sched.stall sched j;
              stalled.(j) <- true
            | Unstall j ->
              Sched.unstall sched j;
              stalled.(j) <- false
            | Spawn j ->
              if Sched.thread_outcome sched j = Sched.Not_spawned then
                Sched.spawn sched ~tid:j (body j)
            | Raise -> raise Exit);
            check ();
            Sched.yield ctx)
          acts
      in
      Array.iteri
        (fun tid (spawned, stall, _) ->
          if stall then begin
            Sched.stall sched tid;
            stalled.(tid) <- true
          end;
          if spawned then Sched.spawn sched ~tid (body tid);
          check ())
        threads;
      Sched.set_quantum_hook sched (Some (fun _ _ _ -> check ()));
      ignore (Sched.run sched);
      check ();
      !ok)

(* 62 bits is the mask's width; a wider scheduler is refused up front. *)
let test_nthreads_limit () =
  let heap = Heap.create (Monitor.create ~mode:`Record ()) in
  ignore (Sched.create ~nthreads:62 Sched.Round_robin heap);
  Alcotest.check_raises "nthreads = 63"
    (Invalid_argument
       "Sched.create: at most 62 threads (runnable mask width)") (fun () ->
      ignore (Sched.create ~nthreads:63 Sched.Round_robin heap))

let () =
  Alcotest.run "era_sched"
  @@ Shuffle.maybe_shuffle
    [
      ( "scheduler",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin_completes;
          Alcotest.test_case "quantum boundaries" `Quick
            test_yield_is_one_quantum;
          Alcotest.test_case "script run_until label" `Quick
            test_script_run_until;
          Alcotest.test_case "script step counts" `Quick test_script_run_steps;
          Alcotest.test_case "stall/unstall" `Quick test_stall_skips_thread;
          Alcotest.test_case "bounded solo run" `Quick
            test_finish_bounded_flags_progress;
          Alcotest.test_case "bounded solo run, spent budget" `Quick
            test_finish_bounded_spent_budget;
          Alcotest.test_case "random determinism" `Quick
            test_random_deterministic;
          Alcotest.test_case "golden schedule seed 11" `Quick
            test_golden_quanta_seed11;
          Alcotest.test_case "golden schedule seed 12" `Quick
            test_golden_quanta_seed12;
          Alcotest.test_case "hook sees trace sequence" `Quick
            test_hook_sees_trace_sequence;
          Alcotest.test_case "crash capture" `Quick test_crash_captured;
          Alcotest.test_case "run_op records history" `Quick
            test_run_op_records;
          Alcotest.test_case "external ctx" `Quick test_external_ctx;
          Alcotest.test_case "mem ops are steps" `Quick test_mem_ops_are_steps;
        ] );
      ( "decision-point",
        [
          Alcotest.test_case "controller exception is not a crash" `Quick
            test_controller_exception_not_a_crash;
          Alcotest.test_case "current_tid is -1 in the controller" `Quick
            test_controller_sees_no_current_tid;
          Alcotest.test_case "re-picking stops at the step limit" `Quick
            test_repick_stops_at_step_limit;
          Alcotest.test_case "quantum hook sees every quantum" `Quick
            test_quantum_hook_every_quantum;
          Alcotest.test_case "inline completion emits the same events" `Quick
            test_inline_completion_same_events;
        ] );
      ( "runnable-mask",
        [
          QCheck_alcotest.to_alcotest prop_runnable_mask;
          Alcotest.test_case "at most 62 threads" `Quick test_nthreads_limit;
        ] );
    ]
