(* Serving layer (lib/serve): admission caps and shutdown liveness of the
   tenant-fair queue (close while dispatchers are blocked, drain-then-
   stop, close_now accounting — the Work_queue lost-wakeup discipline
   applied to the admission path), round-robin order, the content-
   addressed store, executor lifecycle, and a daemon/client/load
   end-to-end pass over a real Unix socket. *)

module Fq = Era_serve.Fair_queue
module Store = Era_serve.Store
module Job = Era_serve.Job
module Executor = Era_serve.Executor
module Daemon = Era_serve.Daemon
module Client = Era_serve.Client
module Wire = Era_serve.Wire
module Load = Era_serve.Load
module Ex = Era_explore.Explore
module Json = Era_metrics.Json

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Fair queue                                                          *)
(* ------------------------------------------------------------------ *)

let ok_submit q ~tenant v =
  match Fq.submit q ~tenant v with
  | Ok () -> ()
  | Error s -> Alcotest.failf "unexpected shed: %s" (Fq.shed_reason s)

let shed_name = function
  | Ok () -> "admitted"
  | Error s -> Fq.shed_reason s

let test_fq_round_robin () =
  let q = Fq.create ~tenant_cap:8 ~global_cap:64 () in
  (* a deep in front of b: round-robin must interleave, not FIFO-drain a *)
  List.iter (fun v -> ok_submit q ~tenant:"a" v) [ 1; 2; 3 ];
  List.iter (fun v -> ok_submit q ~tenant:"b" v) [ 10; 20 ];
  ok_submit q ~tenant:"c" 100;
  let order = List.init 6 (fun _ -> Option.get (Fq.next q)) in
  Alcotest.(check (list int)) "one job per tenant per turn"
    [ 1; 10; 100; 2; 20; 3 ] order;
  Alcotest.(check int) "drained" 0 (Fq.depth q)

let test_fq_tenant_cap () =
  let q = Fq.create ~tenant_cap:2 ~global_cap:64 () in
  ok_submit q ~tenant:"noisy" 1;
  ok_submit q ~tenant:"noisy" 2;
  (match Fq.submit q ~tenant:"noisy" 3 with
  | Error (`Tenant_cap as s) ->
    Alcotest.(check string) "wire reason" "tenant-cap" (Fq.shed_reason s)
  | Ok () -> Alcotest.fail "tenant cap not enforced"
  | Error s -> Alcotest.failf "wrong reason: %s" (Fq.shed_reason s));
  (* the noisy tenant's saturation does not displace others *)
  ok_submit q ~tenant:"quiet" 10;
  Alcotest.(check (list (pair string int)))
    "per-tenant depths"
    [ ("noisy", 2); ("quiet", 1) ]
    (Fq.tenants q)

let test_fq_global_cap () =
  let q = Fq.create ~tenant_cap:8 ~global_cap:3 () in
  ok_submit q ~tenant:"a" 1;
  ok_submit q ~tenant:"b" 2;
  ok_submit q ~tenant:"c" 3;
  match Fq.submit q ~tenant:"d" 4 with
  | Error (`Global_cap as s) ->
    Alcotest.(check string) "wire reason" "global-cap" (Fq.shed_reason s)
  | Ok () -> Alcotest.fail "global cap not enforced"
  | Error s -> Alcotest.failf "wrong reason: %s" (Fq.shed_reason s)

let test_fq_close_wakes_blocked_next () =
  let q : int Fq.t = Fq.create () in
  let waiters = List.init 2 (fun _ -> Domain.spawn (fun () -> Fq.next q)) in
  Unix.sleepf 0.05;
  Fq.close q;
  List.iter
    (fun d ->
      Alcotest.(check (option int)) "woken into None" None (Domain.join d))
    waiters;
  match Fq.submit q ~tenant:"late" 1 with
  | Error `Closed -> ()
  | _ -> Alcotest.fail "submit after close must shed `Closed"

(* Each submit must wake a dispatcher blocked on the empty queue: with
   two blocked and two submits, both must come back with an item. *)
let test_fq_submit_wakes_blocked_next () =
  let q : int Fq.t = Fq.create () in
  let waiters = List.init 2 (fun _ -> Domain.spawn (fun () -> Fq.next q)) in
  Unix.sleepf 0.05;
  ok_submit q ~tenant:"a" 1;
  ok_submit q ~tenant:"b" 2;
  let got = List.map Domain.join waiters in
  Alcotest.(check (list (option int))) "each waiter served one item"
    [ Some 1; Some 2 ] (List.sort compare got);
  Alcotest.(check int) "drained" 0 (Fq.depth q)

(* After a turn the ring has rotated: close_now hands the backlog back in
   service order (b, c, then a), not first-submit order. *)
let test_fq_close_now () =
  let q = Fq.create () in
  List.iter (fun v -> ok_submit q ~tenant:"a" v) [ 1; 2; 3 ];
  List.iter (fun v -> ok_submit q ~tenant:"b" v) [ 10; 20 ];
  ok_submit q ~tenant:"c" 100;
  Alcotest.(check (option int)) "one served" (Some 1) (Fq.next q);
  Alcotest.(check (list int)) "ring order, FIFO within each tenant"
    [ 10; 20; 100; 2; 3 ] (Fq.close_now q);
  Alcotest.(check (list int)) "second close_now empty" [] (Fq.close_now q);
  Alcotest.(check (option int)) "next after close_now" None (Fq.next q);
  Alcotest.(check string) "submit after close_now" "closed"
    (shed_name (Fq.submit q ~tenant:"a" 4));
  Alcotest.(check int) "nothing left queued" 0 (Fq.depth q);
  Alcotest.(check (list (pair string int))) "no tenant left" [] (Fq.tenants q)

(* One tenant's items come out FIFO, and a slot freed by [next] admits
   again at the tenant cap. *)
let test_fq_fifo_and_slot_reuse () =
  let q = Fq.create ~tenant_cap:3 ~global_cap:64 () in
  List.iter (fun v -> ok_submit q ~tenant:"a" v) [ 1; 2; 3 ];
  Alcotest.(check string) "4th submit shed" "tenant-cap"
    (shed_name (Fq.submit q ~tenant:"a" 4));
  Alcotest.(check string) "5th submit shed" "tenant-cap"
    (shed_name (Fq.submit q ~tenant:"a" 5));
  Alcotest.(check (option int)) "next 1" (Some 1) (Fq.next q);
  Alcotest.(check string) "slot freed, submit admitted" "admitted"
    (shed_name (Fq.submit q ~tenant:"a" 6));
  Alcotest.(check string) "full again" "tenant-cap"
    (shed_name (Fq.submit q ~tenant:"a" 7));
  Alcotest.(check (list (pair string int))) "exactly the cap queued"
    [ ("a", 3) ] (Fq.tenants q);
  Alcotest.(check (list (option int))) "FIFO across the refill"
    [ Some 2; Some 3; Some 6 ]
    (List.init 3 (fun _ -> Fq.next q));
  Alcotest.(check int) "drained" 0 (Fq.depth q)

(* A tenant-cap shed takes a global reservation and must hand it back:
   otherwise each shed would shrink the daemon's capacity for good. *)
let test_fq_shed_releases_reservation () =
  let q = Fq.create ~tenant_cap:1 ~global_cap:3 () in
  ok_submit q ~tenant:"a" 1;
  for _ = 1 to 10 do
    Alcotest.(check string) "noisy tenant shed" "tenant-cap"
      (shed_name (Fq.submit q ~tenant:"a" 2))
  done;
  ok_submit q ~tenant:"b" 3;
  ok_submit q ~tenant:"c" 4;
  Alcotest.(check int) "only admitted items counted" 3 (Fq.depth q);
  Alcotest.(check string) "then the global cap" "global-cap"
    (shed_name (Fq.submit q ~tenant:"d" 5))

let test_fq_drain_on_close () =
  let q = Fq.create () in
  List.iter (fun v -> ok_submit q ~tenant:"a" v) [ 1; 2 ];
  ok_submit q ~tenant:"b" 10;
  Fq.close q;
  Alcotest.(check string) "submit after close" "closed"
    (shed_name (Fq.submit q ~tenant:"b" 20));
  let drained = List.init 3 (fun _ -> Fq.next q) in
  Alcotest.(check (list (option int))) "backlog drains round-robin"
    [ Some 1; Some 10; Some 2 ] drained;
  Alcotest.(check (option int)) "then None" None (Fq.next q);
  Alcotest.(check (option int)) "and stays None" None (Fq.next q);
  Fq.close q (* idempotent *)

(* Tenant names arrive from the wire: a tenant whose queue empties must
   leave the scheduler, or every distinct name is held (and scanned)
   forever. *)
let test_fq_idle_tenants_leave () =
  let q = Fq.create () in
  let n = 10_000 and served = ref 0 in
  for i = 1 to n do
    ok_submit q ~tenant:(string_of_int i) i;
    if Fq.next q = Some i then incr served
  done;
  Alcotest.(check int) "each job served at once" n !served;
  Alcotest.(check int) "no idle tenant kept" 0 (List.length (Fq.tenants q));
  Alcotest.(check int) "nothing queued" 0 (Fq.depth q)

(* Multi-domain stress: 3 submitting domains over 4 tenants against 3
   dispatching domains, caps small enough to shed. Dispatchers start
   only once the first shed has happened, so both outcomes are always
   exercised. Every admitted item must come out exactly once. *)
let test_fq_stress () =
  let q = Fq.create ~tenant_cap:2 ~global_cap:6 () in
  let n_producers = 3 and n_consumers = 3 and per = 2_000 in
  let shed = Atomic.make 0 in
  let producers =
    List.init n_producers (fun p ->
        Domain.spawn (fun () ->
            let admitted = ref [] in
            for i = 0 to per - 1 do
              let v = (p * per) + i in
              match Fq.submit q ~tenant:(string_of_int (v mod 4)) v with
              | Ok () -> admitted := v :: !admitted
              | Error (`Tenant_cap | `Global_cap) -> Atomic.incr shed
              | Error `Closed -> Alcotest.fail "closed while submitting"
            done;
            !admitted))
  in
  let consumers =
    List.init n_consumers (fun _ ->
        Domain.spawn (fun () ->
            while Atomic.get shed = 0 do
              Domain.cpu_relax ()
            done;
            let rec loop acc =
              match Fq.next q with None -> acc | Some v -> loop (v :: acc)
            in
            loop []))
  in
  let admitted = List.concat_map Domain.join producers in
  Fq.close q;
  let served = List.concat_map Domain.join consumers in
  Alcotest.(check int) "admitted + shed = offered" (n_producers * per)
    (List.length admitted + Atomic.get shed);
  Alcotest.(check bool) "stress admitted work" true (admitted <> []);
  Alcotest.(check bool) "stress shed work" true (Atomic.get shed > 0);
  Alcotest.(check (list int)) "every admitted item served exactly once"
    (List.sort compare admitted) (List.sort compare served);
  Alcotest.(check int) "depth ends at 0" 0 (Fq.depth q)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip_dedup () =
  let dir = temp_dir "era_store" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Store.open_ ~dir in
      let k1 = Store.put s ~akind:"counterexample" ~job_id:1 "payload" in
      let k2 = Store.put s ~akind:"counterexample" ~job_id:2 "payload" in
      Alcotest.(check string) "identical content, one object" k1 k2;
      Alcotest.(check (option string)) "content back" (Some "payload")
        (Store.get s k1);
      Alcotest.(check (option string)) "unknown key" None
        (Store.get s (String.make 32 'f'));
      Alcotest.(check (option string)) "traversal rejected" None
        (Store.get s "../../etc/passwd");
      Alcotest.(check int) "one entry per (job, kind)" 2
        (List.length (Store.entries s));
      Alcotest.(check int) "find by job" 1
        (List.length (Store.find s ~job_id:2));
      (* a fresh open_ reads the manifest back *)
      let s' = Store.open_ ~dir in
      Alcotest.(check int) "manifest survives reopen" 2
        (List.length (Store.entries s'));
      Alcotest.(check (option string)) "objects survive reopen"
        (Some "payload") (Store.get s' k1))

let in_temp_dir prefix k =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> k dir)

let manifest_log dir = Filename.concat dir "manifest.jsonl"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let log_lines dir =
  String.split_on_char '\n' (read_file (manifest_log dir))
  |> List.filter (( <> ) "")

let job_ids s = List.map (fun e -> e.Store.job_id) (Store.entries s)

let test_store_torn_tail () =
  in_temp_dir "era_store" (fun dir ->
      let s = Store.open_ ~dir in
      ignore (Store.put s ~akind:"verdict" ~job_id:1 "one");
      ignore (Store.put s ~akind:"verdict" ~job_id:2 "two");
      let whole = read_file (manifest_log dir) in
      (* a crash mid-append: half of a real line, no newline *)
      let line = List.hd (log_lines dir) in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
        (manifest_log dir) (fun oc ->
          output_string oc (String.sub line 0 (String.length line / 2)));
      let s = Store.open_ ~dir in
      Alcotest.(check (list int)) "only the complete entries" [ 1; 2 ]
        (job_ids s);
      Alcotest.(check string) "torn tail cut from the file" whole
        (read_file (manifest_log dir));
      ignore (Store.put s ~akind:"verdict" ~job_id:3 "three");
      let s = Store.open_ ~dir in
      Alcotest.(check (list int)) "the next put survives reopen" [ 1; 2; 3 ]
        (job_ids s);
      List.iter
        (fun l ->
          match Json.of_string l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "corrupt manifest line %S: %s" l e)
        (log_lines dir);
      Alcotest.(check int) "one line per entry" 3
        (List.length (log_lines dir)))

let test_store_dedup_across_reopen () =
  in_temp_dir "era_store" (fun dir ->
      let put s label =
        ignore (Store.put s ~akind:"verdict" ~job_id:7 ~label "same")
      in
      put (Store.open_ ~dir) "a";
      let s = Store.open_ ~dir in
      put s "a";
      Alcotest.(check int) "identical entry not added again" 1
        (List.length (Store.entries s));
      Alcotest.(check int) "nor appended to the log" 1
        (List.length (log_lines dir));
      put s "b";
      Alcotest.(check int) "a different label is a new entry" 2
        (List.length (Store.entries (Store.open_ ~dir))))

let test_store_append_only () =
  in_temp_dir "era_store" (fun dir ->
      let s = Store.open_ ~dir in
      let before = ref (read_file (manifest_log dir)) in
      List.iteri
        (fun i (job_id, content) ->
          ignore (Store.put s ~akind:"verdict" ~job_id content);
          let now = read_file (manifest_log dir) in
          let n = String.length !before in
          Alcotest.(check bool)
            (Printf.sprintf "put %d keeps the earlier bytes" i)
            true
            (String.length now > n && String.sub now 0 n = !before);
          let added = String.sub now n (String.length now - n) in
          Alcotest.(check int)
            (Printf.sprintf "put %d adds one line" i)
            1
            (List.length (String.split_on_char '\n' added) - 1);
          Alcotest.(check bool)
            (Printf.sprintf "put %d ends its line" i)
            true (String.ends_with ~suffix:"\n" added);
          before := now)
        [ (1, "x"); (2, "x"); (1, "y"); (3, String.make 5000 'z') ];
      ignore (Store.put s ~akind:"verdict" ~job_id:1 "x");
      Alcotest.(check string) "a duplicate put leaves the log alone" !before
        (read_file (manifest_log dir)))

(* A regular file where the objects directory was: every put raises
   [Sys_error], even as root. Returns the file's path. *)
let break_objects dir =
  let objects = Filename.concat dir "objects" in
  rm_rf objects;
  Out_channel.with_open_bin objects ignore;
  objects

(* A put whose object write raises must release the store lock: a later
   put, from another domain, has to get through. *)
let test_store_failed_put_unlocks () =
  in_temp_dir "era_store" (fun dir ->
      let s = Store.open_ ~dir in
      let objects = break_objects dir in
      (match Store.put s ~akind:"verdict" ~job_id:1 "lost" with
      | _ -> Alcotest.fail "a put into an unwritable store must raise"
      | exception Sys_error _ -> ());
      Sys.remove objects;
      Unix.mkdir objects 0o755;
      let res = Atomic.make None in
      let d =
        Domain.spawn (fun () ->
            Atomic.set res
              (Some
                 (try Ok (Store.put s ~akind:"verdict" ~job_id:2 "kept")
                  with e -> Error (Printexc.to_string e))))
      in
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get res = None && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.002
      done;
      match Atomic.get res with
      | None -> Alcotest.fail "put blocked: the failed put kept the store lock"
      | Some (Error e) -> Alcotest.failf "put after a failed put raised %s" e
      | Some (Ok key) ->
        Domain.join d;
        Alcotest.(check (option string)) "object written" (Some "kept")
          (Store.get s key);
        Alcotest.(check (list int)) "only the successful put recorded" [ 2 ]
          (job_ids s))

(* ------------------------------------------------------------------ *)
(* Job codec                                                           *)
(* ------------------------------------------------------------------ *)

let roundtrip kind =
  match Job.kind_of_json (Job.kind_to_json kind) with
  | Ok k -> k
  | Error e -> Alcotest.failf "kind codec: %s" e

let test_job_kind_roundtrip () =
  let explore =
    Job.Explore
      {
        scheme = "ibr"; structure = "ms-queue"; preemptions = 3;
        max_runs = 123; steps = 456; seed = 7; ops = Some 9;
        robust_bound = Some 2;
      }
  in
  List.iter
    (fun k -> Alcotest.(check bool) (Job.kind_label k) true (roundtrip k = k))
    [
      explore; Job.default_explore ();
      Job.Figure1 { scheme = "ebr"; rounds = 64 };
      Job.Figure2 { scheme = "hp" }; Job.Probe { spin = 42 };
    ];
  match Job.kind_of_json (Json.Obj [ ("kind", Json.String "nope") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must not decode"

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let with_store k =
  let dir = temp_dir "era_exec" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> k (Store.open_ ~dir))

let small_explore =
  Job.Explore
    {
      scheme = "hp"; structure = "harris-list"; preemptions = 2;
      max_runs = 2_000; steps = 50_000; seed = 2; ops = None;
      robust_bound = None;
    }

let test_run_job_probe () =
  with_store (fun store ->
      let j = Job.make ~id:1 ~tenant:"t" (Job.Probe { spin = 100 }) in
      Executor.run_job ~store j;
      let p = Job.progress j in
      Alcotest.(check string) "done" "done" (Job.status_name p.Job.status);
      Alcotest.(check bool) "timestamps set" true
        (p.Job.finished_s >= p.Job.started_s && p.Job.started_s > 0.))

(* The executor publishes a job's result and its terminal status from a
   worker domain while daemon threads summarise the job for pollers and
   followers. A summary must never pair a terminal status with a missing
   result: a poller that sees "done" stops polling, so a torn summary is
   a lost job. One domain drives the executor's terminal publish on
   fresh jobs back to back while a second polls the latest one. The
   loop calls [Executor.finish], not [run_job]: a whole run also stores
   its heartbeats artifact, and that disk write would leave the poller
   only a fraction of the summaries it is meant to judge. *)
let test_summary_never_torn () =
  let probe = Job.Probe { spin = 0 } in
  let current = Atomic.make (Job.make ~id:0 ~tenant:"t" probe) in
  let stop = Atomic.make false and terminal = Atomic.make 0 in
  let poller () =
    let torn = ref 0 in
    while not (Atomic.get stop) do
      let s = Job.summary_to_json (Atomic.get current) in
      let str k = Option.bind (Json.member k s) Json.to_str in
      match Option.bind (str "status") Job.status_of_name with
      | Some st when Job.terminal st ->
        Atomic.incr terminal;
        if str "note" = Some "" then incr torn
      | _ -> ()
    done;
    !torn
  in
  let d = Domain.spawn poller in
  (* Finish jobs until the poller has judged enough terminal summaries,
     however the two domains get scheduled; the deadline only bounds a
     starved poller. *)
  let t0 = Unix.gettimeofday () in
  let id = ref 0 in
  while Atomic.get terminal < 10_000 && Unix.gettimeofday () -. t0 < 2. do
    incr id;
    let j = Job.make ~id:!id ~tenant:"t" probe in
    Atomic.set current j;
    Executor.finish j (Job.Done, "probe done", [])
  done;
  Atomic.set stop true;
  let torn = Domain.join d in
  Alcotest.(check bool) "the poller judged 10,000 terminal summaries" true
    (Atomic.get terminal >= 10_000);
  Alcotest.(check int) "terminal summaries missing their result" 0 torn

let test_run_job_explore_artifacts () =
  with_store (fun store ->
      let j = Job.make ~id:7 ~tenant:"t" small_explore in
      Executor.run_job ~store j;
      let p = Job.progress j in
      Alcotest.(check string) "done" "done" (Job.status_name p.Job.status);
      let r = Option.get p.Job.result in
      Alcotest.(check bool) "violation reported" true
        (String.length r.Job.note > 0);
      let cex_key =
        match List.assoc_opt "counterexample" r.Job.artifacts with
        | Some k -> k
        | None -> Alcotest.fail "hp/harris explore must store a counterexample"
      in
      (* the stored artifact is a loadable counterexample *)
      (match Store.get store cex_key with
      | None -> Alcotest.fail "counterexample key dangling"
      | Some content -> (
        match
          Result.bind (Json.of_string content) Ex.counterexample_of_json
        with
        | Ok cex -> (
          Alcotest.(check bool) "non-trivial schedule" true
            (List.length cex.Ex.c_steps > 0);
          (* ... and it replays, on the target rebuilt from the JSON
             alone, to the violation kind it records *)
          match Era.Applicability.target_of_counterexample cex with
          | Error e -> Alcotest.failf "stored counterexample target: %s" e
          | Ok target -> (
            match (Ex.replay target cex).Ex.rp_violation with
            | Some v ->
              Alcotest.(check string) "replays to the same violation kind"
                (Era_sim.Event.violation_name cex.Ex.c_violation.Ex.v_kind)
                (Era_sim.Event.violation_name v.Ex.v_kind)
            | None -> Alcotest.fail "stored counterexample does not replay"))
        | Error e -> Alcotest.failf "stored counterexample invalid: %s" e));
      match List.assoc_opt "registry" r.Job.artifacts with
      | Some _ -> ()
      | None -> Alcotest.fail "explore job must store a registry snapshot")

let test_run_job_unknown_scheme () =
  with_store (fun store ->
      let j =
        Job.make ~id:2 ~tenant:"t" (Job.Figure2 { scheme = "no-such" })
      in
      Executor.run_job ~store j;
      let p = Job.progress j in
      Alcotest.(check string) "failed" "failed" (Job.status_name p.Job.status);
      let r = Option.get p.Job.result in
      Alcotest.(check bool) "note names the problem" true
        (String.length r.Job.note > 0))

(* Heartbeats: a run publishes a start beat plus periodic explore
   progress in the job's snapshot, and persists the history — ascending
   sequence numbers, registry-format bodies — as an artifact. *)
let test_run_job_heartbeats () =
  with_store (fun store ->
      (* a safe scheme exhausts its run budget, so progress beats fire
         (hp/harris would cut short at the first violation) *)
      let kind =
        Job.Explore
          {
            scheme = "ebr"; structure = "harris-list"; preemptions = 2;
            max_runs = 400; steps = 50_000; seed = 3; ops = None;
            robust_bound = None;
          }
      in
      let j = Job.make ~id:11 ~tenant:"t" kind in
      Executor.run_job ~store j;
      let r = Option.get (Job.progress j).Job.result in
      let key =
        match List.assoc_opt "heartbeats" r.Job.artifacts with
        | Some k -> k
        | None -> Alcotest.fail "heartbeat history not persisted"
      in
      let beats =
        match
          Result.bind
            (Json.of_string (Option.get (Store.get store key)))
            (fun j -> Option.to_result ~none:"not a list" (Json.to_list j))
        with
        | Ok l -> l
        | Error e -> Alcotest.failf "heartbeats artifact: %s" e
      in
      Alcotest.(check bool) "start beat plus explore progress" true
        (List.length beats >= 2);
      let int_of k b = Option.bind (Json.member k b) Json.to_int in
      List.iteri
        (fun i b ->
          Alcotest.(check (option int)) "seq is dense and ascending"
            (Some (i + 1)) (int_of "seq" b);
          Alcotest.(check (option int)) "beat names its job" (Some 11)
            (int_of "job" b);
          match Json.member "registry" b with
          | Some reg -> (
            match Era_obs.Registry.metrics_of_json reg with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "beat %d registry: %s" i e)
          | None -> Alcotest.failf "beat %d without a registry" i)
        beats;
      (* progress beats carry the explorer's counters *)
      let has_runs b =
        match
          Option.bind (Json.member "registry" b) (fun reg ->
              Result.to_option (Era_obs.Registry.metrics_of_json reg))
        with
        | Some ms ->
          List.exists
            (fun (m : Era_obs.Registry.metric) ->
              m.Era_obs.Registry.name = "explore_runs")
            ms
        | None -> false
      in
      Alcotest.(check bool) "explore progress beats present" true
        (List.exists has_runs beats))

let test_executor_drain_then_stop () =
  with_store (fun store ->
      let queue = Fq.create () in
      let jobs =
        List.init 8 (fun i ->
            Job.make ~id:i
              ~tenant:(Fmt.str "t%d" (i mod 3))
              (Job.Probe { spin = 50 }))
      in
      List.iter
        (fun j ->
          match Fq.submit queue ~tenant:j.Job.tenant j with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "under capacity, nothing sheds")
        jobs;
      let ex = Executor.start ~workers:2 ~queue ~store () in
      Executor.stop ~drain:true ex;
      List.iter
        (fun j ->
          Alcotest.(check string) "drained to Done" "done"
            (Job.status_name (Job.progress j).Job.status))
        jobs;
      Alcotest.(check int) "served counter" 8
        (Atomic.get (Executor.stats ex).Executor.served))

let test_executor_stop_now_aborts_backlog () =
  with_store (fun store ->
      let queue = Fq.create () in
      (* a slow head job keeps both workers busy while the backlog waits *)
      let jobs =
        List.init 10 (fun i ->
            Job.make ~id:i ~tenant:"t" (Job.Probe { spin = 200_000 }))
      in
      List.iter (fun j -> ignore (Fq.submit queue ~tenant:"t" j)) jobs;
      let ex = Executor.start ~workers:2 ~queue ~store () in
      Executor.stop ~drain:false ex;
      let st = Executor.stats ex in
      let served = Atomic.get st.Executor.served
      and aborted = Atomic.get st.Executor.aborted in
      Alcotest.(check int) "every job accounted" 10 (served + aborted);
      List.iter
        (fun j ->
          let p = Job.progress j in
          Alcotest.(check bool) "terminal" true (Job.terminal p.Job.status);
          if p.Job.status = Job.Aborted then
            Alcotest.(check bool) "abort note" true
              (match p.Job.result with
              | Some r -> String.length r.Job.note > 0
              | None -> false))
        jobs)

(* A store put that raises after the job body ran (here the heartbeats
   artifact of a probe, which stores nothing else) must end the job
   [Failed] and leave its worker alive for the next job; a dead worker
   strands the backlog and blocks every waiter on those jobs. *)
let test_executor_failed_put () =
  in_temp_dir "era_exec" (fun dir ->
      let store = Store.open_ ~dir in
      ignore (break_objects dir : string);
      let queue = Fq.create () in
      let jobs =
        List.init 2 (fun i ->
            Job.make ~id:(i + 1) ~tenant:"t" (Job.Probe { spin = 100 }))
      in
      List.iter (fun j -> ok_submit queue ~tenant:"t" j) jobs;
      let ex = Executor.start ~workers:1 ~queue ~store () in
      Executor.stop ~drain:true ex;
      List.iter
        (fun j ->
          let p = Job.progress j in
          Alcotest.(check string) "failed" "failed"
            (Job.status_name p.Job.status);
          let note = (Option.get p.Job.result).Job.note in
          Alcotest.(check bool) ("note carries the error: " ^ note) true
            (String.starts_with ~prefix:"error: Sys_error" note))
        jobs;
      Alcotest.(check int) "failed counter" 2
        (Atomic.get (Executor.stats ex).Executor.failed))

(* Workers blocked on an EMPTY queue: stop must wake and join them — the
   executor-level lost-wakeup test (hangs on regression). *)
let test_executor_stop_while_blocked () =
  with_store (fun store ->
      let queue : Job.t Fq.t = Fq.create () in
      let ex = Executor.start ~workers:3 ~queue ~store () in
      Unix.sleepf 0.05;
      Executor.stop ~drain:true ex;
      Executor.stop ~drain:true ex (* idempotent *))

(* ------------------------------------------------------------------ *)
(* Daemon + client end-to-end                                          *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(workers = 2) ?(global_cap = 64) ?(tenant_cap = 32) k =
  let dir = temp_dir "era_daemon" in
  let socket = Filename.concat dir "serve.sock" in
  let cfg =
    {
      Daemon.socket_path = socket; workers; global_cap; tenant_cap;
      store_dir = Filename.concat dir "artifacts";
    }
  in
  let d = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      (* the shutdown job-table dump lands in cwd: clean it up *)
      let dump = Fmt.str "jobs_%s.json" (Filename.remove_extension
                                           (Filename.basename socket)) in
      if Sys.file_exists dump then Sys.remove dump;
      rm_rf dir)
    (fun () -> k d socket)

let connect socket =
  match Client.connect ~retries:20 ~retry_delay_s:0.05 ~socket () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let get_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "rpc: %s" e

let submit_exn ?(tenant = "t") cl kind =
  match get_exn (Client.submit cl ~tenant kind) with
  | Client.Admitted id -> id
  | Client.Shed r -> Alcotest.failf "shed under capacity: %s" r

let test_daemon_submit_wait () =
  with_daemon (fun d socket ->
      let cl = connect socket in
      get_exn (Client.ping cl);
      let id = submit_exn ~tenant:"alice" cl small_explore in
      let j = get_exn (Client.wait_job cl id) in
      let field k =
        Option.value (Option.bind (Json.member k j) Json.to_str) ~default:""
      in
      Alcotest.(check string) "done over the wire" "done" (field "status");
      (* the manifest indexes the counterexample; fetch it back by key *)
      let arts =
        match Option.bind (Json.member "artifacts" j) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "job summary without artifacts"
      in
      let cex_key =
        List.find_map
          (fun a ->
            match Option.bind (Json.member "kind" a) Json.to_str with
            | Some "counterexample" ->
              Option.bind (Json.member "key" a) Json.to_str
            | _ -> None)
          arts
        |> function
        | Some k -> k
        | None -> Alcotest.fail "no counterexample artifact key"
      in
      let content = get_exn (Client.artifact cl cex_key) in
      (match
         Result.bind (Json.of_string content) Ex.counterexample_of_json
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "artifact not a counterexample: %s" e);
      (* jobs + stats agree *)
      let jobs = get_exn (Client.jobs cl) in
      Alcotest.(check int) "one job listed" 1 (List.length jobs);
      let stats = get_exn (Client.stats cl) in
      let int k =
        Option.value (Option.bind (Json.member k stats) Json.to_int)
          ~default:(-1)
      in
      Alcotest.(check int) "admitted" 1 (int "admitted");
      Alcotest.(check int) "served" 1 (int "served");
      Alcotest.(check int) "shed" 0 (int "shed");
      Alcotest.(check int) "daemon job table" 1 (List.length (Daemon.jobs d));
      Client.close cl)

let beat_seqs beats =
  List.map
    (fun b ->
      Option.value (Option.bind (Json.member "seq" b) Json.to_int)
        ~default:(-1))
    beats

(* The streaming exception to one-request/one-response: follow a live
   explore job and collect its heartbeats until the terminal summary. *)
let test_daemon_follow () =
  with_daemon (fun _ socket ->
      let cl = connect socket in
      let id = submit_exn cl small_explore in
      let beats = ref [] in
      let summary =
        get_exn (Client.follow cl ~on_heartbeat:(fun b -> beats := b :: !beats) id)
      in
      let beats = List.rev !beats in
      Alcotest.(check bool) "at least the start beat streamed" true
        (beats <> []);
      let seqs = beat_seqs beats in
      Alcotest.(check (list int)) "seqs stream in order, no gaps"
        (List.init (List.length seqs) (( + ) 1))
        seqs;
      (* the terminal line is the full summary, artifacts included *)
      Alcotest.(check (option string)) "terminal summary is done"
        (Some "done")
        (Option.bind (Json.member "status" summary) Json.to_str);
      (match Option.bind (Json.member "artifacts" summary) Json.to_list with
      | Some arts ->
        let kinds =
          List.filter_map
            (fun a -> Option.bind (Json.member "kind" a) Json.to_str)
            arts
        in
        Alcotest.(check bool) "heartbeat history is an artifact" true
          (List.mem "heartbeats" kinds)
      | None -> Alcotest.fail "summary without artifacts");
      (* the connection is reusable after the stream ends *)
      get_exn (Client.ping cl);
      Client.close cl)

let num k j =
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "summary without %s" k

let median l = List.nth (List.sort compare l) (List.length l / 2)

(* Completion is pushed: a waiter and a follower both return within a
   few ms of the job's [finished_s], not on a poll tick. The probe runs
   about 5-15 ms, so a 50 ms poll would read 35-45 ms. *)
let test_daemon_completion_pushed () =
  with_daemon ~workers:1 (fun _ socket ->
      let cl = connect socket in
      let lag wait =
        let id = submit_exn cl (Job.Probe { spin = 1_000_000 }) in
        let j = get_exn (wait id) in
        let now = Unix.gettimeofday () in
        Alcotest.(check (option string)) "done" (Some "done")
          (Option.bind (Json.member "status" j) Json.to_str);
        (now -. num "finished_s" j) *. 1e3
      in
      let lags wait = median (List.init 5 (fun _ -> lag wait)) in
      let waited = lags (Client.wait_job cl) in
      let followed = lags (Client.follow cl ~on_heartbeat:ignore) in
      Client.close cl;
      let within name ms =
        if ms >= 20. then
          Alcotest.failf "%s returned a median %.1f ms after finished_s" name
            ms
      in
      within "wait_job" waited;
      within "follow" followed)

(* Follow after the fact gets the whole history at once. Across a
   non-draining stop, a follower of the in-flight job and one of a
   queued job both end with the job's real terminal summary. *)
let test_daemon_late_follow_and_stop () =
  with_daemon ~workers:1 (fun d socket ->
      let cl = connect socket in
      let kind =
        Job.Explore
          {
            scheme = "ebr"; structure = "harris-list"; preemptions = 2;
            max_runs = 400; steps = 50_000; seed = 3; ops = None;
            robust_bound = None;
          }
      in
      let id = submit_exn cl kind in
      ignore (get_exn (Client.wait_job cl id) : Json.t);
      let beats = ref [] in
      let summary =
        get_exn
          (Client.follow cl ~on_heartbeat:(fun b -> beats := b :: !beats) id)
      in
      let seqs = beat_seqs (List.rev !beats) in
      Alcotest.(check bool) "start beat plus progress" true
        (List.length seqs >= 2);
      Alcotest.(check (list int)) "the whole history, seq 1..n"
        (List.init (List.length seqs) (( + ) 1))
        seqs;
      let status j = Option.bind (Json.member "status" j) Json.to_str in
      Alcotest.(check (option string)) "finished job follows to done"
        (Some "done") (status summary);
      (* the one worker runs a long probe; the next job stays queued *)
      let running = submit_exn cl (Job.Probe { spin = 60_000_000 }) in
      let queued = submit_exn cl (Job.Probe { spin = 10 }) in
      let cl2 = connect socket in
      get_exn (Client.ping cl2);
      let follower =
        Domain.spawn (fun () -> Client.follow cl2 ~on_heartbeat:ignore running)
      in
      let stopper =
        Domain.spawn (fun () ->
            Unix.sleepf 0.05;
            Daemon.stop ~drain:false d)
      in
      let aborted = get_exn (Client.follow cl ~on_heartbeat:ignore queued) in
      let finished = get_exn (Domain.join follower) in
      Domain.join stopper;
      Client.close cl;
      Client.close cl2;
      Alcotest.(check (option string)) "queued job ends aborted"
        (Some "aborted") (status aborted);
      Alcotest.(check (option string)) "in-flight job ends done"
        (Some "done") (status finished))

let test_daemon_shed_and_registry () =
  (* 1 worker busy on a long probe; tiny caps force shed on the wire *)
  with_daemon ~workers:1 ~global_cap:2 ~tenant_cap:1 (fun d socket ->
      let cl = connect socket in
      let submit tenant =
        get_exn (Client.submit cl ~tenant (Job.Probe { spin = 2_000_000 }))
      in
      ignore (submit "a" : Client.submit_outcome) (* likely running *);
      let rec fill n =
        (* keep submitting until the tenant's slot is provably full *)
        match submit "a" with
        | Client.Shed reason -> reason
        | Client.Admitted _ when n > 0 -> fill (n - 1)
        | Client.Admitted _ -> Alcotest.fail "tenant cap never enforced"
      in
      let reason = fill 4 in
      Alcotest.(check string) "shed reason on the wire" "tenant-cap" reason;
      (* a different tenant still gets in (fairness of caps) *)
      (match submit "b" with
      | Client.Admitted _ -> ()
      | Client.Shed r -> Alcotest.failf "other tenant displaced: %s" r);
      let reg = Daemon.stats_registry d in
      let reg_json = Era_obs.Registry.to_string reg in
      Alcotest.(check bool) "registry exports shed counters" true
        (let has s =
           let n = String.length s and m = String.length reg_json in
           let rec go i =
             i + n <= m && (String.sub reg_json i n = s || go (i + 1))
           in
           go 0
         in
         has "serve_shed" && has "serve_admitted");
      Client.close cl)

let test_daemon_client_shutdown () =
  with_daemon (fun d socket ->
      let cl = connect socket in
      let id =
        match get_exn (Client.submit cl ~tenant:"t" (Job.Probe { spin = 10 }))
        with
        | Client.Admitted id -> id
        | Client.Shed r -> Alcotest.failf "shed: %s" r
      in
      get_exn (Client.shutdown cl ~drain:true);
      Client.close cl;
      (* wait completes the shutdown: socket gone, backlog drained *)
      Daemon.wait d;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
      match Daemon.find_job d id with
      | Some j ->
        Alcotest.(check string) "drained before stopping" "done"
          (Job.status_name (Job.progress j).Job.status)
      | None -> Alcotest.fail "job table lost the job")

(* ------------------------------------------------------------------ *)
(* Load generator (small): zero lost, zero shed under capacity         *)
(* ------------------------------------------------------------------ *)

let test_load_under_capacity () =
  with_daemon ~workers:2 ~global_cap:512 ~tenant_cap:256 (fun _ socket ->
      let cfg =
        {
          Load.socket; conns = 8; pipeline = 4; requests = 200; tenants = 3;
          kind = Job.Probe { spin = 20 }; drain_timeout_s = 60.;
        }
      in
      match Load.run cfg with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok r ->
        Alcotest.(check int) "every request answered" 200 r.Load.responded;
        Alcotest.(check int) "no protocol errors" 0 r.Load.errors;
        Alcotest.(check int) "zero lost" 0 r.Load.lost;
        Alcotest.(check int) "under capacity nothing sheds" 0 r.Load.shed;
        Alcotest.(check int) "all admitted" 200 r.Load.admitted;
        Alcotest.(check int) "all served" 200
          (r.Load.served + r.Load.failed);
        Alcotest.(check bool) "pipelining overlapped requests" true
          (r.Load.inflight_peak > 1))

let () =
  Alcotest.run "era_serve"
    [
      ( "fair_queue",
        [
          Alcotest.test_case "round robin" `Quick test_fq_round_robin;
          Alcotest.test_case "tenant cap" `Quick test_fq_tenant_cap;
          Alcotest.test_case "global cap" `Quick test_fq_global_cap;
          Alcotest.test_case "close wakes blocked next" `Quick
            test_fq_close_wakes_blocked_next;
          Alcotest.test_case "submit wakes blocked next" `Quick
            test_fq_submit_wakes_blocked_next;
          Alcotest.test_case "close_now" `Quick test_fq_close_now;
          Alcotest.test_case "fifo and slot reuse" `Quick
            test_fq_fifo_and_slot_reuse;
          Alcotest.test_case "shed releases its reservation" `Quick
            test_fq_shed_releases_reservation;
          Alcotest.test_case "drain on close" `Quick test_fq_drain_on_close;
          Alcotest.test_case "idle tenants leave" `Quick
            test_fq_idle_tenants_leave;
          Alcotest.test_case "multi-domain stress" `Quick test_fq_stress;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip, dedup, reopen" `Quick
            test_store_roundtrip_dedup;
          Alcotest.test_case "torn tail dropped on reopen" `Quick
            test_store_torn_tail;
          Alcotest.test_case "dedup across reopen" `Quick
            test_store_dedup_across_reopen;
          Alcotest.test_case "append only" `Quick test_store_append_only;
          Alcotest.test_case "failed put releases the lock" `Quick
            test_store_failed_put_unlocks;
        ] );
      ( "job",
        [ Alcotest.test_case "kind codec" `Quick test_job_kind_roundtrip ] );
      ( "executor",
        [
          Alcotest.test_case "probe runs" `Quick test_run_job_probe;
          Alcotest.test_case "summary never torn" `Quick
            test_summary_never_torn;
          Alcotest.test_case "explore artifacts" `Quick
            test_run_job_explore_artifacts;
          Alcotest.test_case "heartbeat bus and artifact" `Quick
            test_run_job_heartbeats;
          Alcotest.test_case "unknown scheme fails cleanly" `Quick
            test_run_job_unknown_scheme;
          Alcotest.test_case "drain then stop" `Quick
            test_executor_drain_then_stop;
          Alcotest.test_case "stop now aborts backlog" `Quick
            test_executor_stop_now_aborts_backlog;
          Alcotest.test_case "stop while workers blocked" `Quick
            test_executor_stop_while_blocked;
          Alcotest.test_case "failed put keeps the worker" `Quick
            test_executor_failed_put;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit, wait, artifacts" `Quick
            test_daemon_submit_wait;
          Alcotest.test_case "follow streams heartbeats" `Quick
            test_daemon_follow;
          Alcotest.test_case "completion is pushed" `Quick
            test_daemon_completion_pushed;
          Alcotest.test_case "late follow and stop" `Quick
            test_daemon_late_follow_and_stop;
          Alcotest.test_case "shed + registry" `Quick
            test_daemon_shed_and_registry;
          Alcotest.test_case "client-driven shutdown" `Quick
            test_daemon_client_shutdown;
        ] );
      ( "load",
        [
          Alcotest.test_case "under capacity: no shed, no loss" `Quick
            test_load_under_capacity;
        ] );
    ]
