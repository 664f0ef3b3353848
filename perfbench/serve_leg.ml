(* The serve-mix leg: a real [era_cli serve --workers 1] process with a
   fresh store, driven open-loop at a fixed rate for a fixed number of
   jobs over two connections from two threads — one sends on schedule,
   one polls for completion. The jobs go out in [chunks] equal chunks,
   spread over the run, so that a slow spell of the machine reaches only
   the chunk it overlaps.

   Each job is timed from when it was due until the poller sees it
   terminal. Polling runs every [poll_s], far below the shortest
   service time, because [Client.follow] and [Client.wait_job] tick
   every 50 ms and would quantize the latency. *)

module Client = Era_serve.Client
module Job = Era_serve.Job
module J = Era_metrics.Json
module Registry = Era_obs.Registry

let poll_s = 0.00025

(* Fixed job count and send interval: the store's manifest is rewritten
   on every put, so a duration-bound run would make faster code do more
   store work. *)
let jobs = 225
let chunks = 5
let interval_s = 0.045
let tenants = [| "t0"; "t1" |]

type kind = { kind : Job.kind; expect : string  (** prefix of the job note *) }

let explore ~scheme ~preemptions ~ops =
  Job.Explore
    { scheme; structure = "harris-list"; preemptions; max_runs = 20_000;
      steps = 50_000; seed = 2; ops; robust_bound = None }

(* find-and-shrink (writes a counterexample), a small bound-1 cover,
   and a Figure 2 classification. The find-and-shrink job uses 8 ops
   per thread, so its service time (about 27 ms) stays well under the
   send interval: a job longer than the interval makes every follower
   queue behind it, which turns a slow spell of the machine into a
   queue that grows for the rest of the run. *)
let mix =
  [|
    { kind = explore ~scheme:"hp" ~preemptions:2 ~ops:(Some 8); expect = "VIOLATION" };
    { kind = explore ~scheme:"ebr" ~preemptions:1 ~ops:(Some 5);
      expect = "no violation" };
    { kind = Job.Figure2 { scheme = "hp" }; expect = "UNSAFE" };
  |]

(* The job sequence: every consecutive block holds one job of each
   kind, in a seeded order, so the offered load is even over the run
   while the interleaving still comes from the seed. *)
let schedule ~seed =
  let n = Array.length mix in
  let rng = Era_sim.Rng.create ((seed * 104729) + 5) in
  let a = Array.init jobs (fun i -> i mod n) in
  for b = 0 to (jobs / n) - 1 do
    for i = n - 1 downto 1 do
      let j = Era_sim.Rng.int rng (i + 1) in
      let x = a.((b * n) + i) in
      a.((b * n) + i) <- a.((b * n) + j);
      a.((b * n) + j) <- x
    done
  done;
  a

(* [schedule] cut into [chunks] runs of consecutive jobs; a chunk is a
   whole number of blocks. *)
let chunked ~seed =
  let a = schedule ~seed and n = jobs / chunks in
  List.init chunks (fun c -> Array.sub a (c * n) n)

(* ------------------------------------------------------------------ *)
(* Daemon process                                                      *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; dir : string; socket : string }

let live = ref []
let counter = ref 0

(* Everything the daemon writes — socket, store, the job table that
   [Daemon.stop] dumps into its working directory, its log — lands in
   one fresh directory that [stop] deletes. *)
let start ~era_cli ~scratch =
  incr counter;
  let dir = Filename.concat scratch (Printf.sprintf "d%d" !counter) in
  Stat.rm_rf dir;
  Unix.mkdir dir 0o755;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c";
         "cd \"$0\" && exec \"$1\" serve --workers 1 --socket s.sock \
          --store store --queue-cap 1024 --tenant-cap 1024 >daemon.log 2>&1";
         dir; era_cli |]
      null null null
  in
  Unix.close null;
  let d = { pid; dir; socket = Filename.concat dir "s.sock" } in
  live := d :: !live;
  d

let connect d =
  match Client.connect ~retries:500 ~retry_delay_s:0.002 ~socket:d.socket () with
  | Ok c -> c
  | Error e -> failwith e

let rec waitpid_timeout pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Stat.now () < deadline ->
    Unix.sleepf 0.005;
    waitpid_timeout pid deadline
  | 0, _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_timeout pid deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop d =
  (match Client.connect ~socket:d.socket () with
  | Ok c ->
    ignore (Client.shutdown c ~drain:true);
    Client.close c
  | Error _ -> ());
  waitpid_timeout d.pid (Stat.now () +. 10.);
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  Stat.rm_rf d.dir

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      Stat.rm_rf d.dir)
    !live;
  live := []

(* ------------------------------------------------------------------ *)
(* Driving jobs                                                        *)
(* ------------------------------------------------------------------ *)

type job = {
  k : int;  (** index into [mix] *)
  due : float;
  mutable sent : float;
  mutable submit_s : float;
  mutable id : int;  (** -1 until admitted *)
  mutable seen : float;  (** 0. until seen terminal *)
  mutable summary : J.t;
}

let field name conv j = Option.bind (J.member name j) conv
let float_field name j = Option.value (field name J.to_float j) ~default:nan
let str_field name j = Option.value (field name J.to_str j) ~default:""

(* Send [ks] open-loop from [t0], one every [interval]; a second thread
   polls the outstanding jobs until every admitted one is terminal or
   [timeout_s] has passed. *)
let drive d ~interval ~timeout_s ks =
  let sender = connect d in
  let poller = connect d in
  let t0 = Stat.now () +. 0.01 in
  let js =
    Array.mapi
      (fun i k ->
        { k; due = t0 +. (float_of_int i *. interval); sent = 0.; submit_s = 0.;
          id = -1; seen = 0.; summary = J.Null })
      ks
  in
  let m = Mutex.create () in
  let pending = ref [] in
  let sending = ref true in
  let poll () =
    let deadline = ref infinity in
    let rec loop () =
      Mutex.lock m;
      let ps = !pending in
      let done_sending = not !sending in
      Mutex.unlock m;
      if done_sending && !deadline = infinity then
        deadline := Stat.now () +. timeout_s;
      let still =
        List.filter
          (fun j ->
            match Client.job_status poller j.id with
            | Ok s
              when Option.fold ~none:false ~some:Job.terminal
                     (Option.bind (field "status" J.to_str s) Job.status_of_name)
              ->
              j.seen <- Stat.now ();
              j.summary <- s;
              false
            | Ok _ | Error _ -> true)
          ps
      in
      Mutex.lock m;
      pending := List.filter (fun j -> j.seen = 0.) !pending;
      Mutex.unlock m;
      if (done_sending && still = []) || Stat.now () > !deadline then ()
      else begin
        Unix.sleepf poll_s;
        loop ()
      end
    in
    loop ()
  in
  let th = Thread.create poll () in
  Array.iteri
    (fun i j ->
      let wait = j.due -. Stat.now () in
      if wait > 0. then Unix.sleepf wait;
      j.sent <- Stat.now ();
      (match Client.submit sender ~tenant:tenants.(i mod Array.length tenants)
               mix.(j.k).kind with
      | Ok (Client.Admitted id) -> j.id <- id
      | Ok (Client.Shed _) | Error _ -> ());
      j.submit_s <- Stat.now () -. j.sent;
      if j.id >= 0 then begin
        Mutex.lock m;
        pending := j :: !pending;
        Mutex.unlock m
      end)
    js;
  Mutex.lock m;
  sending := false;
  Mutex.unlock m;
  Thread.join th;
  Client.close sender;
  (js, poller)

let job_ok j =
  j.id >= 0 && j.seen > 0.
  && str_field "status" j.summary = "done"
  && String.starts_with ~prefix:mix.(j.k).expect (str_field "note" j.summary)

(* Set-up: boot a daemon with a fresh store and run one job of each
   kind through it. *)
let setup ~era_cli ~scratch =
  let d = start ~era_cli ~scratch in
  let c = connect d in
  (match Client.ping c with Ok () -> () | Error e -> failwith e);
  Client.close c;
  let js, poller = drive d ~interval:0. ~timeout_s:30. (Array.init (Array.length mix) Fun.id) in
  Client.close poller;
  if not (Array.for_all job_ok js) then failwith "serve warm-up jobs failed";
  d

type run = {
  job_p50_ms : float;
  job_p90_ms : float;
  peak_rss_mb : float;
  samples : int;  (** jobs timed *)
  attempted : int;
  failed : int;
  failures : string list;
  layers : (string * float) list;
}

let ms x = x *. 1e3

let registry_gauge body name =
  match Result.bind (J.of_string body) Registry.metrics_of_json with
  | Error _ -> nan
  | Ok ms ->
    List.fold_left
      (fun acc (m : Registry.metric) ->
        match m.Registry.value with
        | Registry.Gauge v when m.Registry.name = name -> v
        | _ -> acc)
      nan ms

let artifact_key j akind =
  List.find_map
    (fun a ->
      if field "kind" J.to_str a = Some akind then field "key" J.to_str a
      else None)
    (Option.value (field "artifacts" J.to_list j.summary) ~default:[])

(* The per-layer breakdown, read after the run from the job summaries
   and the daemon's artifacts: nothing here runs while jobs are timed. *)
let layers poller all =
  let span f = List.map f all in
  let summ name j = float_field name j.summary in
  let explores =
    List.filter_map
      (fun j ->
        match artifact_key j "registry" with
        | None -> None
        | Some key -> (
          match Client.artifact poller key with
          | Error _ -> None
          | Ok body ->
            let explore_s = registry_gauge body "explore_elapsed_s" in
            let exec_s = summ "finished_s" j -. summ "started_s" j in
            Some (j.id, ms explore_s, ms (exec_s -. explore_s))))
      all
  in
  let explores = List.sort compare explores in
  let n = List.length explores in
  let last_tenth = List.filteri (fun i _ -> i >= n - max 1 (n / 10)) explores in
  let entries =
    match Client.manifest poller with
    | Error _ -> nan
    | Ok m -> (
      match field "entries" J.to_list m with
      | Some l -> float_of_int (List.length l)
      | None -> nan)
  in
  [
    ("serve.jobs", float_of_int (List.length all));
    ("client.submit_ms", Stat.median (span (fun j -> ms j.submit_s)));
    ( "fair_queue.wait_ms",
      Stat.quantile
        (span (fun j -> ms (summ "started_s" j -. summ "submitted_s" j)))
        0.9 );
    ( "executor.exec_ms",
      Stat.median (span (fun j -> ms (summ "finished_s" j -. summ "started_s" j))) );
    ("executor.explore_ms", Stat.median (List.map (fun (_, e, _) -> e) explores));
    ("store.write_ms", Stat.median (List.map (fun (_, _, w) -> w) explores));
    ("store.write_ms_last10", Stat.median (List.map (fun (_, _, w) -> w) last_tenth));
    ("store.entries", entries);
    ("daemon.notify_ms", Stat.median (span (fun j -> ms (j.seen -. summ "finished_s" j))));
    ("load.lag_ms", Stat.quantile (span (fun j -> ms (j.sent -. j.due))) 0.9);
  ]

(* One timed chunk on a daemon prepared by [setup]: the jobs [ks] are
   sent open-loop from now on and followed until each is terminal. *)
let chunk d ks =
  let js, poller = drive d ~interval:interval_s ~timeout_s:60. ks in
  Client.close poller;
  Array.to_list js

(* The result of every timed chunk [all] on daemon [d]; stops the daemon.
   A job fails its check unless it was admitted, seen terminal, done,
   and noted with its kind's expected verdict. The generator's lateness
   must stay small against the latency it measures. *)
let measure ?(traced = false) d all =
  let peak_rss_mb = Stat.peak_rss_mb d.pid in
  let lat =
    List.filter_map
      (fun j -> if j.seen > 0. then Some (ms (j.seen -. j.due)) else None)
      all
  in
  let bad = List.length (List.filter (fun j -> not (job_ok j)) all) in
  let job_p90_ms = Stat.quantile lat 0.9 in
  let lag_p90_ms = Stat.quantile (List.map (fun j -> ms (j.sent -. j.due)) all) 0.9 in
  let lag_ok = lag_p90_ms < job_p90_ms /. 10. in
  let layers =
    if traced then begin
      let c = connect d in
      let l = layers c all in
      Client.close c;
      l
    end
    else []
  in
  stop d;
  {
    job_p50_ms = Stat.median lat;
    job_p90_ms;
    peak_rss_mb;
    samples = List.length lat;
    attempted = List.length all + 1;  (* every job, and the lag check *)
    failed = bad + if lag_ok then 0 else 1;
    failures =
      (if bad > 0 then [ Printf.sprintf "%d jobs lost, shed, failed or wrong" bad ] else [])
      @ (if lag_ok then []
         else [ Printf.sprintf "generator lag p90 %.2f ms >= job_p90/10" lag_p90_ms ]);
    layers;
  }
