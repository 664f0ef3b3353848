module J = Era_metrics.Json
module Registry = Era_obs.Registry
module Tracer = Era_obs.Tracer
module Fs = Era_metrics.Fsutil

type config = {
  socket_path : string;
  workers : int;
  global_cap : int;
  tenant_cap : int;
  store_dir : string;
}

let default_config =
  {
    socket_path = "era_serve.sock";
    workers = 2;
    global_cap = 256;
    tenant_cap = 64;
    store_dir = "artifacts";
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  store : Store.t;
  queue : Job.t Fair_queue.t;
  exec : Executor.t;
  tracer : Tracer.t;
  table : (int, Job.t) Hashtbl.t;
  table_m : Mutex.t;
  next_id : int Atomic.t;
  submitted : int Atomic.t;
  admitted : int Atomic.t;
  shed_tenant : int Atomic.t;
  shed_global : int Atomic.t;
  shed_closed : int Atomic.t;
  t0 : float;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  sd_m : Mutex.t;
  sd_c : Condition.t;
  mutable sd_req : bool option;  (* Some drain, under sd_m *)
  mutable accept_thread : Thread.t option;
}

let config t = t.cfg
let store t = t.store
let tracer t = t.tracer

let jobs t =
  Mutex.lock t.table_m;
  let l = Hashtbl.fold (fun _ j acc -> j :: acc) t.table [] in
  Mutex.unlock t.table_m;
  List.sort (fun (a : Job.t) b -> compare a.Job.id b.Job.id) l

let find_job t id =
  Mutex.lock t.table_m;
  let r = Hashtbl.find_opt t.table id in
  Mutex.unlock t.table_m;
  r

let shed_total t =
  Atomic.get t.shed_tenant + Atomic.get t.shed_global
  + Atomic.get t.shed_closed

let stats_registry t =
  let reg = Registry.create () in
  let st = Executor.stats t.exec in
  let c name v = Registry.set_counter (Registry.counter reg name) v in
  c "serve_submitted" (Atomic.get t.submitted);
  c "serve_admitted" (Atomic.get t.admitted);
  Registry.set_counter
    (Registry.counter reg "serve_shed" ~labels:[ ("reason", "tenant-cap") ])
    (Atomic.get t.shed_tenant);
  Registry.set_counter
    (Registry.counter reg "serve_shed" ~labels:[ ("reason", "global-cap") ])
    (Atomic.get t.shed_global);
  Registry.set_counter
    (Registry.counter reg "serve_shed" ~labels:[ ("reason", "closed") ])
    (Atomic.get t.shed_closed);
  c "serve_served" (Atomic.get st.Executor.served);
  c "serve_failed" (Atomic.get st.Executor.failed);
  c "serve_aborted" (Atomic.get st.Executor.aborted);
  c "serve_service_us" (Atomic.get st.Executor.service_us);
  let g name v = Registry.set_int (Registry.gauge reg name) v in
  g "serve_queue_depth" (Fair_queue.depth t.queue);
  g "serve_busy_workers" (Atomic.get st.Executor.busy);
  g "serve_workers" (Executor.workers t.exec);
  Registry.set (Registry.gauge reg "serve_uptime_s")
    (Unix.gettimeofday () -. t.t0);
  List.iter
    (fun (tenant, depth) ->
      Registry.set_int
        (Registry.gauge reg "serve_tenant_depth" ~labels:[ ("tenant", tenant) ])
        depth)
    (Fair_queue.tenants t.queue);
  reg

(* Plain-int stats the load generator consumes without decoding the
   registry format. *)
let stats_json t =
  let st = Executor.stats t.exec in
  J.Obj
    [
      ("submitted", J.Int (Atomic.get t.submitted));
      ("admitted", J.Int (Atomic.get t.admitted));
      ("shed", J.Int (shed_total t));
      ("shed_tenant", J.Int (Atomic.get t.shed_tenant));
      ("shed_global", J.Int (Atomic.get t.shed_global));
      ("shed_closed", J.Int (Atomic.get t.shed_closed));
      ("served", J.Int (Atomic.get st.Executor.served));
      ("failed", J.Int (Atomic.get st.Executor.failed));
      ("aborted", J.Int (Atomic.get st.Executor.aborted));
      ("busy", J.Int (Atomic.get st.Executor.busy));
      ("queue_depth", J.Int (Fair_queue.depth t.queue));
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.t0));
    ]

(* ---------------------------------------------------------------- *)
(* Request dispatch                                                  *)
(* ---------------------------------------------------------------- *)

let dispatch t (req : Wire.request) =
  match req with
  | Wire.Ping -> Wire.ok [ ("pong", J.Bool true) ]
  | Wire.Stats ->
    Wire.ok
      [ ("stats", stats_json t); ("registry", Registry.to_json (stats_registry t)) ]
  | Wire.Jobs ->
    Wire.ok [ ("jobs", J.List (List.map Job.summary_to_json (jobs t))) ]
  | Wire.Job_status id -> (
    match find_job t id with
    | Some job -> Wire.ok [ ("job", Job.summary_to_json job) ]
    | None -> Wire.err (Fmt.str "no such job %d" id))
  | Wire.Manifest -> Wire.ok [ ("manifest", Store.manifest_to_json t.store) ]
  | Wire.Artifact key -> (
    match Store.get t.store key with
    | Some content ->
      Wire.ok [ ("key", J.String key); ("content", J.String content) ]
    | None -> Wire.err (Fmt.str "no such artifact %s" key))
  | Wire.Submit { tenant; kind } ->
    Atomic.incr t.submitted;
    let id = Atomic.fetch_and_add t.next_id 1 in
    let job = Job.make ~id ~tenant kind in
    (match Fair_queue.submit t.queue ~tenant job with
    | Ok () ->
      Atomic.incr t.admitted;
      Mutex.lock t.table_m;
      Hashtbl.replace t.table id job;
      Mutex.unlock t.table_m;
      Wire.ok [ ("status", J.String "queued"); ("id", J.Int id) ]
    | Error reason ->
      (match reason with
      | `Tenant_cap -> Atomic.incr t.shed_tenant
      | `Global_cap -> Atomic.incr t.shed_global
      | `Closed -> Atomic.incr t.shed_closed);
      Wire.ok
        [
          ("status", J.String "shed");
          ("reason", J.String (Fair_queue.shed_reason reason));
        ])
  | Wire.Shutdown { drain } ->
    Mutex.lock t.sd_m;
    t.sd_req <- Some drain;
    Condition.broadcast t.sd_c;
    Mutex.unlock t.sd_m;
    Wire.ok [ ("stopping", J.Bool true); ("drain", J.Bool drain) ]
  | Wire.Follow _ ->
    (* Streamed per-connection by [follow] below; only reachable if a
       caller routes a follow through the one-shot dispatch. *)
    Wire.err "follow is a streaming request"

(* Streaming [follow]: one connection-occupying loop per request. Send
   every heartbeat above the last one sent (each as its own
   {"heartbeat":...} line), then either finish with a single terminal ok
   line carrying the final job summary or block until the job publishes
   again. Beats and status share one snapshot, so the terminal snapshot
   already holds the last beats. [Daemon.stop] makes every admitted job
   terminal before it returns, so no follower outlives it blocked. *)
let follow t conn id =
  match find_job t id with
  | None -> Wire.send_json conn (Wire.err (Fmt.str "no such job %d" id))
  | Some job ->
    let rec go last (p : Job.progress) =
      let rec fresh acc = function
        | (seq, body) :: older when seq > last -> fresh (body :: acc) older
        | _ -> acc
      in
      List.iter
        (fun body -> Wire.send_json conn (J.Obj [ ("heartbeat", body) ]))
        (fresh [] p.beats);
      if Job.terminal p.status then
        Wire.send_json conn (Wire.ok [ ("job", Job.summary_to_json job) ])
      else
        let last = match p.beats with (seq, _) :: _ -> seq | [] -> last in
        go last (Job.await job ~seen:p)
    in
    go 0 (Job.progress job)

(* ---------------------------------------------------------------- *)
(* Connection handling                                               *)
(* ---------------------------------------------------------------- *)

(* Handler loop: poll the fd with a timeout so a stopped daemon's
   handler threads exit on their own even if the client never hangs up;
   buffered (pipelined) lines are always drained before polling. *)
let handler t fd () =
  let conn = Wire.conn_of_fd fd in
  let rec loop () =
    let ready =
      Wire.has_buffered conn
      ||
      match Unix.select [ fd ] [] [] 0.25 with
      | [ _ ], _, _ -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if ready then
      match Wire.recv_json conn with
      | None -> ()  (* EOF *)
      | Some (Error e) ->
        Wire.send_json conn (Wire.err (Fmt.str "bad request: %s" e));
        loop ()
      | Some (Ok j) -> (
        match Wire.request_of_json j with
        | Error e ->
          Wire.send_json conn (Wire.err e);
          loop ()
        | Ok (Wire.Follow id) ->
          (* The one streaming request: occupies this handler thread
             until the followed job is terminal. *)
          follow t conn id;
          loop ()
        | Ok req ->
          Wire.send_json conn (dispatch t req);
          loop ())
    else if not (Atomic.get t.stopping) then loop ()
  in
  (try loop () with
  | Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t () =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Unix.accept t.listen_fd with
      | fd, _ ->
        if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
        else ignore (Thread.create (handler t fd) () : Thread.t);
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ ->
        (* listen fd shut down by [stop] (or a fatal accept error):
           exit. *)
        ()
  in
  loop ()

(* ---------------------------------------------------------------- *)
(* Lifecycle                                                         *)
(* ---------------------------------------------------------------- *)

let start cfg =
  if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
  (match Filename.dirname cfg.socket_path with
  | "" | "." -> ()
  | d -> Fs.mkdir_p d);
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 512;
  let store = Store.open_ ~dir:cfg.store_dir in
  let queue =
    Fair_queue.create ~tenant_cap:cfg.tenant_cap ~global_cap:cfg.global_cap ()
  in
  let tracer = Tracer.create ~capacity:(1 lsl 16) () in
  Tracer.set_process_name tracer "era_serve";
  let exec = Executor.start ~workers:cfg.workers ~tracer ~queue ~store () in
  let t =
    {
      cfg;
      listen_fd;
      store;
      queue;
      exec;
      tracer;
      table = Hashtbl.create 64;
      table_m = Mutex.create ();
      next_id = Atomic.make 1;
      submitted = Atomic.make 0;
      admitted = Atomic.make 0;
      shed_tenant = Atomic.make 0;
      shed_global = Atomic.make 0;
      shed_closed = Atomic.make 0;
      t0 = Unix.gettimeofday ();
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      sd_m = Mutex.create ();
      sd_c = Condition.create ();
      sd_req = None;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let jobs_dump_path t =
  let base = Filename.remove_extension (Filename.basename t.cfg.socket_path) in
  let safe =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '_')
      base
  in
  Fmt.str "jobs_%s.json" safe

let stop ?(drain = true) t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.stopping true;
    (* Finish (or abandon) the backlog first, so the job-table dump and
       the trace below are final. *)
    Executor.stop ~drain t.exec;
    (* Waking a thread blocked in [accept] is platform-delicate:
       [shutdown] does it on Linux; the throwaway self-connection covers
       the rest (the accept loop re-checks [stopping] after every
       accept, so the wake connection is closed, not served). *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with _ -> ())
         (fun () -> Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path))
     with Unix.Unix_error _ | Sys_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
    ignore
      (Store.put t.store ~akind:"server-trace" ~label:"era_serve"
         (Tracer.to_string t.tracer)
        : string);
    Fs.write_file ~file:(jobs_dump_path t)
      (J.to_string
         (J.Obj
            [
              ("stats", stats_json t);
              ("jobs", J.List (List.map Job.summary_to_json (jobs t)));
            ]));
    (* Unblock a [wait]er when stop was called directly. *)
    Mutex.lock t.sd_m;
    if t.sd_req = None then t.sd_req <- Some drain;
    Condition.broadcast t.sd_c;
    Mutex.unlock t.sd_m
  end

let wait t =
  Mutex.lock t.sd_m;
  while t.sd_req = None do
    Condition.wait t.sd_c t.sd_m
  done;
  let drain = Option.value t.sd_req ~default:true in
  Mutex.unlock t.sd_m;
  stop ~drain t
