module J = Era_metrics.Json

type t = { conn : Wire.conn }

let connect ?(retries = 0) ?(retry_delay_s = 0.2) ~socket () =
  let attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok { conn = Wire.conn_of_fd fd }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      Error (Fmt.str "connect %s: %s" socket (Unix.error_message e))
  in
  let rec go n =
    match attempt () with
    | Ok _ as r -> r
    | Error _ when n > 0 ->
      Unix.sleepf retry_delay_s;
      go (n - 1)
    | Error _ as e -> e
  in
  go retries

let close t = try Unix.close (Wire.fd t.conn) with Unix.Unix_error _ -> ()

let rpc t req =
  match
    Wire.send_json t.conn (Wire.request_to_json req);
    Wire.recv_json t.conn
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Fmt.str "daemon gone: %s" (Unix.error_message e))
  | None -> Error "daemon closed the connection"
  | Some (Error e) -> Error (Fmt.str "malformed response: %s" e)
  | Some (Ok j) -> (
    match Option.bind (J.member "ok" j) J.to_bool with
    | Some true -> Ok j
    | Some false | None ->
      Error
        (Option.value
           (Option.bind (J.member "error" j) J.to_str)
           ~default:"daemon error"))

type submit_outcome = Admitted of int | Shed of string

let ping t = Result.map (fun _ -> ()) (rpc t Wire.Ping)

let submit t ~tenant kind =
  match rpc t (Wire.Submit { tenant; kind }) with
  | Error _ as e -> e
  | Ok j -> (
    match Option.bind (J.member "status" j) J.to_str with
    | Some "queued" -> (
      match Option.bind (J.member "id" j) J.to_int with
      | Some id -> Ok (Admitted id)
      | None -> Error "queued response without an id")
    | Some "shed" ->
      Ok
        (Shed
           (Option.value
              (Option.bind (J.member "reason" j) J.to_str)
              ~default:"unknown"))
    | _ -> Error "submit response without a status")

let job_status t id =
  match rpc t (Wire.Job_status id) with
  | Error _ as e -> e
  | Ok j -> (
    match J.member "job" j with
    | Some job -> Ok job
    | None -> Error "job response without a job")

let follow t ~on_heartbeat id =
  let rec recv_stream () =
    match Wire.recv_json t.conn with
    | None -> Error "daemon closed the connection"
    | Some (Error e) -> Error (Fmt.str "malformed response: %s" e)
    | Some (Ok j) -> (
      match J.member "heartbeat" j with
      | Some hb ->
        on_heartbeat hb;
        recv_stream ()
      | None -> (
        (* Terminal line: ok + final job summary (or an error line). *)
        match Option.bind (J.member "ok" j) J.to_bool with
        | Some true -> (
          match J.member "job" j with
          | Some job -> Ok job
          | None -> Error "follow response without a job")
        | Some false | None ->
          Error
            (Option.value
               (Option.bind (J.member "error" j) J.to_str)
               ~default:"daemon error")))
  in
  match
    Wire.send_json t.conn (Wire.request_to_json (Wire.Follow id));
    recv_stream ()
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Fmt.str "daemon gone: %s" (Unix.error_message e))
  | r -> r

let wait_job t id = follow t ~on_heartbeat:ignore id

let jobs t =
  match rpc t Wire.Jobs with
  | Error _ as e -> e
  | Ok j -> (
    match Option.bind (J.member "jobs" j) J.to_list with
    | Some l -> Ok l
    | None -> Error "jobs response without a list")

let stats t =
  match rpc t Wire.Stats with
  | Error _ as e -> e
  | Ok j -> (
    match J.member "stats" j with
    | Some s -> Ok s
    | None -> Error "stats response without stats")

let registry t =
  match rpc t Wire.Stats with
  | Error _ as e -> e
  | Ok j -> (
    match J.member "registry" j with
    | Some s -> Ok s
    | None -> Error "stats response without a registry")

let manifest t =
  match rpc t Wire.Manifest with
  | Error _ as e -> e
  | Ok j -> (
    match J.member "manifest" j with
    | Some m -> Ok m
    | None -> Error "manifest response without a manifest")

let artifact t key =
  match rpc t (Wire.Artifact key) with
  | Error _ as e -> e
  | Ok j -> (
    match Option.bind (J.member "content" j) J.to_str with
    | Some c -> Ok c
    | None -> Error "artifact response without content")

let shutdown t ~drain =
  Result.map (fun _ -> ()) (rpc t (Wire.Shutdown { drain }))
