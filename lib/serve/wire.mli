(** Wire protocol: newline-delimited minified JSON over a local (Unix
    domain) socket.

    One request line, one response line, in order per connection —
    clients may pipeline (write many requests before reading responses),
    which is how the load generator keeps thousands of requests in
    flight over a few hundred connections. Minified JSON never contains
    a raw newline (the codec escapes control characters), so '\n' is an
    unambiguous frame delimiter.

    Requests:
    {v
    {"op":"ping"}
    {"op":"submit","tenant":"t0","job":{"kind":"probe","spin":500}}
    {"op":"job","id":12}
    {"op":"follow","id":12}
    {"op":"jobs"}
    {"op":"stats"}
    {"op":"artifact","key":"<hex>"}
    {"op":"manifest"}
    {"op":"shutdown","drain":true}
    v}

    Responses are [{"ok":true,...}] or [{"ok":false,"error":"..."}]. A
    shed submit is [ok:true] with ["status":"shed"] — shedding is a
    well-formed admission outcome, not a protocol error.

    [follow] is the one streaming exception to one-request/one-response:
    the daemon pushes the job's [{"heartbeat":...}] lines (registry
    snapshots from the running job: the history so far, then each new
    one as it is published) and finishes with a single terminal
    [{"ok":true,"job":...}] line once the job reaches a terminal status
    — done, failed, or aborted by a non-draining shutdown. A follow
    occupies its connection until that terminal line — don't pipeline
    other requests behind it. *)

type request =
  | Ping
  | Submit of { tenant : string; kind : Job.kind }
  | Job_status of int
  | Follow of int  (** stream heartbeats for a job until it finishes *)
  | Jobs
  | Stats
  | Artifact of string
  | Manifest
  | Shutdown of { drain : bool }

val request_to_json : request -> Era_metrics.Json.t
val request_of_json : Era_metrics.Json.t -> (request, string) result

val ok : (string * Era_metrics.Json.t) list -> Era_metrics.Json.t
val err : string -> Era_metrics.Json.t

(** {2 Line framing over a file descriptor} *)

type conn
(** A buffered connection (blocking reads). *)

val conn_of_fd : Unix.file_descr -> conn
val fd : conn -> Unix.file_descr

val send_line : conn -> string -> unit
(** Write [s ^ "\n"], handling short writes. Raises [Unix.Unix_error]
    on a dead peer. *)

val recv_line : conn -> string option
(** Next complete line (without the delimiter); [None] on EOF. *)

val has_buffered : conn -> bool
(** A complete line is already buffered — {!recv_line} will not block.
    Lets servers poll the fd with a timeout (to observe a stop flag)
    without starving pipelined lines that already arrived. *)

val send_json : conn -> Era_metrics.Json.t -> unit
val recv_json : conn -> (Era_metrics.Json.t, string) result option
(** [None] on EOF; [Some (Error _)] on a malformed line. *)
