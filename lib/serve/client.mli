(** Blocking client for the `era_serve` wire protocol — the CLI's
    [submit]/[jobs] subcommands and the test suite speak through this;
    the load generator ({!Load}) keeps its own non-blocking event loop
    and shares only the {!Wire} codecs. *)

type t

val connect :
  ?retries:int -> ?retry_delay_s:float -> socket:string -> unit ->
  (t, string) result
(** Connect to the daemon's Unix domain socket. [retries] (default 0)
    extra attempts spaced [retry_delay_s] (default 0.2 s) apart cover
    the daemon-still-booting race in scripts. *)

val close : t -> unit

val rpc : t -> Wire.request -> (Era_metrics.Json.t, string) result
(** One request/response round trip. [Error] on a dead daemon, a
    malformed response, or a response with [ok:false] (carrying its
    ["error"] message). *)

type submit_outcome =
  | Admitted of int  (** job id *)
  | Shed of string  (** wire reason: "tenant-cap" | "global-cap" | "closed" *)

val ping : t -> (unit, string) result
val submit : t -> tenant:string -> Job.kind -> (submit_outcome, string) result

val job_status : t -> int -> (Era_metrics.Json.t, string) result
(** The job summary object ({!Job.summary_to_json} shape). *)

val follow :
  t -> on_heartbeat:(Era_metrics.Json.t -> unit) -> int ->
  (Era_metrics.Json.t, string) result
(** Stream a job's heartbeats: [on_heartbeat] is called with each beat
    body ([{"job":…,"seq":…,"ts_s":…,"label":…,"registry":…}]), oldest
    first — the history so far, then each new beat as the daemon pushes
    it; returns the final job summary once the job is terminal
    (done/failed/aborted). Blocks for the job's whole remaining lifetime
    and occupies the connection — don't pipeline other requests behind
    it. Ends with [Error] if the daemon closes the connection first. *)

val wait_job : t -> int -> (Era_metrics.Json.t, string) result
(** {!follow} that ignores heartbeats: block until the job is terminal
    and return its summary. No timeout — the wait ends when the job
    ends or the daemon closes the connection. A stopping daemon makes
    every admitted job terminal first (drained or aborted), so a wait
    across a shutdown returns the job's real terminal summary. *)

val jobs : t -> (Era_metrics.Json.t list, string) result
val stats : t -> (Era_metrics.Json.t, string) result
(** The plain-int stats object (submitted/admitted/shed/served/...). *)

val registry : t -> (Era_metrics.Json.t, string) result
val manifest : t -> (Era_metrics.Json.t, string) result
val artifact : t -> string -> (string, string) result
val shutdown : t -> drain:bool -> (unit, string) result
