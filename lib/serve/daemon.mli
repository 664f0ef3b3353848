(** The `era_serve` daemon: exploration-as-a-service over a local Unix
    domain socket.

    Architecture: an accept thread spawns one handler thread per
    connection (requests on a connection are served in order, so clients
    may pipeline); handlers perform {e admission} into a tenant-fair
    bounded queue ({!Fair_queue} — non-blocking, shed-on-full with the
    reason on the wire); a {!Executor} domain pool drains the queue;
    artifacts land in a content-addressed {!Store}; cross-job telemetry
    streams into a [lib/obs] Tracer (one span per job per worker track)
    and is queryable as a Registry snapshot via the [stats] op.

    The daemon can be embedded (tests, the E17 bench boot it in-process)
    or run standalone behind [era_cli serve]. *)

type config = {
  socket_path : string;
  workers : int;  (** executor domains *)
  global_cap : int;  (** admission slots across all tenants *)
  tenant_cap : int;  (** admission slots per tenant *)
  store_dir : string;
}

val default_config : config
(** socket ["era_serve.sock"], 2 workers, global cap 256, tenant cap 64,
    store ["artifacts"]. *)

type t

val start : config -> t
(** Bind the socket (unlinking a stale file), start the accept thread
    and the executor pool. Raises [Unix.Unix_error] if the socket cannot
    be bound. *)

val config : t -> config
val store : t -> Store.t
val tracer : t -> Era_obs.Tracer.t

val wait : t -> unit
(** Block until a [shutdown] request arrives (or {!stop} is called from
    another thread), then complete that shutdown and return — the
    foreground half of [era_cli serve]. *)

val stop : ?drain:bool -> t -> unit
(** Stop the daemon: close admission, stop the executor pool
    ([drain = true], the default: finish the backlog first;
    [false]: abandon it, marking jobs [Aborted]), stop accepting,
    unlink the socket, dump the job table to [jobs_<socket-base>.json]
    and persist the server trace into the store. Idempotent.

    The executor stop makes every admitted job terminal, so a [follow]
    (and so {!Client.wait_job}) blocked on a job wakes with its real
    terminal summary. Handler threads for connections still open then
    exit on their next poll tick (sub-second); their clients see EOF. *)

val stats_registry : t -> Era_obs.Registry.t
(** A fresh registry snapshot: admission counters
    ([serve_submitted], [serve_admitted], [serve_shed{reason}]),
    executor counters ([serve_served], [serve_failed], [serve_aborted]),
    queue/busy gauges and per-tenant depths. *)

val jobs : t -> Job.t list
(** Job-table snapshot, ascending id. *)

val find_job : t -> int -> Job.t option
