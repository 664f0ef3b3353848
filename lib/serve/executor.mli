(** Domain-pool job executor: N worker domains pulling from a
    {!Fair_queue}, executing jobs (exploration runs reuse the
    explorer's machinery — a job may itself fan out over several
    search domains via its [Explore] parameters), storing
    artifacts content-addressed, and streaming per-job telemetry —
    a Tracer span per job on the worker's track plus a per-job
    [lib/obs] Registry snapshot persisted as a ["registry"] artifact.

    Shutdown, mirroring the explorer's [Work_queue] liveness contract:
    - {!stop} with [drain = true] (default): the queue refuses new work,
      the workers finish everything already admitted, then exit.
    - [drain = false]: the backlog is abandoned; each abandoned job is
      marked [Aborted] (never silently lost) and workers exit after
      their in-flight job.
    Both wake workers blocked on an empty queue ({!stop} joins them). *)

type stats = {
  served : int Atomic.t;  (** jobs finished [Done] *)
  failed : int Atomic.t;
  aborted : int Atomic.t;
  busy : int Atomic.t;  (** workers currently executing a job *)
  service_us : int Atomic.t;  (** total execution time, µs *)
}

type t

type heartbeats
(** Per-job heartbeat bus: sequence-numbered registry-format snapshots
    pushed by the worker executing a job (every job emits one as it
    starts running; explore jobs add periodic progress snapshots) and
    drained by daemon threads serving [follow] requests. History is
    capped at 256 beats per job and persisted as a ["heartbeats"]
    artifact when the job finishes. *)

val create_heartbeats : unit -> heartbeats

val heartbeats_after :
  t -> job:int -> after:int -> (int * Era_metrics.Json.t) list
(** Beats for [job] with sequence number [> after], oldest first, each
    as [(seq, body)] where [body] is
    [{"job":…,"seq":…,"ts_s":…,"label":…,"registry":…}]. *)

val start :
  ?workers:int ->
  ?tracer:Era_obs.Tracer.t ->
  queue:Job.t Fair_queue.t ->
  store:Store.t ->
  unit ->
  t
(** Spawn [workers] (default 2, clamped to >= 1) worker domains. The
    tracer, when given, receives one span per job on track [tid] =
    worker index (timestamps: wall-clock µs since {!start}). *)

val stats : t -> stats
val workers : t -> int

val stop : ?drain:bool -> t -> unit
(** Close the queue ([drain] as above), join every worker. Idempotent —
    a second call is a no-op. *)

val run_job : ?hb:heartbeats -> store:Store.t -> Job.t -> unit
(** Execute one job synchronously on the calling domain: sets
    [started_s]/[finished_s], transitions [Running -> Done|Failed], and
    stores artifacts. With [hb], heartbeats are pushed during the run
    and the history is persisted as a ["heartbeats"] artifact (listed in
    the job's result). Exposed for tests and for running without a
    pool. *)
