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
    Both wake workers blocked on an empty queue ({!stop} joins them).
    Either way every admitted job is terminal when {!stop} returns, so
    every {!Job.await}er wakes. *)

type stats = {
  served : int Atomic.t;  (** jobs finished [Done] *)
  failed : int Atomic.t;
  aborted : int Atomic.t;
  busy : int Atomic.t;  (** workers currently executing a job *)
  service_us : int Atomic.t;  (** total execution time, µs *)
}

type t

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

val run_job : store:Store.t -> Job.t -> unit
(** Execute one job synchronously on the calling domain, publishing
    every step through {!Job.publish}: [Running] with [started_s] and a
    start heartbeat; for explore jobs, about 16 progress heartbeats;
    then the terminal flip to [Done] or [Failed] with [finished_s] and
    the result. Heartbeats are sequence-numbered registry-format bodies
    [{"job":…,"seq":…,"ts_s":…,"label":…,"registry":…}] kept in the
    job's snapshot, and the history is persisted as a ["heartbeats"]
    artifact listed in the result. Never raises: a run or a store put
    that raises ends the job [Failed] with the error as its note.
    Exposed for tests and for running without a pool. *)

val finish : Job.t -> Job.status * string * (string * string) list -> unit
(** [finish job (status, note, artifacts)] is the terminal flip alone,
    the last step of {!run_job}: one {!Job.publish} that sets [status],
    [finished_s] and the result together, so no snapshot pairs a
    terminal status with a missing result. Exposed for tests. *)
