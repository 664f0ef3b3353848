(** Jobs: the unit of work `era_serve` admits, queues, executes and
    answers for.

    A job wraps one of the repo's one-shot workloads — a systematic
    exploration, a Figure 1/2 classification run, or a synthetic probe
    (calibrated busy work, the load generator's default) — together with
    the tenant that submitted it and its lifecycle timestamps. Kinds and
    summaries round-trip through the wire JSON ({!kind_to_json} /
    {!kind_of_json}), so the daemon, the CLI client and the load
    generator all speak one format. *)

type kind =
  | Explore of {
      scheme : string;
      structure : string;
      preemptions : int;
      max_runs : int;
      steps : int;
      seed : int;
      ops : int option;  (** ops per thread; [None] = target default *)
      robust_bound : int option;
    }
  | Figure1 of { scheme : string; rounds : int }
  | Figure2 of { scheme : string }
  | Probe of { spin : int }
      (** [spin] units of deterministic busy work — a calibrated service
          time for load/saturation experiments, no artifacts *)

type status =
  | Queued
  | Running
  | Done
  | Failed  (** the run raised; the note carries the exception *)
  | Aborted  (** shed after admission by a non-draining shutdown *)

type result_ = {
  note : string;  (** one-line human outcome, e.g. the violation kind *)
  artifacts : (string * string) list;
      (** (artifact kind, content-addressed store key) *)
}

(** A job's mutable half, published whole: a terminal [status] is never
    seen without its [result], nor without the heartbeats that preceded
    it. *)
type progress = {
  status : status;
  started_s : float;  (** 0. until the executor picks it up *)
  finished_s : float;  (** 0. until terminal *)
  result : result_ option;  (** [Some] once terminal *)
  beats : (int * Era_metrics.Json.t) list;
      (** heartbeats as [(seq, body)], newest first, seq dense from 1;
          at most the newest 256 are kept *)
}

type cell
(** The published {!progress} with the lock and condition its waiters
    block on; read with {!progress} and {!await}, written with
    {!publish}. *)

type t = {
  id : int;
  tenant : string;
  kind : kind;
  submitted_s : float;  (** wall clock, [Unix.gettimeofday] *)
  cell : cell;
}

val make : id:int -> tenant:string -> kind -> t

val progress : t -> progress
(** One consistent snapshot of the job's lifecycle (lock-free). *)

val publish : t -> (progress -> progress) -> unit
(** The only writer: replace the snapshot [p] with [f p] and wake every
    {!await}er. Writers are serialised by the job's lock, so [f] may
    derive the next snapshot from the current one. *)

val await : t -> seen:progress -> progress
(** Block until the published snapshot is physically different from
    [seen], then return it. The check and the wait happen under the
    job's lock, so a {!publish} between them is never missed. Returns at
    once if the snapshot already changed. *)

val kind_name : kind -> string
(** ["explore"] | ["figure1"] | ["figure2"] | ["probe"]. *)

val kind_label : kind -> string
(** Short display label, e.g. ["explore hp/harris-list"]. *)

val default_explore :
  ?scheme:string -> ?structure:string -> unit -> kind
(** An [Explore] with the explorer's stock small-budget parameters
    (scheme ["hp"], structure ["harris-list"], 2 preemptions, 20k runs). *)

val kind_to_json : kind -> Era_metrics.Json.t
val kind_of_json : Era_metrics.Json.t -> (kind, string) result

val status_name : status -> string
val status_of_name : string -> status option

val terminal : status -> bool
(** [Done], [Failed] and [Aborted] are terminal. *)

val summary_to_json : t -> Era_metrics.Json.t
(** The job as the wire reports it: id, tenant, kind, status,
    timestamps, note and artifact keys, all from one {!progress}
    snapshot. *)

