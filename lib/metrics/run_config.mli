(** The one command-line surface shared by the experiment front-ends
    ([bench/main.exe] and [bin/era_cli.exe]).

    Historically [bench/main.ml] only recognised a positional ["quick"]
    at [Sys.argv.(1)] and [era_cli] had its own dispatch; both now parse
    through this [Arg]-based module, so flags like [--json] and
    [--schemes] behave identically everywhere. The bare positional
    ["quick"] is still accepted as an alias for [--quick]. *)

type t = {
  quick : bool;
  json : string option;  (** [--json FILE] *)
  only : string list;  (** [--only E1,E8b] — empty means everything *)
  schemes : string list;
      (** [--schemes ebr,ibr] (aliases [--scheme], [-s]) — empty means all *)
  structure : string option;  (** [--structure harris] (explore/replay) *)
  domains : int option;  (** [--domains N] override for native rows *)
  ops : int option;  (** [--ops N] per-domain op count override *)
  rounds : int option;  (** [--rounds N] Figure 1 churn rounds *)
  fuzz : int option;  (** [--fuzz N] randomized runs per pair *)
  tries : int option;  (** [--tries N] stall-fuzz attempts *)
  seed : int option;  (** [--seed N] workload seed (explore) *)
  preemptions : int option;  (** [--preemptions N] exploration bound *)
  max_runs : int option;  (** [--max-runs N] exploration budget *)
  steps : int option;  (** [--steps N] per-run quantum budget *)
  robust_bound : int option;
      (** [--robust-bound N] — explore also flags retired backlogs > N *)
  dpor : bool;
      (** [--dpor] — sleep-set partial-order reduction for systematic
          exploration *)
  lincheck : bool;
      (** [--lincheck] — explore also hunts non-linearizable histories
          (forces an empty prefill; see
          [Era.Applicability.explore_target]) *)
  keys : int option;
      (** [--keys N] — key-space size for native list workloads *)
  zipf : float option;
      (** [--zipf S] — Zipf skew for native key draws (absent = uniform) *)
  mix : string option;
      (** [--mix NAME] — churn | read-heavy | balanced | a contains
          percentage 0–100 (native list workloads) *)
  out : string option;
      (** [--out FILE] output path (explore counterexample, trace JSON) *)
  heartbeat : int option;
      (** [--heartbeat N] — explore progress report interval in runs,
          plus a heartbeat JSON sidecar at the end *)
  trace : bool;
      (** [--trace] — capture a Perfetto trace of the relevant
          execution (explore: the shrunk counterexample replay) *)
  flight : string option;
      (** [--flight FILE] — attach the native flight recorder and write
          the merged Perfetto trace to FILE (native command) *)
  stall : bool;
      (** [--stall] — native: run only the E9 stalled-domain rows *)
  follow : int option;
      (** [--follow ID] — jobs: stream the job's heartbeats until it is
          terminal *)
  socket : string option;
      (** [--socket PATH] — daemon Unix socket (serve/submit/jobs) *)
  tenant : string option;  (** [--tenant NAME] for submitted jobs *)
  workers : int option;  (** [--workers N] serve executor domains *)
  queue_cap : int option;  (** [--queue-cap N] global admission cap *)
  tenant_cap : int option;  (** [--tenant-cap N] per-tenant cap *)
  store : string option;  (** [--store DIR] artifact store directory *)
  wait : bool;  (** [--wait] — block until the submitted job finishes *)
  shutdown : bool;  (** [--shutdown] — stop the daemon (jobs command) *)
  now : bool;  (** [--now] — with [--shutdown], abandon the backlog *)
  command : string option;  (** first non-flag word (era_cli commands) *)
  file : string option;
      (** second positional (e.g. [replay <counterexample.json>]); only
          accepted when [parse] was called with [~file_arg:true] *)
}

val parse :
  ?argv:string array -> prog:string -> ?commands:string list ->
  ?file_arg:bool -> unit -> t
(** Parse [argv] (default [Sys.argv]). If [commands] is non-empty, one
    positional command from that list is accepted; an unknown command or
    a second positional is an error, except that [~file_arg:true]
    (default false) allows one positional after the command, captured in
    {!field:t.file}. On bad usage (unknown flag, unknown command, stray
    positional) prints a {e one-line} error plus a [--help] pointer to
    stderr and exits 2; [--help] prints the full usage text and exits
    0. *)

val parse_result :
  argv:string array -> prog:string -> ?commands:string list ->
  ?file_arg:bool -> unit -> (t, string) result
(** Like {!parse} but returns [Error usage_message] instead of exiting —
    for tests. *)

val selects_experiment : t -> string -> bool
(** [--only] filter; ids are matched case-insensitively ("e8b" = "E8b").
    An empty filter selects everything. *)

val selects_scheme : t -> string -> bool
(** [--schemes] filter, case-insensitive; empty selects all. *)

val domains_or : t -> int -> int
val ops_or : t -> int -> int
val rounds_or : t -> int -> int
val fuzz_or : t -> int -> int
val tries_or : t -> int -> int
val seed_or : t -> int -> int
val preemptions_or : t -> int -> int
val max_runs_or : t -> int -> int
val steps_or : t -> int -> int

val mode : t -> string
(** ["quick"] or ["full"], for the run manifest. *)

val default_json_path : ?clock:(unit -> float) -> t -> string
(** [--json FILE] if given, else [bench/BENCH_<timestamp>.json] derived
    from [clock] (default [Unix.gettimeofday]). *)
