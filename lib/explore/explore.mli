(** Systematic schedule exploration: bounded model checking over the
    deterministic scheduler.

    The paper's refutations (Figure 1 / Theorem 6.1, Figure 2 /
    Appendix E) are hand-crafted adversarial interleavings; this module
    {e searches} for them instead. A {!target} packages a deterministic
    multi-threaded execution (threads whose operation sequences do not
    depend on the schedule); {!explore} then enumerates schedules
    depth-first by stateless re-execution — each run replays a recorded
    prefix of scheduling choices and deviates at the frontier — under
    CHESS-style iterative preemption bounding: all schedules reachable
    with at most [k] context switches away from a runnable thread are
    explored before any schedule needing [k+1]. Unscheduled threads are
    de-facto stalled threads, so the search space at small bounds already
    contains the delayed-thread executions of the robustness definitions
    (5.1/5.2) as well as the preempt-and-churn safety executions of
    Figure 2.

    Two reduction devices keep the space tractable; neither drops a
    schedule on a guess about state equality:
    - {e preemption bounding}: empirically (CHESS), real concurrency bugs
      need very few preemptions; both paper constructions need one.
    - {e sleep sets} ([config.dpor]): dynamic partial-order reduction.
      When a sibling schedule at a choice point has already been
      explored, the deviating thread is put {e to sleep} in the subtree;
      it wakes only when some executed quantum's memory footprint
      (reads/writes per heap cell field, plus SMR-global effects,
      observed through the monitor's event hooks) conflicts with the
      footprint it was scheduled under. Scheduling a sleeping thread
      commutes with the explored sibling, so those schedules are covered
      by construction: configurations whose every runnable thread sleeps
      are cut.

    There is no visited-state table. Whether an access is valid depends
    on scheme state the simulated heap does not hold (hazard slots, era
    reservations, retired bags), so a state hash over heap and monitor
    counters would merge configurations that differ in exactly what
    decides a use-after-reclaim — pruning on it once hid the [he] cell's
    Figure 2 violation. In classic mode every schedule within the bounds
    runs.

    A found violation's schedule is compressed into a [Sched.Script] of
    [Run (tid, n)] instructions and shrunk over that script: whole
    instructions are dropped, then each [n] is shortened by an upward
    probe and a bisection. A candidate is kept only if it reproduces the
    violation kind on a strictly shorter schedule, so the result is
    shorter or equal, not minimal. The shrunk schedule is serialized as
    a replayable JSON counterexample ({!save} / {!load} / {!replay}).

    There is one search loop. Each preemption level's frontier is a LIFO
    work stack; [config.domains] workers (one by default) take items one
    at a time, push same-level children back onto it, and defer
    preempting children to the next level, which starts behind a barrier
    once the level has quiesced. With one worker this is the sequential
    depth-first search; with more, the frontier is shared across OCaml 5
    domains — every run is a stateless re-execution of a choice-point
    prefix — with a first-violation latch that cancels in-flight workers
    before shrinking proceeds sequentially on the winning schedule (see
    {!explore} for the exact determinism contract). *)

type target = {
  name : string;  (** e.g. ["hp/harris-list"] — round-tripped through JSON *)
  nthreads : int;
  params : (string * int) list;
      (** opaque construction parameters (seed, key range, ops per
          thread, …), carried into the counterexample so the CLI can
          rebuild the same target for replay *)
  robustness_bound : int option;
      (** when [Some b], a watcher emits a [Robustness_exceeded]
          violation the first time the retired backlog exceeds [b]
          (Definitions 5.1/5.2); [None] searches for safety violations
          only *)
  make : trace:bool -> Era_sched.Sched.strategy -> Era_sched.Sched.t;
      (** Build a fresh instance: heap and monitor (in [`Record] mode,
          event trace kept iff [trace]), structure setup and prefill, and
          all [nthreads] threads spawned. Must be deterministic — every
          call yields the identical initial configuration and thread
          bodies whose operation sequences are schedule-independent. *)
}

type violation_info = {
  v_kind : Era_sim.Event.violation;
  v_tid : int;
  v_step : int;  (** quantum index at which the violation fired *)
  v_detail : string;
}

type counterexample = {
  c_target : string;  (** {!field:target.name} of the violating target *)
  c_nthreads : int;
  c_params : (string * int) list;
  c_violation : violation_info;
  c_steps : int list;
      (** the shrunk schedule: the tid stepped at each quantum, ending at
          the violating quantum *)
  c_script : Era_sched.Sched.instr list;
      (** [c_steps] compressed into [Run (tid, n)] instructions *)
  c_preemptions : int;  (** preemptions in [c_steps] *)
}

type stats = {
  runs : int;  (** executions performed during the search *)
  states : int;  (** quanta executed across all runs ("states visited") *)
  pruned : int;
      (** always 0: the explorer keeps no visited-state table and cuts no
          run on state equality. Kept so existing readers of the stats
          record still compile. *)
  sleep_cuts : int;
      (** runs cut with every runnable thread asleep (DPOR mode): the
          remaining schedules commute with already-explored siblings *)
  switches : int;
      (** fiber suspensions across all runs ({!Era_sched.Sched.switches}):
          a quantum whose successor is the same thread continues inline,
          so this stays far below [states] *)
  shrink_runs : int;
      (** extra executions spent shrinking the counterexample's script,
          never more than [config.shrink_budget] *)
  cex_preemptions : int option;
      (** preemption bound at which the violation was found *)
  levels_completed : int;
      (** preemption bounds fully exhausted without finding a violation *)
  failed_runs : int;
      (** runs that raised instead of completing (fault injection, target
          bugs); nonzero means the coverage report is partial *)
  domains_used : int;  (** worker domains the search actually ran on *)
  per_domain_runs : int list;
      (** runs executed by each worker domain, index = domain ordinal
          (a single entry for the sequential search); sums to [runs] —
          the utilization breakdown behind the heartbeat telemetry *)
}

type search_result = {
  res_stats : stats;
  res_cex : counterexample option;
  res_schedules : int list;
      (** one hash per executed run of its full choice sequence, sorted
          (a multiset: duplicates are kept) — the coverage witness the
          differential tests compare across domain counts. Runs that
          raised (see [failed_runs]) contribute nothing. *)
}

type progress = {
  pg_level : int;  (** preemption level being explored *)
  pg_runs : int;
  pg_states : int;
  pg_frontier : int;  (** unexplored prefixes left at this level *)
  pg_deferred : int;
      (** prefixes already seeded for the next level: only children a
          later level will run, so always [0] at level
          [max_preemptions], where no preempting child is built *)
  pg_budget_left : int;  (** runs remaining in [max_runs] *)
  pg_per_domain_runs : int array;  (** runs per worker domain so far *)
}
(** A telemetry snapshot of a search in flight, delivered through
    [config.on_progress]. Parallel-mode snapshots are racy reads of
    monotone counters — each may be a few runs stale, but never
    invented. *)

type config = {
  max_preemptions : int;  (** highest preemption bound to search *)
  max_runs : int;  (** total execution budget for the search *)
  max_steps : int;  (** per-run quantum budget *)
  shrink : bool;
  shrink_budget : int;
      (** execution budget for shrinking; when it runs out the shrinker
          stops and keeps the shortest schedule accepted so far *)
  domains : int;
      (** workers taking items from each level's shared frontier. Worker
          0 runs on the calling domain, so 1 (the default) is the exact
          sequential DFS; [> 1] adds [domains - 1] [Domain.spawn] workers
          (see {!explore}) *)
  dpor : bool;
      (** sleep-set dynamic partial-order reduction (see the module
          header). Changes which runs are executed — [domains = 1]
          results remain deterministic but differ from classic-mode
          stats. Sleep sets only cut schedules that commute with
          explored ones, so every violation stays reachable; under
          preemption bounding the commuted representative can cost one
          more preemption, so in principle a violation can surface at a
          higher level than classic mode finds it (the differential
          tests check every built-in cell finds its violation at the
          same level). *)
  fault_hook : (int -> unit) option;
      (** test-only: called with each run's index before it executes; an
          exception it raises is charged to [failed_runs] and the search
          continues with the remaining frontier *)
  progress_every : int;
      (** emit a {!progress} snapshot roughly every this many runs;
          [0] (the default) disables telemetry entirely *)
  on_progress : (progress -> unit) option;
      (** heartbeat consumer. Always invoked on the calling domain (only
          worker 0, which runs there, reports — after its own items and
          at the end of each level), so it
          may print or mutate caller state without synchronization. It
          runs inside the search loop — keep it cheap. *)
}

val default_config : config
(** 2 preemptions, 20_000 runs, 50_000 steps/run, shrinking on with a
    budget of 50 runs (the built-in cells' witnesses shrink in 9–33);
    1 domain, DPOR off, no fault hook, no telemetry. *)

val explore : ?config:config -> target -> search_result
(** Search the target's schedule space. Stops at the first violation
    (shrunk if [config.shrink]), or when every schedule within
    [max_preemptions] has been covered, or when [max_runs] is spent.

    Determinism contract, by mode:
    - [domains = 1], [dpor = false]: the sequential CHESS-style DFS,
      fully deterministic — identical target and config give identical
      stats and counterexample, bit for bit across releases (the golden
      counts the test suite pins).
    - [domains = 1], [dpor = true]: still fully deterministic, but the
      sleep-set cuts change which runs execute, so stats differ from
      classic mode (fewer runs/states, same violations found).
    - [domains > 1], [dpor = false]: a search that finds no violation
      (and does not exhaust [max_runs]) runs exactly the sequential
      multiset of schedules — equal [res_schedules], [runs] and
      [states]. Level barriers preserve the iterative-bounding order,
      so a found violation still carries the minimal preemption bound;
      {e which} violating schedule is reported, and how many runs the
      latch cut short, may vary across domain counts and timings.
    - [domains > 1], [dpor = true]: sibling groups stay frozen at the
      parent's edge, so sleep sets are smaller and counts may exceed
      the sequential DPOR search's.
    In every mode a reported violation is a concretely witnessed
    execution that replays sequentially to the same violation kind, and
    a no-violation verdict covers the same bounded schedule space. *)

type replay_result = {
  rp_violation : violation_info option;
  rp_outcome : Era_sched.Sched.outcome;
  rp_trace : Era_sim.Event.t list;
      (** the full monitor event trace of the replayed execution *)
}

val run_steps :
  ?trace:bool -> ?on_sched:(Era_sched.Sched.t -> unit) -> target ->
  int list -> replay_result
(** Execute the target under the exact quantum-by-quantum schedule
    [steps] (entries naming finished threads are skipped), with the same
    violation/robustness watchers the explorer uses. [on_sched] is
    called with the freshly built scheduler before the run starts —
    the hook point for attaching a tracer
    ([Era_obs.Sim_trace.attach]/[attach_sched]) to an execution whose
    scheduler the caller never sees otherwise. *)

val replay :
  ?trace:bool -> ?on_sched:(Era_sched.Sched.t -> unit) -> target ->
  counterexample -> replay_result
(** {!run_steps} on the counterexample's shrunk schedule. *)

val preemptions_of_steps : int list -> int
(** Context switches away from a still-live thread (first choice and
    switches after a thread's last quantum are free). Counts against the
    steps list alone, treating a tid's final occurrence as its end. *)

(** {2 Serialization} *)

val save : file:string -> counterexample -> unit
(** Write the counterexample as an indented JSON document, creating the
    parent directories if needed. Raises [Sys_error] with the offending
    path in the message when the path is unwritable. *)

val load : file:string -> (counterexample, string) result

val counterexample_to_json : counterexample -> Era_metrics.Json.t
val counterexample_of_json :
  Era_metrics.Json.t -> (counterexample, string) result

(** {2 Shared violation reporting}

    Randomized stall fuzzing ([Applicability.stall_fuzz]) reports through
    the same record types as systematic exploration, so downstream tables
    consume one format. *)

type fuzz_report = {
  fz_tries : int;
  fz_found : int;  (** runs that produced a violation or thread crash *)
  fz_first : violation_info option;
}

val violation_of_event :
  step:int -> Era_sim.Event.t -> violation_info option
(** [Some] iff the event is a [Violation]. *)

val stats_registry : stats -> Era_obs.Registry.t
(** Publish final search statistics into a fresh metrics registry
    (counters [explore_runs], [explore_states], …, one labelled
    [explore_domain_runs] counter per worker domain) — the payload of
    the heartbeat JSON sidecar and the unified export path shared with
    the sim monitor and native scheme stats. *)

val pp_violation : Format.formatter -> violation_info -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_stats : Format.formatter -> stats -> unit
