(** Empirical applicability verdicts (Definitions 5.4 and 5.6).

    For each (scheme × structure) pair, applicability requires three
    things, each checked by running integrated executions:

    + {b memory safety} (Definition 4.2): no monitor violation across
      many randomized-schedule executions, {e and} — for Harris's list,
      the structure the theorem turns on — surviving the deterministic
      adversarial executions of Figures 1 and 2;
    + {b correctness}: every recorded history linearizes against the
      structure's sequential specification;
    + {b progress}: partially-run operations complete in bounded solo
      runs (lock-freedom).

    Fuzzing cannot prove a scheme safe, but it refutes decisively; the
    adversarial executions make the refutations for HP/HE/IBR on Harris's
    list deterministic. Wide applicability (Definition 5.6) is then
    approximated as applicability to every access-aware structure in this
    library. *)

type structure =
  | Harris
  | Michael
  | Hash  (** Harris buckets: inherits the Figure 1/2 refutations *)
  | Hash_michael  (** Michael buckets: HP-compatible *)
  | Stack
  | Queue

val structures : structure list
val structure_name : structure -> string

val structure_of_name : string -> structure option
(** Accepts {!structure_name} outputs plus short forms ([harris],
    [michael], [hash], [stack], [queue], …), case-insensitively. *)

(** {2 Cells}

    The one way a simulated (scheme × structure) cell is built, shared by
    the fuzzers below, the explorer targets, the access-aware audit
    ({!Access_aware}) and the stalled-reader runs ({!Robustness}). The
    op log, linearizability and crash checks the fuzzers and explorer
    targets share stay inside this module. *)

type handle =
  | Set_ops of Era_sets.Set_intf.ops
  | Stack_ops of Era_sets.Treiber_stack.stack_ops
  | Queue_ops of Era_sets.Ms_queue.queue_ops
(** One thread's operations on an instantiated structure. *)

val instantiate :
  (module Era_smr.Smr_intf.S with type t = 'g) -> structure -> 'g ->
  Era_sched.Sched.ctx -> record:bool -> Era_sched.Sched.ctx -> handle
(** [instantiate (module S) structure g ext] applies [structure]'s functor
    to [S] once and creates the structure (hash sets: 4 buckets) on
    scheme state [g] through [ext]. The result makes a handle for the
    thread behind a context; making one registers that thread with the
    scheme, so a thread body makes its own. [record] wraps each operation
    in history events. *)

val fill : handle -> int list -> unit
(** Insert, push or enqueue each key in order, discarding results. *)

val run_ops :
  handle -> Era_sim.Rng.t -> ops:int -> keys:Era_workload.Workload.key_dist ->
  mix:Era_workload.Workload.mix -> unit
(** The structure's {!Era_workload.Workload} driver; [mix] applies to sets
    only (stacks and queues run 50/50). *)

val fresh :
  ?trace:bool -> threads:int -> Era_sched.Sched.strategy -> Era_sched.Sched.t
(** A scheduler over a new heap and a new [`Record]-mode monitor
    ([trace] defaults to [false]); reach them with [Sched.heap] and
    [Sched.monitor]. *)

(** {2 Verdicts} *)

type verdict = {
  scheme : string;
  structure : structure;
  fuzz_runs : int;
  violations : int;  (** total safety violations across fuzz runs *)
  first_violation : Era_sim.Event.t option;
  non_linearizable : int;  (** runs whose history failed the checker *)
  progress_failures : int;
  adversarial_unsafe : bool;
      (** Harris only: did Figure 1 or Figure 2 produce a violation *)
  neutralize_unsafe : bool;
      (** set structures only: did the deterministic neutralization
          scenario ({!neutralize_check}) yield a non-linearizable
          history or a crash *)
  crashed : int;  (** threads that died on an exception *)
}

val applicable : verdict -> bool

val neutralize_check : Era_smr.Registry.scheme -> structure -> bool
(** Deterministic refutation for schemes whose restarts can fire past an
    operation's linearization point (DEBRA+): a recorded
    [insert k; delete k] is suspended right after the delete's marking
    CAS while the other thread churns enough to trigger a
    neutralization; on solo resume, a from-the-top restart re-runs the
    delete and answers [false] for a key it already deleted. Returns
    [true] iff the recorded history fails to linearize (or a thread
    crashed). [false] for stack/queue structures (set scenario only) and
    for every scheme that either never neutralizes or — like NBR —
    shields its write phases from the signal. *)

val run :
  ?fuzz_runs:int -> ?threads:int -> ?ops_per_thread:int -> ?seed:int ->
  Era_smr.Registry.scheme -> structure -> verdict
(** Defaults: 20 fuzz runs, 3 threads, 30 ops each. *)

val stall_fuzz :
  ?threads:int -> ?ops_per_thread:int -> tries:int -> seed:int ->
  Era_smr.Registry.scheme -> structure -> Era_explore.Explore.fuzz_report
(** Black-box violation hunting: randomized schedules with one thread
    frozen at a random point and solo-resumed at the end — enough, with
    reclamation-triggering churn, to stumble on Figure 1-like executions
    without knowing the construction. [fz_found] counts the [tries] runs
    that produced a safety violation or crash (expected: >0 for HP/HE/IBR
    on the Harris family, 0 for applicable pairings); the first violation
    is reported in the same {!Era_explore.Explore.violation_info} format
    the systematic explorer emits. *)

(** {2 Systematic exploration}

    Bounded model checking over any (scheme × structure) cell: the
    explorer of [lib/explore] pointed at a tiny deterministic workload —
    the "find the paper's executions instead of scripting them"
    entry point. *)

val explore_target :
  ?threads:int -> ?ops_per_thread:int -> ?keys:int -> ?seed:int ->
  ?prefill:int -> ?lincheck:bool -> ?robustness_bound:int ->
  Era_smr.Registry.scheme -> structure -> Era_explore.Explore.target
(** Defaults: 2 threads, 14 ops each, keys uniform in [1, 4], seed 2,
    prefill of 2 keys, update-heavy mix, no robustness bound. Pass
    [robustness_bound] to also hunt non-robustness (Definition 5.1): a
    retired backlog beyond the bound becomes a [Robustness_exceeded]
    violation. Pass [lincheck:true] to also hunt non-linearizability
    (DEBRA+'s failure mode): each run's recorded history is checked when
    the last thread finishes and a failure is emitted into the monitor
    as a [Linearizability_failure] violation, so counterexamples shrink
    and replay like safety findings; lincheck targets force
    [prefill = 0] (the checker assumes an empty initial structure). *)

val explore :
  ?config:Era_explore.Explore.config -> ?threads:int ->
  ?ops_per_thread:int -> ?keys:int -> ?seed:int -> ?prefill:int ->
  ?lincheck:bool -> ?robustness_bound:int ->
  Era_smr.Registry.scheme -> structure -> Era_explore.Explore.search_result
(** [Era_explore.Explore.explore] on {!explore_target}. *)

val target_of_counterexample :
  Era_explore.Explore.counterexample ->
  (Era_explore.Explore.target, string) result
(** Rebuild the exact target a saved counterexample was found on from its
    ["scheme/structure"] name and recorded parameters — the replay half
    of the CLI round trip. *)

val matrix :
  ?fuzz_runs:int -> ?seed:int -> unit ->
  (string * (structure * verdict) list) list
(** Every scheme crossed with every structure. *)

val widely_applicable : (structure * verdict) list -> bool
(** Applicable to all five (access-aware) structures. *)

val pp_verdict : Format.formatter -> verdict -> unit
