(** Deterministic cooperative scheduler over effect-based fibers.

    This realizes the paper's execution model (Section 3): an execution is
    an alternating sequence of configurations and steps, where each step is
    a shared-memory access by one thread. Simulated threads are OCaml
    fibers that call {!yield} immediately before every shared access (see
    {!Mem}); exactly one fiber runs at a time, so every quantum is one
    atomic step plus thread-local computation.

    Each yield ends a quantum and is the schedule's single decision
    point: the strategy picks the next thread there, once per quantum.
    If it picks the running thread, that thread continues inline; the
    fiber suspends only when the schedule switches to another thread or
    ends the run. Counts, schedules and traces are the same as if every
    quantum suspended; {!switches} counts the suspensions.

    Schedules come in four flavours:
    - [Round_robin] and [Random _] for fuzzing and throughput-style runs;
    - [Script _] for the paper's adversarial constructions — e.g. Figure 1
      needs "run T1 until it has read [head.next], then run T2 to
      completion, then solo-run T1", which is exactly a three-instruction
      script;
    - [Controlled _] for systematic exploration: an external controller is
      consulted before {e every} quantum and picks the thread to step, so
      a model checker can enumerate scheduling choices one at a time (see
      [lib/explore]).

    Threads can be stalled (they model the failed/delayed threads of the
    robustness definitions) and resumed; a bounded solo run that exceeds
    its budget emits a [Progress_failure] violation (loss of lock-freedom,
    Definition 5.4(3)). *)

type t

type ctx = {
  tid : int;
  heap : Era_sim.Heap.t;
  sched : t;
}
(** Per-thread handle passed to thread bodies; all shared accesses go
    through {!Mem} with a [ctx]. *)

type instr =
  | Run of int * int
      (** [Run (tid, n)]: give [tid] exactly [n] quanta (fewer if it
          finishes). *)
  | Run_until of int * (Era_sim.Event.t -> bool)
      (** run [tid] until a quantum emits a matching event; the thread is
          left suspended right after that quantum. *)
  | Run_until_label of int * string
      (** convenience: {!Run_until} on a [Label] event with this name. *)
  | Finish of int  (** run [tid] until its body returns (or crashes). *)
  | Finish_bounded of int * int
      (** [Finish_bounded (tid, budget)]: like [Finish] but emits a
          [Progress_failure] violation if the budget is exhausted — the
          executable form of a solo-run lock-freedom check. A budget
          [<= 0] on a live thread is exhausted at once: the violation is
          emitted and the instruction popped without running a quantum;
          on a finished thread the instruction is skipped silently. *)
  | Finish_all  (** round-robin over all runnable threads until done. *)

type strategy =
  | Round_robin
  | Random of Era_sim.Rng.t
  | Script of instr list
  | Controlled of (t -> int)
      (** The controller is called before every quantum with the scheduler
          itself and returns the tid to step next (it must be runnable), or
          [-1] to end the run ([Script_done], or [All_finished] when every
          thread has completed). It observes a choice point for every
          single quantum, including those where it picks the thread that
          just ran (which then continues without a suspension). An
          exception it raises propagates out of {!run}; the thread that
          was running stays [Running], it is not [Crashed]. *)

type outcome =
  | All_finished
  | Script_done  (** script exhausted; some threads may still be live *)
  | Step_limit
  | No_runnable  (** only stalled/suspended threads remain *)

type thread_outcome =
  | Not_spawned
  | Running  (** suspended mid-execution *)
  | Finished
  | Crashed of exn

val create :
  ?max_steps:int -> nthreads:int -> strategy -> Era_sim.Heap.t -> t
(** [max_steps] defaults to 20 million quanta. *)

val spawn : t -> tid:int -> (ctx -> unit) -> unit
val heap : t -> Era_sim.Heap.t
val monitor : t -> Era_sim.Monitor.t
val nthreads : t -> int

val set_quantum_hook : t -> (int -> int -> int -> unit) option -> unit
(** Observability tap for the tracer ([lib/obs]), and how the
    explorer's shrinker records the quanta a script actually ran: when
    set, the hook is called after every quantum with
    [(tid, time_before, time_after)]
    where the times are the monitor's step clock around the quantum, so
    a trace can render each quantum as a span on the thread's track.
    It fires once per quantum, whether the next quantum continues the
    same thread inline or switches, so the number of calls equals
    {!total_steps}. [None] (the default) costs one branch per quantum —
    the disabled path the perf gate's [trace_off_overhead] row asserts
    is free. *)

val run : t -> outcome
(** Drive the schedule to completion. May raise
    [Era_sim.Monitor.Violation] if the monitor is in [`Raise] mode. *)

val thread_outcome : t -> int -> thread_outcome
val steps_of : t -> int -> int
(** Quanta consumed by a thread so far — the thread's position in its own
    instruction stream. *)

val total_steps : t -> int
(** Quanta executed so far across all threads — the schedule's current
    step count. *)

val switches : t -> int
(** Fiber suspensions so far: quanta after which the schedule switched
    to another thread or ended the run. A quantum whose successor is
    the same thread continues inline and is not counted. *)

(** {2 Runnable-set introspection}

    Read-only accessors used by exploration tooling (and tests) to
    enumerate the scheduling choices available at the current
    configuration. None of them affect the schedule. *)

val runnable_count : t -> int

val runnable_tids : t -> int list
(** Ascending. [runnable_tids t] is empty iff [runnable_count t = 0]. *)

val runnable_into : t -> int array -> int
(** Allocation-free variant for per-quantum callers (the explorer's
    controller): fill [buf] with the runnable tids in ascending order and
    return their count. [buf] must have length at least [nthreads t].
    Exploration workers on separate domains each own a private scheduler
    and scratch buffer — a [t] itself is single-domain and must never be
    shared across domains. *)

val current_tid : t -> int
(** The tid being stepped right now; [-1] between quanta. In particular
    it is [-1] inside a [Controlled] callback and a quantum hook, even
    though both now run at the yield, on the running fiber's stack. *)

val stall : t -> int -> unit
(** Mark a thread failed/delayed: [Round_robin]/[Random] skip it. Emits a
    [Stalled] event. Scripted instructions ignore stalling (a script is
    absolute authority over who runs). *)

val unstall : t -> int -> unit

val yield : ctx -> unit
(** End the current quantum and decide the next one. Called by {!Mem}
    before every shared access; thread bodies may also call it to create
    extra interleaving points. If the strategy picks the calling thread
    again, [yield] returns at once; otherwise the fiber suspends until
    it is rescheduled. Outside a fiber (setup code) it is a no-op. *)

val external_ctx : t -> tid:int -> ctx
(** A context for running data-structure code {e outside} the scheduler —
    building sentinels, pre-filling, post-run assertions. Yields become
    no-ops; every access still goes through the heap and monitor. *)

val label : ctx -> string -> unit
(** Emit a [Label] breakpoint event (one quantum). *)

val run_op : ctx -> Era_sim.Event.op ->
  (unit -> Era_sim.Event.op_result) -> Era_sim.Event.op_result
(** Wrap a data-structure operation in [Invoke]/[Response] events for
    history extraction. *)

val next_opid : t -> int
