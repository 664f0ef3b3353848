(** Bridge from a simulated execution to a {!Tracer}.

    {!attach} subscribes to a monitor's hook tables and renders every
    event onto the owning thread's track: SMR lifecycle and memory
    accesses as instants, operations ([Invoke]/[Response]) as nested
    spans, violations as instants in their own ["violation"] category
    (Perfetto highlights them on the faulting thread's track), plus a
    sampled ["nodes"] counter series (active / retired) at every
    lifecycle change. {!attach_sched} additionally renders each
    scheduler quantum as a complete span via {!Era_sched.Sched}'s
    quantum hook.

    Attaching changes {e nothing} about the execution: subscriptions
    force event records through [Monitor.emit] on kinds that would
    otherwise take the allocation-free fast path, but the step clock
    advances identically, so seeded schedules are bit-for-bit the same
    traced or untraced. *)

val attach :
  ?accesses:bool -> ?global_tid:int -> Tracer.t -> Era_sim.Monitor.t ->
  unit -> unit
(** Subscribe the tracer to every event kind; returns the detach
    function. [accesses] (default [true]) includes per-memory-access
    events ([Access]/[Key_read]) — pass [false] to keep their
    allocation-free fast path on long runs where only lifecycle and
    operation structure matter. Process-global events ([Epoch], [Note])
    are placed on a pseudo-track [global_tid] (default 9999, named
    "global"). *)

val attach_sched : ?names:(int * string) list -> Tracer.t -> Era_sched.Sched.t -> unit
(** Install a quantum hook emitting one ["sched"]/"quantum" complete
    span per quantum, and name every thread's track ("T0", "T1", ...;
    [names] overrides individual tids). See
    {!Era_sched.Sched.set_quantum_hook} for the determinism and
    disabled-cost contract. *)
