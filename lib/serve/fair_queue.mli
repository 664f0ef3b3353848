(** Round-robin fairness across named tenants behind one mutex, plus a
    global admission cap.

    Admission ({!submit}) is non-blocking and sheds explicitly, with the
    reason: the tenant's own queue is full ([`Tenant_cap] — one noisy
    tenant cannot displace the others), the global cap is reached
    ([`Global_cap] — the whole daemon is saturated), or the scheduler is
    closed ([`Closed]). The global cap is a lock-free atomic reservation
    taken before the mutex, so a saturated daemon sheds without
    contending with its dispatchers; the tenant cap, the closed check
    and the push happen under the mutex.

    Dispatch ({!next}) blocks until work is available and serves a ring
    of the tenants that have queued work: the front tenant gives one
    job and goes to the back if it has more, so a tenant with a deep
    backlog gets at most one job per turn of the ring. A tenant joins
    the ring on the submit that finds it idle and leaves it with its
    last job, so dispatch is O(1) and an idle tenant holds no state.

    Shutdown has two modes: {!close} drains, {!close_now} returns the
    abandoned items. Safe for any number of submitting and dispatching
    domains/threads. *)

type 'a t

type shed = [ `Tenant_cap | `Global_cap | `Closed ]

val shed_reason : shed -> string
(** ["tenant-cap"] | ["global-cap"] | ["closed"] — the wire spelling. *)

val create : ?tenant_cap:int -> ?global_cap:int -> unit -> 'a t
(** Defaults: tenant cap 64, global cap 256. Both clamp to >= 1. *)

val submit : 'a t -> tenant:string -> 'a -> (unit, shed) result

val next : 'a t -> 'a option
(** Block for the next item, round-robin across tenants. [None] once the
    scheduler is closed and (in drain mode) empty — the worker-exit
    signal. *)

val close : 'a t -> unit
(** Refuse further submits; {!next} drains the remaining items. *)

val close_now : 'a t -> 'a list
(** Refuse further submits and abandon the backlog, returning it in
    ring order, FIFO within each tenant. Blocked and later {!next} calls
    return [None]; a second call returns [[]]. *)

val depth : 'a t -> int
(** Total queued items across tenants, counting submits between their
    global reservation and their push — telemetry snapshot. *)

val tenants : 'a t -> (string * int) list
(** (tenant, queued items) for each tenant with queued work, in service
    order (next to be served first) — telemetry. An idle tenant is not
    listed, so the daemon's [serve_tenant_depth] gauges cover only
    tenants with a backlog. *)
