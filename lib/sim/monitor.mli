(** The execution monitor: consumes the event stream of a simulated
    execution and enforces / measures the paper's definitions.

    - Safety (Definitions 4.1, 4.2): [Violation] events either raise
      {!Violation} ([`Raise] mode, for tests that expect safe executions)
      or are recorded ([`Record] mode, for the adversarial constructions of
      Figures 1–2 that deliberately drive a scheme into an unsafe access).
    - Robustness (Definitions 5.1, 5.2): the monitor maintains
      [active]/[retired] counts and their running maxima, so a
      classifier can compare the retired backlog against
      [max_active · N]. Counting allocates nothing. *)

type mode =
  [ `Raise  (** raise {!Violation} on the first safety violation *)
  | `Record  (** record violations and keep executing *)
  ]

type t

exception Violation of Event.t

val create : ?mode:mode -> ?trace:bool -> unit -> t
(** [trace] (default [true]) keeps the full event list in memory; disable
    for long robustness sweeps. Counters are kept regardless. *)

val emit : t -> Event.t -> unit
(** Feed one event. Updates counters; dispatches to hooks subscribed to
    the event's kind; in [`Raise] mode raises {!Violation} on violation
    events.

    Dispatch contract: hooks run over a stable snapshot of the
    subscription list and all receive the same timestamp. A hook may
    safely {!subscribe} or {!unsubscribe} (itself or any other hook)
    during dispatch — the change takes effect from the {e next} event —
    and may emit nested events (the nested event dispatches immediately,
    with its own later timestamp, without disturbing the outer
    dispatch). *)

val subscribe : t -> (int -> Event.t -> unit) -> unit
(** [subscribe t f] calls [f time event] on every subsequent event. Used by
    auditors (access-awareness, phase checkers) and scripted schedulers. *)

val subscribe_tags : t -> int list -> (int -> Event.t -> unit) -> unit
(** Like {!subscribe} but only for the given {!Event.tag} kinds — events
    of other kinds keep their allocation-free fast path. *)

val unsubscribe : t -> (int -> Event.t -> unit) -> unit
(** Remove a hook from every kind it was subscribed to, restoring the
    fast path for kinds left with no listener. Matches by physical
    equality, so pass the exact closure given to {!subscribe} /
    {!subscribe_tags}. *)

val observed : t -> tag:int -> bool
(** Is anyone listening to this event kind (trace enabled, or at least
    one hook subscribed to [tag])? When [false], callers may skip
    building the event record and call a [emit_*] fast-path instead. *)

(** {2 Fast-path emitters}

    Allocation-free counterparts of {!emit} for the per-memory-access
    event kinds. When the kind is unobserved they only advance the step
    clock; otherwise they build the record and go through {!emit}, so the
    observable event sequence is identical either way. *)

val emit_access :
  t -> tid:int -> addr:int -> node:int -> field:int ->
  kind:Event.access_kind -> unsafe:bool -> unit

val emit_key_read :
  t -> tid:int -> addr:int -> node:int -> unsafe:bool -> unit

val time : t -> int
(** Number of events emitted so far — the simulated step clock. *)

val active : t -> int
(** Nodes allocated and not yet retired. *)

val retired : t -> int
(** Nodes retired and not yet reclaimed: the backlog Definition 5.1
    bounds. *)

val max_active : t -> int
val max_retired : t -> int
(** Running maxima of {!active} and {!retired} over the execution. *)

val violations : t -> Event.t list
(** All recorded violations, oldest first. *)

val first_violation : t -> Event.t option
val violation_count : t -> int

val trace : t -> Event.t list
(** Full trace, oldest first; [[]] if tracing was disabled. *)

val find_last : t -> (Event.t -> bool) -> Event.t option
