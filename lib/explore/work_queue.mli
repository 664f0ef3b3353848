(** Mutex + condvar LIFO work stack, for domain workers that both
    consume and produce work (a run's same-level children go back onto
    the stack).

    Termination is by quiescence: {!take} returns [None] once the stack
    is empty and no worker holds an item (so nobody can produce more), or
    after {!stop}. Safe for concurrent use from any number of domains. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a list -> unit
(** Push a whole list under one lock acquisition; its head ends on top,
    so it is the next item {!take} hands out. Never blocks. *)

val take : 'a t -> 'a option
(** Block until work arrives (the top item; the caller becomes
    {e active}) or the stack quiesces / is stopped ([None]). O(1). Every
    [Some] result must be followed by exactly one {!item_done} — the
    crash-safety contract: a worker that fails mid-item must still call
    it (e.g. via [Fun.protect]) or the quiescence count deadlocks. *)

val item_done : 'a t -> unit
(** Declare the item from the matching {!take} fully processed (all
    children pushed). *)

val stop : 'a t -> unit
(** Make every current and future {!take} return [None]. Idempotent. *)

val length : 'a t -> int
(** Items currently on the stack — a telemetry snapshot (the heartbeat's
    frontier depth), immediately stale under concurrency. O(1). *)
