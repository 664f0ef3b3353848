(** Footprints and sleep sets for dynamic partial-order reduction.

    The explorer observes each quantum's shared accesses through the
    monitor's event hooks and condenses them into a {e footprint} — a
    small int array of (location, read/write) entries. Two quanta
    commute when their footprints don't {!conflicts}; a sleep set
    (Godefroid) uses that relation to prune sibling subtrees that only
    reorder independent quanta.

    Everything the hooks cannot attribute precisely is encoded
    conservatively (whole-cell or global pseudo-location entries), which
    can only cost reduction, never soundness: a false conflict wakes a
    sleeper early and re-explores an equivalent interleaving. *)

type footprint = int array
(** Entries are packed ints; treat as abstract outside tests. *)

val conflicts : footprint -> footprint -> bool
(** Do the two quanta fail to commute? True iff some location is touched
    by both with at least one write. *)

val pack : addr:int -> fcode:int -> w:int -> int
(** Exposed for tests: one footprint entry for field-code [fcode]
    ([0..7] per-field, {!fc_key}, or {!fc_all}) of cell [addr],
    write iff [w = 1]. *)

val fc_key : int
val fc_all : int

val global_write : int
(** The packed entry for a write to the global pseudo-location
    (allocator / scheme state); conflicts with every other global
    entry. *)

val history_write : int
(** The packed entry every [Invoke] and [Response] records: a write to
    the history pseudo-location, so quanta that both start or end an
    operation conflict — their order is the real-time order a
    linearizability check judges. Conflicts only with other history
    entries. *)

val empty_conservative : footprint
(** The footprint assigned to a quantum that emitted no attributable
    event: a single global write. Schemes mutate hook-invisible state
    (hazard slots, epoch caches) on such quanta, so they cannot soundly
    be treated as independent of everything. *)

(** {2 Building footprints from the event stream} *)

type builder

val builder : unit -> builder
val reset : builder -> unit

val record : builder -> Era_sim.Event.t -> unit
(** Append the entries for one event. The explorer subscribes this (via
    a closure tagging the current builder) to {!tags}. *)

val tags : int list
(** The {!Era_sim.Event.tag} kinds [record] cares about. *)

val finalize : builder -> footprint
(** Cut the footprint accumulated since the last [finalize]/[reset] and
    clear the builder. An empty builder yields {!empty_conservative}; a
    builder holding only {!history_write} entries gets {!global_write}
    added, since history entries say nothing about scheme state. *)

(** {2 Sleep entries} *)

type entry = { tid : int; fp : footprint }
(** A sleeping alternative: stepping [tid] at the node that created the
    entry is covered by an already-explored subtree; [fp] is the
    footprint [tid]'s quantum had from that node. *)

val wake : entry array -> int -> footprint -> int
(** [wake entries alive fp] clears the alive-bit (bitmask over [entries]
    indices) of every entry whose footprint conflicts with [fp] — the
    executed quantum invalidated the commutation argument for those
    sleepers. *)

val tid_mask : entry array -> int -> int
(** Bitmask over {e tids} of the entries still alive. *)

(** {2 Sibling groups}

    Accumulator of the deviations already explored from one node, shared
    by the sibling work items created there: siblings explored earlier
    join the group, so siblings popped later start with them asleep.
    Only the sequential search mutates groups (exploration order is
    ill-defined across domains); parallel modes keep the initial,
    parent-chosen-only content — a sound subset. *)

type group

val group_create : entry -> group
val group_add : group -> entry -> unit
val group_edges : group -> entry list
