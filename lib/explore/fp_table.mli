(** Lock-striped visited-state table over int fingerprints, shared by
    the explorer's domain workers, with a sleep-set tid-mask per entry.

    A state visited with sleep set [S] had every successor outside [S]
    explored; a later visitor with sleep set [S'] is covered iff
    [S ⊆ S'] (its would-be exploration is a subset of what already
    happened). Searches without sleep sets pass mask [0], which makes
    the table behave as a plain visited set. Safe for concurrent use
    from any number of domains. *)

type t

val create : ?stripes:int -> unit -> t
(** [stripes] (default 64) is rounded up to a power of two. *)

val check_covered : t -> int -> mask:int -> bool
(** [check_covered t fp ~mask] is [true] iff [fp] was already visited
    with a stored mask that is a subset of [mask]; otherwise it records
    the visit (inserting [mask], or intersecting it into the stored
    mask) and returns [false] — atomically, so concurrent callers with
    the same fingerprint agree on a single first visitor. *)

val add : t -> int -> unit
(** Insert [fp] (plain visited-set semantics, [mask = 0]). *)

val size : t -> int

val elements : t -> int list
(** All fingerprints, unsorted. Post-search reporting only. *)
