(** The node life-cycle automaton of Section 4.1.

    A node is [Unallocated] until some thread allocates it, then [Local] to
    that thread, optionally [Shared], then [Retired], and finally
    [Unallocated] again when reclaimed. Only the transitions drawn in the
    paper are legal; everything else (double retire, retiring an
    unallocated node, sharing a retired node, ...) is a bug in either the
    data structure or the reclamation scheme, and the heap reports it. *)

type t =
  | Unallocated
  | Local of int  (** allocated, visible only to the allocating thread *)
  | Shared
  | Retired

val is_active : t -> bool
(** [Local _] or [Shared] — the states that count towards
    [active]/[max_active] in Definitions 5.1–5.2. *)

val check_transition : from:t -> to_:t -> (unit, string) result
(** [Ok ()] iff the paper's life cycle permits [from -> to_]. The error
    string names the illegal move. *)

val pp : Format.formatter -> t -> unit
