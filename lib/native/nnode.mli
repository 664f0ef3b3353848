(** Nodes of the native (real multicore, Domain/Atomic) data structures.

    A link packs a Harris-style mark bit with the successor pointer in
    one immutable record, so a single [Atomic.compare_and_set] updates
    both — the OCaml idiom for tagged pointers. CAS relies on physical
    equality: always CAS with the exact link value previously read.

    Null successors are the [nil] sentinel rather than an [option]: a
    hot-path traversal dereferences [link.target] without unwrapping a
    [Some] box, which removes one dependent load (and 2 words per link)
    from every hop.

    {b Flattened node.} The link is the node's field 0 ([nxt]) and
    {!next} casts the node to its own [link Atomic.t], so a hop loads
    node, link, target, with no [Atomic.t] box in between. Sound because
    [node] is a boxed, tag-0 record with no float field, and OCaml 5.1's
    [Atomic.get], [set], [exchange] and [compare_and_set] act on field 0
    of whatever block they get, write barrier included, exactly as on a
    real [Atomic.t]. The cast stays in [nnode.ml]; [node] is [private],
    so no other module builds a node or writes [nxt]. On OCaml 5.4 an
    [[@atomic]] field replaces the cast. *)

type node = private {
  mutable nxt : link;  (** reach only through {!next} / {!get} *)
  mutable key : int;
  mutable birth : int;  (** epoch stamp used by IBR *)
}

and link = {
  marked : bool;
  target : node;  (** [== nil] means null; test physically *)
}

val nil : node
(** The shared null sentinel. [l.target == nil] replaces the old
    [l.target = None] test. Its [key] is [max_int] and its link is a
    self-link; reading {e through} [nil] is a protocol violation. *)

val next : node -> link Atomic.t
(** The node's link cell: the node itself, viewed as an atomic. *)

val make : key:int -> node
(** Fresh node with an unmarked [nil] link and birth 0. *)

val recycle : node -> key:int -> node
(** [n] (a pool's answer) reset to [key] and a fresh unmarked [nil] link
    record, on which a CAS holding an older link fails; a fresh node if
    [n] is [nil] (an empty pool). [birth] is kept. *)

val set_birth : node -> int -> unit
val link : ?marked:bool -> node -> link
val get : node -> link

val same_target : link -> link -> bool
(** Do two links denote the same (mark, target) value? (Physical node
    equality plus mark comparison — the bit-pattern test.) *)
