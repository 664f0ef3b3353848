(** Lock-free reference counting (in the style of Detlefs et al. [13] /
    Gidenstam et al. [17], simplified to acyclic structures).

    Every node carries a count of its references: one per thread-held
    pointer (acquired by the [read]/[alloc] replacements, released at
    operation end) and one per pointer stored in a shared node field
    (adjusted by the [write]/[cas] replacements). A retired node is
    reclaimed the moment its count reaches zero; reclamation cascades
    through the dead node's own pointer fields.

    ERA profile — reproducing the paper's Section 2 remark that
    "reference counting-based schemes are usually not robust":
    {b E} (pure primitive replacement, no roll-backs) and {b A} (safe
    even on Harris's list: a counted node is never reclaimed while
    reachable through held or stored references, so traversals of marked
    chains stay valid), but {b not} R — in the Figure 1 execution the
    stalled reader holds node 1, node 1's field references node 2, and so
    on: the {e entire} retired chain is transitively pinned, so the
    backlog grows without bound. (The classical caveat — cycles are never
    reclaimed — does not arise in this library's acyclic structures.) *)

include Smr_intf.S

val pinned : t -> int
(** Retired-but-counted nodes currently pinned (tests). *)
