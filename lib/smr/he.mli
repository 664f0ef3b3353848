(** Hazard eras (Ramalhete & Correia [36]).

    Hazard-pointer interface with epoch ("era") contents: instead of
    publishing the protected {e address}, a thread publishes the current
    {e era} in one of its slots before dereferencing. A retired node whose
    lifetime [birth, retire_era] contains some published era is kept.

    ERA profile: like HP, {b E} and {b R} with a liberal (era-granular)
    bound, but {b not} widely applicable: a published era protects only
    nodes already born when it was read, so nodes inserted {e after} the
    protection and reclaimed while a stalled reader still trusts its
    validated pointer defeat it on Harris's list (Figure 2; the footnote
    in Appendix E — inserting node 43 after the protection — is exactly
    this). *)

include Smr_intf.S

val slots_per_thread : int
val allocs_per_era : int
val scan_threshold : int
val published_eras : t -> int list
val retired_backlog : t -> int

module Guard : Smr_intf.GUARD with type tctx = tctx
(** Typestate view of the integration API: phantom lifecycle states make
    retire-while-unpinned and use-after-unpin type errors (see
    {!Smr_intf.GUARD}). *)
