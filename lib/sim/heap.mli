(** The simulated shared heap.

    Memory is an array of fixed-layout cells. Each cell carries the
    {e logical node} currently occupying it (Section 4.1 of the paper
    treats nodes as logical entities: re-allocation of an address creates a
    different node), a life-cycle state, an immutable key, data-structure
    pointer fields, and SMR-owned auxiliary fields (Definition 5.3(5):
    a reclamation scheme may add fields of its own but not touch the data
    structure's).

    {2 Validity and safety}

    A pointer word is {e valid} (Definition 4.1) iff the node it was
    derived for still occupies its address and was never unallocated in
    between — checked by comparing the word's node identity against the
    cell's. Two families of access are provided:

    - [*_checked] — used for values that will be {e used} by the program.
      Dereferencing an invalid pointer here is a safety violation
      (Definition 4.2(3): a value obtained unsafely may never be used), as
      is any update through an invalid pointer (4.2(2)) and any access to
      system space (4.2(1)).
    - [peek]/[aux_*] — optimistic accesses for schemes that validate and
      then either use or discard (AOA/VBR-style, the "careful unsafe
      access" the paper's Definition 4.2 permits). Peeks report validity
      and taint the returned word; only system-space access violates.

    {2 Spaces}

    Reclaimed cells either return to the free list (program space,
    re-allocatable — the common case) or leave to system space, after
    which any touch is a simulated segmentation fault. *)

exception Heap_exhausted
(** Raised by {!alloc} when [capacity] is set and exhausted — how a
    non-robust scheme's unbounded retired backlog manifests in practice. *)

type validity =
  | Valid
  | Invalid_unallocated  (** the node was reclaimed; address not reused *)
  | Invalid_reused  (** the address now holds a different node *)
  | Invalid_system  (** the memory left program space *)

type space_policy =
  | Keep_in_program  (** reclaimed cells go to the free list *)
  | Return_to_system  (** reclaimed cells are unmapped *)
  | Return_every of int  (** every [k]-th reclaim is unmapped *)

type config = {
  ptr_fields : int;
  aux_fields : int;
  space : space_policy;
  capacity : int option;
}

type stats = {
  allocs : int;
  reclaims : int;
  cells_in_use : int;  (** allocated or retired *)
  free_cells : int;
  system_cells : int;
}

type t

val default_config : config
(** 2 pointer fields, 4 aux fields, [Keep_in_program], unbounded. *)

val create : ?config:config -> Monitor.t -> t
val monitor : t -> Monitor.t
val config : t -> config
val stats : t -> stats

(** {2 Life cycle} *)

val alloc : t -> tid:int -> key:int -> Word.t
(** Fresh node in state [Local tid]; pointer fields [Null], aux fields
    [Null]. Reuses a free cell when available. *)

val alloc_sentinel : t -> tid:int -> key:int -> Word.t
(** Fresh node immediately [Shared] — entry points (list head/tail, queue
    anchors) that are never retired. *)

val retire : t -> tid:int -> Word.t -> unit
(** Active -> [Retired]. Retiring through an invalid pointer or a
    non-active node is a [Double_free]/[Lifecycle_error] violation. *)

val reclaim : t -> tid:int -> Word.t -> unit
(** [Retired] -> [Unallocated]; the cell returns to the free list or
    leaves to system space per {!space_policy}. Only reclamation schemes
    call this. *)

(** {2 Validity} *)

val validity : t -> Word.t -> validity
(** Definition 4.1 for a pointer word; [Valid] includes pointers to
    retired-but-unreclaimed nodes. Raises [Invalid_argument] on
    non-pointers. *)

val is_valid : t -> Word.t -> bool

(** {2 Checked accesses — values that will be used} *)

val read_checked : t -> tid:int -> via:Word.t -> field:int -> Word.t
val read_key_checked : t -> tid:int -> via:Word.t -> int
val write_checked : t -> tid:int -> via:Word.t -> field:int -> Word.t -> unit

val cas_checked :
  t -> tid:int -> via:Word.t -> field:int ->
  expected:Word.t -> desired:Word.t -> bool
(** Hardware CAS: bit-pattern comparison ({!Word.same_bits}), so ABA is
    possible exactly as on a real machine. *)

val cas_identity :
  t -> tid:int -> via:Word.t -> field:int ->
  expected:Word.t -> desired:Word.t -> bool
(** Wide CAS comparing full node identity (address {e and} logical node) —
    the primitive VBR assumes from hardware. Fails benignly (no violation)
    when [via] is invalid: the "guaranteed to fail" update of optimistic
    schemes. *)

(** {2 Peeks — optimistic reads to be validated by the caller} *)

val peek : t -> tid:int -> via:Word.t -> field:int -> Word.t * validity
(** The returned word is tainted when [via] is invalid. System-space
    access still violates. *)

val peek_key : t -> tid:int -> via:Word.t -> (int * validity)

(** {2 SMR auxiliary fields} *)

val aux_get : t -> tid:int -> via:Word.t -> field:int -> Word.t * validity
(** Like {!peek} but on the scheme-owned fields; readable even on retired
    nodes (e.g. IBR/HE birth eras). *)

val aux_set : t -> tid:int -> via:Word.t -> field:int -> Word.t -> unit
(** Requires a valid [via]; writing scheme fields of a reclaimed node is
    an [Unsafe_write] violation. *)

val aux_cas :
  t -> tid:int -> via:Word.t -> field:int ->
  expected:Word.t -> desired:Word.t -> bool

(** {2 Introspection (tests and experiments only)} *)

val is_entry : t -> addr:int -> bool
(** Was this cell allocated as a sentinel/entry point? *)

val cell_state : t -> addr:int -> Lifecycle.t
val live_nodes : t -> (int * int * int) list
(** [(addr, node, key)] of all active (local or shared) nodes. *)

val retired_nodes : t -> (int * int * int) list
