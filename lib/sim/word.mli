(** Machine words of the simulated shared memory.

    A word is either [Null], an integer, or a pointer. Pointers carry:

    - [addr]: the physical cell address (what a real machine stores);
    - [node]: the {e logical node identity} that occupied [addr] when the
      pointer value was created. The paper (Section 4.1) treats nodes as
      logical entities: re-allocating an address creates a {e different}
      node. Tracking [node] in the word realizes Definition 4.1 directly —
      a pointer is valid iff the node it was derived for still occupies its
      address and has not been unallocated in between;
    - [marked]: Harris-style deletion mark (a low-order tag bit in real
      implementations);
    - [stale]: taint set when the value was obtained through an {e unsafe}
      memory access (Definition 4.1). Definition 4.2(3) forbids ever
      {e using} such a value; the heap flags any dereference of a stale
      word.

    Physical comparison ([same_bits]) deliberately ignores [node] and
    [stale]: a real CAS compares bit patterns only, which is exactly what
    makes ABA failures possible and lets the simulator reproduce them. *)

type ptr = {
  addr : int;
  node : int;
  marked : bool;
  stale : bool;
}

type t =
  | Null
  | Int of int
  | Ptr of ptr

val null : t
val int : int -> t
val ptr : addr:int -> node:int -> t

val is_ptr : t -> bool
val is_marked : t -> bool
(** [is_marked w] is [true] iff [w] is a pointer with the mark bit set.
    [Null] and [Int _] are unmarked. *)

val mark : t -> t
(** Set the mark bit. Raises [Invalid_argument] on non-pointers. *)

val unmark : t -> t
(** Clear the mark bit; identity on [Null]/[Int] and on unmarked
    pointers, which are returned without a copy. *)

val taint : t -> t
(** Set the stale bit on pointers; identity on [Null]/[Int _] is {e not}
    taken — integers read unsafely are replaced by [Int] with no taint
    carrier, so the heap tracks integer staleness separately. On [Null],
    [Int] and an already stale pointer this returns the word unchanged. *)

val is_stale : t -> bool

val addr_exn : t -> int
(** Address of a pointer. Raises [Invalid_argument] otherwise. *)

val node_exn : t -> int

val same_bits : t -> t -> bool
(** Physical (bit-pattern) equality: address + mark for pointers, value for
    integers. Ignores logical node identity and staleness — the ABA-faithful
    comparison a hardware CAS performs. *)

val equal : t -> t -> bool
(** Full structural equality, including node identity and taint. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
