(** Deterministic pseudo-random number generator (splitmix64).

    Every randomized component of the simulator (schedulers, workloads,
    fault injectors) draws from an explicit [Rng.t] so that executions are
    reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val next : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
