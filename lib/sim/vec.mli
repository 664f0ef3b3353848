(** Minimal growable array (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val exists : ('a -> bool) -> 'a t -> bool
val find_last : ('a -> bool) -> 'a t -> 'a option
