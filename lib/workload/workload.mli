(** Workload generation for the simulated data structures: operation
    mixes, key distributions, and generic per-thread drivers. *)

type mix = {
  insert_pct : int;
  delete_pct : int;
  (* contains gets the remainder *)
}

val update_heavy : mix
(** 50/50 insert/delete: the churn mixes of the paper's constructions. *)

val balanced : mix
(** 25/25/50. *)

type key_dist =
  | Uniform of int  (** keys uniform in [1, n] *)
  | Zipf of int * float  (** [Zipf (n, s)]: Zipf over [1, n] with skew s *)

val draw_key : Era_sim.Rng.t -> key_dist -> int

val sample_keys : Era_sim.Rng.t -> key_dist -> n:int -> int array
(** [n] keys drawn up front, for hot loops that must not pay the
    per-draw cost (the Zipf inverse-CDF bisect) inside the measured
    region. Deterministic in the rng state: element [i] is the [i]-th
    draw. *)

val run_set_ops :
  Era_sets.Set_intf.ops -> Era_sim.Rng.t -> ops:int -> keys:key_dist ->
  mix:mix -> unit
(** Execute [ops] randomly drawn operations through the handle. *)

val run_stack_ops :
  Era_sets.Treiber_stack.stack_ops -> Era_sim.Rng.t -> ops:int ->
  keys:key_dist -> unit
(** 50/50 push/pop. *)

val run_queue_ops :
  Era_sets.Ms_queue.queue_ops -> Era_sim.Rng.t -> ops:int ->
  keys:key_dist -> unit
(** 50/50 enqueue/dequeue. *)

val churn_keys : base:int -> rounds:int -> (int * int) list
(** The Figure 1 churn: [[(insert k+1, delete k)]] pairs starting at
    [base], i.e. the alternating sequence T2 executes. *)
