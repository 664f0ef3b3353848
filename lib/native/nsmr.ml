(** Native reclamation-scheme interface.

    The native layer exists for the paper's performance remarks
    (experiments E8/E9): real domains, real [Atomic] fences, real retry
    loops. "Reclaiming" a node recycles it into a per-domain
    type-preserving pool (the OCaml GC owns the memory itself); the
    statistics expose reclaimed counts and the retired-backlog high-water
    mark, which is the space axis of the robustness trade-off. *)

(** Aggregated per-scheme counters, snapshotted by [S.stats]. The
    invariants [reclaimed <= retired] and [backlog = retired - reclaimed]
    hold at any quiescent point (no operation in flight). *)
type stats = {
  retired : int;  (** total nodes ever passed to [retire] *)
  reclaimed : int;  (** nodes recycled into the pools *)
  backlog : int;  (** currently retired-but-unreclaimed *)
  max_backlog : int;  (** high-water mark of the backlog *)
  scans : int;
      (** reclamation passes: threshold-triggered scans for HP/IBR,
          epoch-bucket frees for EBR, always 0 for none *)
}

module type S = sig
  val name : string

  type t
  type tctx

  val create : ndomains:int -> t
  val thread : t -> int -> tctx
  (** [thread t d] — per-domain context; [d] must be unique per domain. *)

  val begin_op : tctx -> unit
  val end_op : tctx -> unit

  val alloc : tctx -> int -> Nnode.node
  (** Recycled from the pool when possible; stamps IBR-style birth. *)

  val retire : tctx -> Nnode.node -> unit

  val read_link : tctx -> Nnode.node -> Nnode.link
  (** Protected load of [n]'s link (protocol per scheme). *)

  val backlog : t -> int
  (** Current total retired-but-unreclaimed nodes. *)

  val max_backlog : t -> int
  val reclaimed : t -> int

  val stats : t -> stats
  (** One consistent snapshot of every counter (experiment rows are built
      from this rather than the individual accessors). *)

  val attach_flight : t -> Era_obs.Flight.t -> unit
  (** Install a flight recorder; contexts created by later [thread]
      calls record their SMR lifecycle events (retire, bag free/sweep,
      epoch advance, slow path, neutralization) into its per-domain
      rings. Contexts created before the attach keep the detached
      handle. With {!Era_obs.Flight.null} (the default) every recording
      call is a single branch. *)

  val domain_backlog : t -> int -> int
  (** [domain_backlog t d] — domain [d]'s retired-but-unreclaimed
      count, readable cross-domain (the coordinator's gauge probe). *)

  val domain_lag : t -> int -> int
  (** [domain_lag t d] — how many epochs domain [d]'s published
      announcement/reservation trails the global epoch; [0] when idle
      or for schemes with no epoch ({!N_hp}, {!N_none}). *)
end

exception Neutralized
(** Raised by a scheme's [read_link] when another domain has requested
    this domain's neutralization (native DEBRA+, {!N_debra}): the
    in-progress operation must abandon every pointer it holds and
    restart from its beginning. Data structures that integrate with
    neutralizing schemes catch it in a whole-operation restart wrapper
    (the Michael list does); it never crosses an operation boundary. *)

(* Per-domain padded slot helper: OCaml records/arrays give no real
   cache-line padding control; we approximate by spacing entries. *)
let pad = 8

let padded_index d = d * pad
