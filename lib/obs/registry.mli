(** Cross-stack metrics registry: counters, gauges, and log-scale
    histograms behind one snapshot / labels / JSON-export API.

    Each layer keeps its own cheap internal accounting (sim [Monitor]
    counters, native [Nsmr.stats] records, explorer atomics) and, when a
    report is wanted, {e publishes} into a registry — so registration and
    update cost is only paid at reporting points, never on hot paths.
    Metrics are identified by name plus an ordered label list
    ([("scheme", "hp")]); snapshots preserve registration order so JSON
    exports are deterministic. *)

type t

type counter
(** Monotone integer (operations completed, nodes retired...). *)

type gauge
(** Point-in-time float (frontier depth, occupancy ratio...). *)

type histogram
(** Log2-bucketed integer distribution: an observation [v > 0] lands in
    bucket [floor(log2 v) + 1] (bucket [b] covers [2^(b-1) <= v < 2^b]);
    [v <= 0] lands in bucket 0. Tracks count and sum alongside. *)

val create : unit -> t

(** {2 Registration}

    Registering the same name + labels twice returns the existing
    instrument; re-registering under a different instrument kind is a
    programming error ([Invalid_argument]). *)

val counter : t -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?labels:(string * string) list -> string -> gauge
val histogram : t -> ?labels:(string * string) list -> string -> histogram

(** {2 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_counter : counter -> int -> unit
(** Publish an externally accumulated total (e.g. [Nsmr.stats.retired]). *)

val value : counter -> int

val set : gauge -> float -> unit
val set_int : gauge -> int -> unit

val observe : histogram -> int -> unit

val absorb : histogram -> count:int -> sum:int -> buckets:(int * int) list -> unit
(** Merge externally accumulated log2 buckets (same convention as
    {!observe}'s, [(bucket_index, count)]) — e.g. a flight recorder's
    per-domain histograms. [Invalid_argument] on an out-of-range bucket
    index. *)

(** {2 Snapshots} *)

type metric_value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : int;
      buckets : (int * int) list;
          (** [(bucket_index, count)], ascending, zero counts omitted. *)
    }

type metric = {
  name : string;
  labels : (string * string) list;
  value : metric_value;
}

val snapshot : t -> metric list
(** All metrics, in registration order. *)

val estimate_quantile : metric_value -> float -> float option
(** [estimate_quantile v q] — interpolated quantile ([0 <= q <= 1],
    clamped) of a [Histogram] value: the target rank is located by
    cumulative bucket counts and positioned linearly within its bucket
    [[2^(b-1), 2^b)], so the estimate is exact to within the bucket's
    factor-of-2 resolution. [None] for counters, gauges, and empty
    histograms. Histogram JSON exports carry [p50]/[p90]/[p99] computed
    this way (derived fields, ignored on decode). *)

val find : t -> ?labels:(string * string) list -> string -> metric option

(** {2 JSON} *)

val to_json : t -> Era_metrics.Json.t
(** [{"schema_version": 1, "metrics": [...]}]. *)

val metrics_of_json : Era_metrics.Json.t -> (metric list, string) result
(** Decode a document produced by {!to_json} (round-trip of
    {!snapshot}). *)

val to_string : t -> string
val write : file:string -> t -> unit
val pp : Format.formatter -> t -> unit
