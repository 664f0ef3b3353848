(** Native multicore measurement harness for experiments E8 and E9.

    E8 (Section 6's practical remark): Harris's original list vs
    Michael's HP-compatible restructuring, each paired with a scheme that
    is {e applicable} to it — the cost of demanding an HP-friendly
    implementation shows up as lost throughput under churn.

    E9 (the robustness trade-off, Sections 1/5.1): with one domain
    stalled mid-operation, EBR's retired backlog grows with the churn
    volume while HP's and IBR's stay bounded.

    On a single-core host the domains time-share; relative per-operation
    costs and backlog shapes remain meaningful, absolute scaling does
    not. *)

type result = {
  label : string;
  scheme : string;  (** e.g. "ebr" *)
  structure : string;  (** e.g. "michael-list" *)
  domains : int;
  total_ops : int;
  elapsed_s : float;
  mops : float;  (** million completed operations per second *)
  max_backlog : int;
  reclaimed : int;
  retired : int;  (** total nodes retired (= reclaimed + final backlog) *)
  scans : int;  (** reclamation scan passes (see {!Nsmr.stats}) *)
}

val run_workers :
  ?flight:Era_obs.Flight.t ->
  ?probe:(int -> int * int) ->
  ?ops_for:(int -> int) ->
  label:string -> scheme:string -> structure:string -> domains:int ->
  ops_per_domain:int ->
  make_worker:(int -> unit -> unit) ->
  stats:(unit -> Nsmr.stats) -> unit -> result
(** Spawn [domains] domains; each calls its worker [ops_per_domain]
    times; [stats ()] snapshots the scheme counters at the end. The
    domains are released through a two-phase barrier (build worker →
    signal ready → spin) and the clock starts only after the release
    store, so no domain's work predates [t0] and none is still spawning
    when the timed region begins.

    [ops_for d] overrides the per-domain op count (default: the constant
    [ops_per_domain]); [total_ops] is the computed sum, so asymmetric
    rows (e.g. a one-shot stalled domain) report honest totals.

    [flight] + [probe] add the flight recorder's cross-domain gauge
    samples: after every 1/64th of its own ops the coordinator (domain
    0) calls [probe d] for every domain — returning
    [(backlog, epoch_lag)] — and records both into the recorder's
    coordinator ring. With [flight] absent (or
    {!Era_obs.Flight.null}) the sampling closure is never built and the
    detached run stays on the zero-instrumentation path. *)

type list_kind =
  | Harris
  | Michael

type mix =
  | Churn  (** 50/50 insert/delete over a small key range *)
  | Read_heavy  (** 90% contains over a prefilled larger range *)

type workload = {
  wl_label : string;  (** short tag used in row labels, e.g. ["zipf-1m"] *)
  wl_keys : Era_workload.Workload.key_dist;
  wl_contains_pct : int;  (** contains share; the rest splits 50/50 ins/del *)
  wl_prefill : int;  (** odd keys 1, 3, … inserted before the barrier *)
}
(** A list workload: key distribution, operation mix, prefill size. Keys
    are sampled into per-worker arrays before the start barrier, so the
    Zipf inverse-CDF bisect never runs inside the timed region. *)

val uniform_churn : workload
(** 64 uniform keys, 0% contains, 32 prefilled — E8's [Churn]. *)

val uniform_small : workload
(** 1024 uniform keys, 90% contains, 512 prefilled — E8's [Read_heavy]. *)

val zipf_1m : workload
(** 1M keys, Zipf s=0.99, 90% contains. Median key rank is in the
    thousands, so list walks dominate: the scheme-cost signal is in
    backlog, not mops. *)

val zipf_1m_hot : workload
(** 1M keys, Zipf s=1.5, 90% contains. ~98% of draws land in the top
    couple thousand ranks (= smallest keys = near the list head), so
    walks are short and the per-operation sampling + SMR overhead
    dominates — the cell where the fast path shows. The remaining tail
    draws keep the full million-key space live. *)

val custom_workload :
  ?zipf:float -> keys:int -> contains_pct:int -> unit -> workload
(** Workload from CLI-style parameters: [keys] uniform, or Zipf with
    skew [zipf]. Prefill is [min 1024 (keys / 2)]. Raises
    [Invalid_argument] on [keys < 2] or a percentage outside [0, 100]. *)

val contains_pct_of_mix : string -> (int, string) Stdlib.result
(** ["churn"]/["update-heavy"] → 0, ["read-heavy"] → 90, ["balanced"] →
    50, or a literal percentage ["0"]–["100"]. *)

val e8_row :
  ?flight:Era_obs.Flight.t ->
  list_kind -> scheme:[ `Debra | `Ebr | `Hp | `Ibr | `None ] -> mix ->
  domains:int -> ops_per_domain:int -> result
(** One throughput row. Pairings of HP with [Harris] are refused
    ([Invalid_argument]) — that is the unsafe combination the theorem
    rules out. DEBRA+ × [Harris] is likewise refused: Harris's delete is
    not whole-operation restartable after its marking CAS, so the
    neutralization wrapper is only wired into the Michael list. *)

val e16_row :
  ?flight:Era_obs.Flight.t ->
  list_kind -> scheme:[ `Debra | `Ebr | `Hp | `Ibr | `None ] ->
  workload:workload -> domains:int -> ops_per_domain:int -> result
(** E8 generalized to arbitrary workloads (the E16/E18 grids). Row label
    is [<kind>+<scheme>/<wl_label>]. HP × [Harris] and DEBRA+ ×
    [Harris] are refused as in {!e8_row}. [flight] attaches the flight
    recorder: per-domain SMR lifecycle rings, op-latency histograms in
    the workers (one clock pair per op, chosen outside the hot loop),
    and coordinator-sampled backlog / epoch-lag gauges. *)

val e9_row :
  ?workload:workload ->
  ?flight:Era_obs.Flight.t ->
  scheme:[ `Debra | `Ebr | `Hp | `Ibr ] ->
  churn_ops:int -> unit -> result
(** Backlog with a stalled domain: domain 0 opens an operation and parks
    (a genuine one-shot — its per-domain op count is 1); two churn
    domains push [churn_ops] each through a Michael list. [workload]
    (default {!uniform_churn}) sets the churners' key distribution; its
    contains share is forced to 0 so every op is an update. Non-default
    workloads get label [stall/<scheme>/<wl_label>]. With [`Debra] the
    stalled domain is neutralized after {!N_debra.patience} blocked
    advance attempts and the backlog stays bounded — the native face of
    the sim's Figure 1 survival. *)

val stack_row :
  scheme:[ `Ebr | `Hp | `Ibr | `None ] -> domains:int ->
  ops_per_domain:int -> unit -> result
(** Treiber stack, 50/50 push/pop. The scheme type excludes [`Debra]:
    pop reads the popped node's key after its head CAS, so the stack is
    not whole-operation restartable — the refusal is the type. *)

val queue_row :
  scheme:[ `Ebr | `Hp | `Ibr | `None ] -> domains:int ->
  ops_per_domain:int -> unit -> result
(** Michael–Scott queue, 50/50 enqueue/dequeue. [`Debra] excluded as in
    {!stack_row}. *)

val scheme_name : [ `Debra | `Ebr | `Hp | `Ibr | `None ] -> string

val to_row :
  experiment:string -> category:string -> result -> Era_metrics.Metrics.row
(** The machine-readable form of a result, for [BENCH_*.json] files.
    [category] is ["native-throughput"] for timed rows and
    ["native-backlog"] for the E9 stall rows. The row label is
    [<result label>@<domains>d] so the same pairing measured at several
    domain counts yields distinct row keys. *)

val pp_result : Format.formatter -> result -> unit
