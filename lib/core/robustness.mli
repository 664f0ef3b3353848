(** Empirical robustness classification (Definitions 5.1 and 5.2).

    Both definitions bound the retired backlog by [f_E(i) * N]; they
    differ in how [f_E] may grow with [max_active]: robustness needs
    [f_E = o(max_active)], weak robustness allows any polynomial, and
    schemes like EBR satisfy neither (the backlog grows with the
    {e execution length} even while [max_active] is constant).

    The classifier separates the three cases with two sweeps, each with a
    thread stalled mid-traversal (the failed/delayed thread both
    definitions quantify over):

    - {b churn sweep}: [max_active] pinned at ~4 (the Figure 1 workload)
      while the number of operations M grows. A backlog growing with M
      here is not even weakly robust.
    - {b size sweep}: fixed small churn over a pre-filled list of size S,
      with S growing. A backlog growing with S (but not M) is bounded by
      a function of [max_active] — weakly robust, but not robust.
    - A backlog flat in both is (empirically) a constant bound — robust.

    Expected: none/EBR not robust; IBR/HE weakly robust (era-granular
    pinning scales with the structure size); HP/VBR/NBR robust. *)

type clazz =
  | Robust
  | Weakly_robust
  | Not_robust

type measurement = {
  scheme : string;
  churn_series : (int * int) list;  (** (M, retired backlog at end) *)
  size_series : (int * int) list;  (** (S, peak retired backlog) *)
  churn_slope : float;
  size_slope : float;
  clazz : clazz;
}

val clazz_name : clazz -> string

val classify :
  ?churn_points:int list -> ?size_points:int list ->
  Era_smr.Registry.scheme -> measurement
(** Defaults: churn 128/256/512/1024 rounds; sizes 32/64/128/256. *)

val stalled_reader_run :
  Era_smr.Registry.scheme -> Applicability.structure -> size:int ->
  int * int
(** The stalled-reader run on a set structure: pre-fill keys
    [1..size], suspend a reader on its first read of node 1 (searching
    for [size]), let a worker delete and re-insert keys [2..size] once,
    then solo-resume the reader. Returns the peak retired backlog and
    the monitor's step count. Raises [Invalid_argument] on a stack or
    queue. *)

val size_sweep_point : Era_smr.Registry.scheme -> size:int -> int
(** One size-sweep run: the peak backlog of {!stalled_reader_run} on
    Harris's list (exposed for tests). *)

val pp_measurement : Format.formatter -> measurement -> unit
