module Rng = Era_sim.Rng

type result = {
  label : string;
  scheme : string;
  structure : string;
  domains : int;
  total_ops : int;
  elapsed_s : float;
  mops : float;
  max_backlog : int;
  reclaimed : int;
  retired : int;
  scans : int;
}

type list_kind =
  | Harris
  | Michael

type mix =
  | Churn
  | Read_heavy

module Flight = Era_obs.Flight

let run_workers ?flight ?probe ?ops_for ~label ~scheme ~structure
    ~domains ~ops_per_domain ~make_worker ~stats () =
  let ops_of =
    match ops_for with None -> fun _ -> ops_per_domain | Some f -> f
  in
  (* Cross-domain gauge sampler: the coordinator owns the recorder's
     extra ring and probes every domain's backlog / epoch lag at a
     fixed stride. A stalled domain never runs its own slow path, so
     its lag is only visible from outside — this is where the E9
     timeline's signal comes from. *)
  let sample_flight =
    match flight, probe with
    | Some f, Some probe when Flight.active f ->
      let co = Flight.coordinator f in
      Some
        (fun () ->
          for d = 0 to domains - 1 do
            let b, lag = probe d in
            Flight.backlog co ~domain:d b;
            Flight.epoch_lag co ~domain:d lag
          done)
    | _ -> None
  in
  (* Two-phase start barrier: every domain (including this one) builds
     its worker, then signals [ready] and spins on [go]; only once all
     of them are parked does the coordinator release them, and the start
     timestamp is taken {e after} the release store. Sampling [t0]
     before the release — or letting domain 0 run while spawned domains
     were still being scheduled — undercounted [mops] on slow spawns. *)
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let body d () =
    let worker = make_worker d in
    ignore (Atomic.fetch_and_add ready 1);
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    for _ = 1 to ops_of d do
      worker ()
    done
  in
  let spawned =
    List.init (domains - 1) (fun i -> Domain.spawn (body (i + 1)))
  in
  let worker0 = make_worker 0 in
  ignore (Atomic.fetch_and_add ready 1);
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let t0 = Unix.gettimeofday () in
  (match sample_flight with
  | None ->
    for _ = 1 to ops_of 0 do
      worker0 ()
    done
  | Some sample ->
    (* Only the coordinator writes the recorder's coordinator ring
       (single-producer); it samples at a fixed stride so the timeline
       shows the backlog evolving mid-run. *)
    let stride = max 1 (ops_of 0 / 64) in
    for i = 1 to ops_of 0 do
      worker0 ();
      if i mod stride = 0 then sample ()
    done);
  List.iter Domain.join spawned;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total = ref 0 in
  for d = 0 to domains - 1 do
    total := !total + ops_of d
  done;
  let total = !total in
  let s : Nsmr.stats = stats () in
  {
    label;
    scheme;
    structure;
    domains;
    total_ops = total;
    elapsed_s = elapsed;
    mops = float_of_int total /. elapsed /. 1e6;
    max_backlog = s.Nsmr.max_backlog;
    reclaimed = s.Nsmr.reclaimed;
    retired = s.Nsmr.retired;
    scans = s.Nsmr.scans;
  }

let kind_name = function Harris -> "harris" | Michael -> "michael"
let structure_name = function Harris -> "harris-list" | Michael -> "michael-list"
let mix_name = function Churn -> "churn" | Read_heavy -> "read-heavy"

let scheme_name = function
  | `Debra -> "debra"
  | `Ebr -> "ebr"
  | `Hp -> "hp"
  | `Ibr -> "ibr"
  | `None -> "none"

(* ------------------------------------------------------------------ *)
(* Workload specs                                                      *)
(* ------------------------------------------------------------------ *)

type workload = {
  wl_label : string;
  wl_keys : Era_workload.Workload.key_dist;
  wl_contains_pct : int;
  wl_prefill : int;
}

let uniform_churn =
  { wl_label = "churn-64"; wl_keys = Era_workload.Workload.Uniform 64;
    wl_contains_pct = 0; wl_prefill = 32 }

let uniform_small =
  { wl_label = "uniform-1k"; wl_keys = Era_workload.Workload.Uniform 1024;
    wl_contains_pct = 90; wl_prefill = 512 }

let zipf_1m =
  { wl_label = "zipf-1m"; wl_keys = Era_workload.Workload.Zipf (1_000_000, 0.99);
    wl_contains_pct = 90; wl_prefill = 1024 }

let zipf_1m_hot =
  { wl_label = "zipf-1m-hot"; wl_keys = Era_workload.Workload.Zipf (1_000_000, 1.5);
    wl_contains_pct = 90; wl_prefill = 1024 }

let workload_of_mix = function
  | Churn -> uniform_churn
  | Read_heavy -> uniform_small

let human_keys n =
  if n >= 1_000_000 && n mod 1_000_000 = 0 then Fmt.str "%dm" (n / 1_000_000)
  else if n >= 1_000 && n mod 1_000 = 0 then Fmt.str "%dk" (n / 1_000)
  else string_of_int n

let custom_workload ?zipf ~keys ~contains_pct () =
  if keys < 2 then invalid_arg "Throughput.custom_workload: keys < 2";
  if contains_pct < 0 || contains_pct > 100 then
    invalid_arg "Throughput.custom_workload: contains_pct outside [0, 100]";
  let wl_keys, tag =
    match zipf with
    | None -> (Era_workload.Workload.Uniform keys, Fmt.str "u%s" (human_keys keys))
    | Some s ->
      (Era_workload.Workload.Zipf (keys, s), Fmt.str "z%g-%s" s (human_keys keys))
  in
  {
    wl_label = Fmt.str "%s-c%d" tag contains_pct;
    wl_keys;
    wl_contains_pct = contains_pct;
    wl_prefill = min 1024 (keys / 2);
  }

let contains_pct_of_mix = function
  | "churn" | "update-heavy" -> Ok 0
  | "read-heavy" -> Ok 90
  | "balanced" -> Ok 50
  | s -> (
    match int_of_string_opt s with
    | Some p when p >= 0 && p <= 100 -> Ok p
    | Some _ | None ->
      Error
        (Fmt.str
           "unknown mix %S (expected churn, read-heavy, balanced, or a \
            contains percentage 0-100)"
           s))

(* The per-worker key samples: long enough that the cyclic reuse is
   invisible against multi-hundred-thousand-op runs, a power of two so
   the wrap is a mask, and drawn {e before} the start barrier so the
   Zipf bisect never executes inside the timed region. *)
let sample_len = 1 lsl 16

(* Shared per-operation body for the list mixes. The key and the
   operation roll are {e independent} draws — deriving both from one
   splitmix64 output (key from the low bits, roll from the quotient)
   correlated the read/write decision with the key, biasing the mix per
   key. Both are drawn {e before} the start barrier into one tagged
   array ([key lsl 2 lor op]), so the timed loop does a single array
   read per op: no Zipf bisect, no rng call, no branch on a fresh
   roll. The cycle length (65536) is long enough that reuse is
   invisible against multi-hundred-thousand-op runs. *)
let list_worker ?(fl = Flight.null_handle) ~workload ~seed ~insert ~delete
    ~contains () =
  let rng = Rng.create seed in
  let keys =
    Era_workload.Workload.sample_keys rng workload.wl_keys ~n:sample_len
  in
  let contains_pct = workload.wl_contains_pct in
  let tagged = Array.make sample_len 0 in
  for i = 0 to sample_len - 1 do
    let roll = Rng.int rng 100 in
    let op = if roll < contains_pct then 0 else (roll land 1) + 1 in
    tagged.(i) <- (keys.(i) lsl 2) lor op
  done;
  let idx = ref 0 in
  (* The recorder choice is made here, once, outside the hot loop: the
     detached path is byte-identical to before (no clock reads, no
     recorder branch), preserving the E19 [recorder_off_overhead]
     contract. The op tag doubles as the histogram kind (0 = contains,
     1 = add, 2 = remove). *)
  if Flight.recording fl then
    fun () ->
      let v = Array.unsafe_get tagged (!idx land (sample_len - 1)) in
      incr idx;
      let k = v lsr 2 in
      let op = v land 3 in
      let t0 = Flight.now_ns () in
      (match op with
      | 0 -> ignore (contains k)
      | 1 -> ignore (insert k)
      | _ -> ignore (delete k));
      Flight.observe_op fl op (Flight.now_ns () - t0)
  else
    fun () ->
      let v = Array.unsafe_get tagged (!idx land (sample_len - 1)) in
      incr idx;
      let k = v lsr 2 in
      match v land 3 with
      | 0 -> ignore (contains k)
      | 1 -> ignore (insert k)
      | _ -> ignore (delete k)

let worker_seed d = (d * 77) + 13
let prefill_keys workload = List.init workload.wl_prefill (fun i -> (i * 2) + 1)

(* Build (worker factory, stats) for a (list, scheme, workload) choice.
   The functor application must happen per concrete scheme module, hence
   the repetition-by-dispatch. *)
let build_list (type a) (module S : Nsmr.S with type t = a)
    ?(flight = Flight.null) kind ~workload ~domains =
  let prefill = prefill_keys workload in
  (* The recorder is attached only after the prefill, so its rings hold
     the measured phase; the per-domain gauge probe stays readable
     cross-domain for the coordinator's sampler. *)
  match kind with
  | Harris ->
    let module L = N_harris.Make (S) in
    let g = S.create ~ndomains:domains in
    let l = L.create () in
    let s0 = S.thread g 0 in
    List.iter (fun k -> ignore (L.insert l s0 k)) prefill;
    S.attach_flight g flight;
    let make_worker d =
      let s = S.thread g d in
      list_worker ~fl:(Flight.handle flight d) ~workload ~seed:(worker_seed d)
        ~insert:(fun k -> L.insert l s k)
        ~delete:(fun k -> L.delete l s k)
        ~contains:(fun k -> L.contains l s k)
        ()
    in
    ( make_worker,
      (fun () -> S.stats g),
      fun d -> (S.domain_backlog g d, S.domain_lag g d) )
  | Michael ->
    let module L = N_michael.Make (S) in
    let g = S.create ~ndomains:domains in
    let l = L.create () in
    let s0 = S.thread g 0 in
    List.iter (fun k -> ignore (L.insert l s0 k)) prefill;
    S.attach_flight g flight;
    let make_worker d =
      let s = S.thread g d in
      list_worker ~fl:(Flight.handle flight d) ~workload ~seed:(worker_seed d)
        ~insert:(fun k -> L.insert l s k)
        ~delete:(fun k -> L.delete l s k)
        ~contains:(fun k -> L.contains l s k)
        ()
    in
    ( make_worker,
      (fun () -> S.stats g),
      fun d -> (S.domain_backlog g d, S.domain_lag g d) )

let scheme_module = function
  | `Debra -> (module N_debra : Nsmr.S)
  | `Ebr -> (module N_ebr)
  | `Hp -> (module N_hp)
  | `Ibr -> (module N_ibr)
  | `None -> (module N_none)

let refuse_unsupported ~who kind scheme =
  match kind, scheme with
  | Harris, `Hp ->
    invalid_arg
      (Fmt.str
         "Throughput.%s: HP is not applicable to Harris's list (that is the \
          theorem)"
         who)
  | Harris, `Debra ->
    invalid_arg
      (Fmt.str
         "Throughput.%s: DEBRA+ neutralization restarts are only wired into \
          the Michael list (Harris's delete is not whole-op restartable \
          after its marking CAS)"
         who)
  | _ -> ()

let list_row ?flight ~who ~label kind ~scheme ~workload ~domains
    ~ops_per_domain =
  refuse_unsupported ~who kind scheme;
  let (module S) = scheme_module scheme in
  let make_worker, stats, probe =
    build_list (module S) ?flight kind ~workload ~domains
  in
  run_workers ?flight ~probe ~label ~scheme:(scheme_name scheme)
    ~structure:(structure_name kind) ~domains ~ops_per_domain ~make_worker
    ~stats ()

let e8_row ?flight kind ~scheme mix ~domains ~ops_per_domain =
  list_row ?flight ~who:"e8_row"
    ~label:
      (Fmt.str "%s+%s/%s" (kind_name kind) (scheme_name scheme)
         (mix_name mix))
    kind ~scheme ~workload:(workload_of_mix mix) ~domains ~ops_per_domain

let e16_row ?flight kind ~scheme ~workload ~domains ~ops_per_domain =
  list_row ?flight ~who:"e16_row"
    ~label:
      (Fmt.str "%s+%s/%s" (kind_name kind) (scheme_name scheme)
         workload.wl_label)
    kind ~scheme ~workload ~domains ~ops_per_domain

(* E9: domain 0 opens an operation (announcing its epoch / publishing its
   reservation) and parks until the churn domains are done. The stalled
   domain is a genuine one-shot: its per-domain op count is 1, so the
   reported totals are computed by [run_workers], not patched. *)
let e9_row ?(workload = uniform_churn) ?(flight = Flight.null)
    ~(scheme : [ `Debra | `Ebr | `Hp | `Ibr ]) ~churn_ops () =
  let sname = scheme_name (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]) in
  let domains = 3 in
  let churn = { workload with wl_contains_pct = 0 } in
  let done_flag = Atomic.make 0 in
  let (module S) =
    scheme_module (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ])
  in
  let module L = N_michael.Make (S) in
  let g = S.create ~ndomains:domains in
  let l = L.create () in
  let s0 = S.thread g 0 in
  List.iter (fun k -> ignore (L.insert l s0 k)) (prefill_keys churn);
  S.attach_flight g flight;
  let make_worker d =
    let s = S.thread g d in
    let fl = Flight.handle flight d in
    if d = 0 then
      fun () ->
        (* Called exactly once: open an operation and stall inside it.
           A neutralizing scheme may flag this domain before its first
           protected load completes — the stall must survive that, so
           the early Neutralized is swallowed (there is no operation
           left to restart). *)
        S.begin_op s;
        Flight.stall_begin fl;
        (try ignore (S.read_link s (L.head l))
         with Nsmr.Neutralized -> ());
        while Atomic.get done_flag < 2 do
          Domain.cpu_relax ()
        done;
        Flight.stall_end fl;
        S.end_op s
    else
      let churn_op =
        list_worker ~fl ~workload:churn ~seed:((d * 91) + 7)
          ~insert:(fun k -> L.insert l s k)
          ~delete:(fun k -> L.delete l s k)
          ~contains:(fun k -> L.contains l s k)
          ()
      in
      let count = ref 0 in
      if Flight.recording fl then begin
        (* The stall row's coordinator worker IS the stalled domain, so
           cross-domain gauge sampling can't ride the coordinator loop
           here: churner 1 probes every domain (its own ring, so SPSC
           holds — the probed domain is payload, not producer). *)
        let stride = max 1 (churn_ops / 256) in
        fun () ->
          churn_op ();
          incr count;
          if d = 1 && !count mod stride = 0 then
            for dd = 0 to domains - 1 do
              Flight.backlog fl ~domain:dd (S.domain_backlog g dd);
              Flight.epoch_lag fl ~domain:dd (S.domain_lag g dd)
            done;
          if !count = churn_ops then ignore (Atomic.fetch_and_add done_flag 1)
      end
      else
        fun () ->
          churn_op ();
          incr count;
          if !count = churn_ops then ignore (Atomic.fetch_and_add done_flag 1)
  in
  let label =
    if workload.wl_label = uniform_churn.wl_label then
      Fmt.str "stall/%s" sname
    else Fmt.str "stall/%s/%s" sname workload.wl_label
  in
  run_workers ~label
    ~ops_for:(fun d -> if d = 0 then 1 else churn_ops)
    ~scheme:sname ~structure:"michael-list" ~domains
    ~ops_per_domain:churn_ops ~make_worker
    ~stats:(fun () -> S.stats g)
    ()

(* Stack and queue throughput rows: 50/50 producer/consumer mixes. *)
let stack_row ~(scheme : [ `Ebr | `Hp | `Ibr | `None ]) ~domains
    ~ops_per_domain () =
  (* The narrow type is the refusal: no neutralization restarts are
     wired into the stack (pop reads the popped key after its CAS). *)
  let sname = scheme_name (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]) in
  let (module S) =
    scheme_module (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ])
  in
  let module T = N_treiber.Make (S) in
  let g = S.create ~ndomains:domains in
  let st = T.create () in
  let make_worker d =
    let s = S.thread g d in
    let rng = Rng.create ((d * 31) + 5) in
    fun () ->
      if Rng.bool rng then T.push st s (Rng.int rng 1000)
      else ignore (T.pop st s)
  in
  run_workers
    ~label:(Fmt.str "treiber+%s" sname)
    ~scheme:sname ~structure:"treiber-stack" ~domains
    ~ops_per_domain ~make_worker
    ~stats:(fun () -> S.stats g)
    ()

let queue_row ~(scheme : [ `Ebr | `Hp | `Ibr | `None ]) ~domains
    ~ops_per_domain () =
  let sname = scheme_name (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ]) in
  let (module S) =
    scheme_module (scheme :> [ `Debra | `Ebr | `Hp | `Ibr | `None ])
  in
  let module Q = N_msqueue.Make (S) in
  let g = S.create ~ndomains:domains in
  let q = Q.create () in
  let make_worker d =
    let s = S.thread g d in
    let rng = Rng.create ((d * 53) + 9) in
    fun () ->
      if Rng.bool rng then Q.enqueue q s (Rng.int rng 1000)
      else ignore (Q.dequeue q s)
  in
  run_workers
    ~label:(Fmt.str "msqueue+%s" sname)
    ~scheme:sname ~structure:"ms-queue" ~domains
    ~ops_per_domain ~make_worker
    ~stats:(fun () -> S.stats g)
    ()

let to_row ~experiment ~category r =
  (* The domain count is part of the row identity: the E8 grid runs the
     same pairing at several domain counts, and bench_compare must never
     pair a 1-domain row with a 2-domain one. *)
  let label = Printf.sprintf "%s@%dd" r.label r.domains in
  Era_metrics.Metrics.row ~experiment ~label ~category ~scheme:r.scheme
    ~structure:r.structure ~domains:r.domains ~total_ops:r.total_ops
    ~elapsed_s:r.elapsed_s ~mops:r.mops ~max_backlog:r.max_backlog
    ~reclaimed:r.reclaimed ~retired:r.retired ~scans:r.scans ()

let pp_result fmt r =
  Fmt.pf fmt "%-24s d=%d ops=%-8d %6.3f s  %8.3f Mops/s  backlog(max)=%-6d \
              reclaimed=%d"
    r.label r.domains r.total_ops r.elapsed_s r.mops r.max_backlog r.reclaimed
