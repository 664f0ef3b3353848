(* Native legs: the Michael list over native EBR on 2 domains, timed by
   [Throughput.run_workers]. Each batch builds a fresh list and scheme,
   prefills it, runs a fixed number of operations per domain from
   pre-drawn streams, then checks the list it leaves behind. *)

module Tp = Era_native.Throughput
module Nsmr = Era_native.Nsmr
module N_ebr = Era_native.N_ebr
module Rng = Era_sim.Rng

type spec = {
  name : string;
  workload : Tp.workload;
  domains : int;
  ops_per_domain : int;
}

let zipf =
  { name = "native-zipf"; workload = Tp.zipf_1m_hot; domains = 2;
    ops_per_domain = 200_000 }

let churn =
  { name = "native-churn"; workload = Tp.uniform_churn; domains = 2;
    ops_per_domain = 200_000 }

(* One domain's operations: [key lsl 2 lor op] with op 0 = contains,
   1 = insert, 2 = delete, replayed cyclically. Drawn from the seed
   before any timing, so the timed loop does one array read per op. *)
type streams = int array array

let stream_len = 1 lsl 16

let streams spec ~seed : streams =
  Array.init spec.domains (fun d ->
      let rng = Rng.create ((seed * 7919) + (d * 77) + 13) in
      let keys =
        Era_workload.Workload.sample_keys rng spec.workload.Tp.wl_keys
          ~n:stream_len
      in
      Array.map
        (fun k ->
          let roll = Rng.int rng 100 in
          let op =
            if roll < spec.workload.Tp.wl_contains_pct then 0
            else (roll land 1) + 1
          in
          (k lsl 2) lor op)
        keys)

(* Updates (insert or delete attempts) among the first [ops] ops of a
   stream: the base of [n_michael.success_ratio]. *)
let updates stream ~ops =
  let n = ref 0 in
  for i = 0 to ops - 1 do
    if stream.(i land (stream_len - 1)) land 3 <> 0 then incr n
  done;
  !n

type batch = {
  mops : float;
  checks_failed : string list;  (** names of the output checks that failed *)
  layers : (string * float) list;  (** per-layer values; traced batches only *)
}

(* Per-domain counter slots, one array per domain allocated by that
   domain: successful inserts, successful deletes, sampled op ns,
   sampled ops. *)
let c_ins = 0
let c_del = 1
let c_ns = 2
let c_n = 3
let op_stride = 16

let prefill_keys spec = List.init spec.workload.Tp.wl_prefill (fun i -> (i * 2) + 1)

let rec strictly_ascending = function
  | a :: (b :: _ as tl) -> a < b && strictly_ascending tl
  | _ -> true

(* What a batch leaves for its caller: the timed run, the scheme's
   counters, failed checks, and the raw inputs of the per-layer values. *)
type outcome = {
  run : Tp.result;
  stats : Nsmr.stats;
  failed : string list;
  list_ns : float;  (** mean ns inside a list call, from the timed sample *)
  success_ratio : float;  (** successful updates over update attempts *)
}

module Run (S : Nsmr.S) = struct
  module L = Era_native.N_michael.Make (S)

  (* Also returns the scheme, for the caller's per-layer counters. *)
  let batch ?(ops_per_domain = 0) ~time_ops spec (streams : streams) =
    let ops = if ops_per_domain > 0 then ops_per_domain else spec.ops_per_domain in
    let g = S.create ~ndomains:spec.domains in
    let l = L.create () in
    let s0 = S.thread g 0 in
    let prefill = prefill_keys spec in
    List.iter (fun k -> ignore (L.insert l s0 k)) prefill;
    let ctrs = Array.make spec.domains [||] in
    let make_worker d =
      let s = S.thread g d in
      let c = Array.make 8 0 in
      ctrs.(d) <- c;
      let tagged = streams.(d) in
      let idx = ref 0 in
      let op v =
        let k = v lsr 2 in
        match v land 3 with
        | 0 -> ignore (L.contains l s k)
        | 1 -> if L.insert l s k then c.(c_ins) <- c.(c_ins) + 1
        | _ -> if L.delete l s k then c.(c_del) <- c.(c_del) + 1
      in
      if time_ops then
        fun () ->
          let i = !idx in
          incr idx;
          let v = Array.unsafe_get tagged (i land (stream_len - 1)) in
          if i land (op_stride - 1) = 0 then begin
            let t0 = Stat.now_ns () in
            op v;
            c.(c_ns) <- c.(c_ns) + (Stat.now_ns () - t0);
            c.(c_n) <- c.(c_n) + 1
          end
          else op v
      else
        fun () ->
          let v = Array.unsafe_get tagged (!idx land (stream_len - 1)) in
          incr idx;
          op v
    in
    let run =
      Tp.run_workers ~label:spec.name ~scheme:S.name ~structure:"michael-list"
        ~domains:spec.domains ~ops_per_domain:ops ~make_worker
        ~stats:(fun () -> S.stats g)
        ()
    in
    let sum i = Array.fold_left (fun acc c -> acc + c.(i)) 0 ctrs in
    let final = L.to_list l s0 in
    let stats = S.stats g in
    let failed =
      List.filter_map
        (fun (name, ok) -> if ok then None else Some name)
        [
          ("ascending", strictly_ascending final);
          ( "size",
            List.length final - List.length prefill = sum c_ins - sum c_del );
          ("reclaim", stats.Nsmr.reclaimed + stats.Nsmr.backlog = stats.Nsmr.retired);
        ]
    in
    let list_ns =
      if sum c_n = 0 then 0.
      else
        Float.max 0.
          ((float_of_int (sum c_ns) /. float_of_int (sum c_n))
          -. Lazy.force Stat.clock_overhead_ns)
    in
    let upd = Array.fold_left (fun acc s -> acc + updates s ~ops) 0 streams in
    let success_ratio =
      float_of_int (sum c_ins + sum c_del) /. float_of_int (max 1 upd)
    in
    ({ run; stats; failed; list_ns; success_ratio }, g)
end

module Plain = Run (N_ebr)
module T_ebr = Timed_smr.Make (N_ebr)
module Traced = Run (T_ebr)

let plain_batch spec streams =
  let o, _ = Plain.batch ~time_ops:false spec streams in
  { mops = o.run.Tp.mops; checks_failed = o.failed; layers = [] }

let traced_batch spec streams =
  let o, g = Traced.batch ~time_ops:true spec streams in
  let st = o.stats in
  let total = float_of_int o.run.Tp.total_ops in
  let per_op k = float_of_int (T_ebr.calls g k) /. total in
  let smr_ns =
    List.fold_left (fun acc k -> acc +. T_ebr.est_ns g k) 0. Timed_smr.kinds
    /. total
  in
  let wall_ns_per_op =
    o.run.Tp.elapsed_s *. 1e9 /. float_of_int spec.ops_per_domain
  in
  let layers =
    [
      ("throughput.harness_ns_per_op", wall_ns_per_op -. o.list_ns);
      ("n_michael.op_ns", o.list_ns);
      ("n_michael.self_ns_per_op", o.list_ns -. smr_ns);
      ("n_michael.success_ratio", o.success_ratio);
      ("n_ebr.ns_per_op", smr_ns);
      ("n_ebr.read_link_per_op", per_op Timed_smr.Read_link);
      ("n_ebr.alloc_per_op", per_op Timed_smr.Alloc);
      ("n_ebr.retire_per_op", per_op Timed_smr.Retire);
      ("n_ebr.scans_per_kop", float_of_int st.Nsmr.scans *. 1000. /. total);
      ( "n_ebr.reclaim_ratio",
        float_of_int st.Nsmr.reclaimed /. float_of_int (max 1 st.Nsmr.retired) );
      ("n_ebr.max_backlog", float_of_int st.Nsmr.max_backlog);
    ]
  in
  { mops = o.run.Tp.mops; checks_failed = o.failed; layers }

(* Set-up: draw the streams (the first call also builds the Zipf table)
   and run a short warm-up batch on them. *)
let setup spec ~seed =
  let s = streams spec ~seed in
  ignore
    (Plain.batch ~ops_per_domain:(spec.ops_per_domain / 10) ~time_ops:false spec s);
  s
