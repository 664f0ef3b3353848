module Rng = Era_sim.Rng

type mix = {
  insert_pct : int;
  delete_pct : int;
}

let update_heavy = { insert_pct = 50; delete_pct = 50 }
let balanced = { insert_pct = 25; delete_pct = 25 }

type key_dist =
  | Uniform of int
  | Zipf of int * float

(* Zipf via inverse-CDF over a precomputed table would be overkill here;
   rejection-free approximation by the harmonic partial sums, computed
   lazily per (n, s) pair. The memo table is the one piece of
   module-level mutable state in the simulation stack, so it is
   mutex-protected: parallel exploration workers (lib/explore) run
   workloads concurrently from several domains, and an unguarded
   [Hashtbl] resize is a crash. The lock is per table {e lookup}, not per
   key draw — [draw_key] hits it once per Zipf draw, never for Uniform. *)
let zipf_tables : (int * float, float array) Hashtbl.t = Hashtbl.create 8
let zipf_mutex = Mutex.create ()

let zipf_cdf n s =
  Mutex.lock zipf_mutex;
  let table =
    match Hashtbl.find_opt zipf_tables (n, s) with
    | Some t -> t
    | None ->
      let t = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
        t.(i) <- !acc
      done;
      let total = !acc in
      Array.iteri (fun i v -> t.(i) <- v /. total) t;
      Hashtbl.replace zipf_tables (n, s) t;
      t
  in
  Mutex.unlock zipf_mutex;
  table

let draw_key rng = function
  | Uniform n -> 1 + Rng.int rng n
  | Zipf (n, s) ->
    let cdf = zipf_cdf n s in
    let u = Rng.float rng in
    let rec bisect lo hi =
      if lo >= hi then lo + 1
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    bisect 0 (n - 1)

(* Hot loops must not pay the Zipf bisect (20 float compares over a
   cache-hostile table) per operation: draw the keys up front into a flat
   array and let the loop index it. The explicit loop pins the draw order
   (Array.init's evaluation order is unspecified). *)
let sample_keys rng dist ~n =
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- draw_key rng dist
  done;
  a

let run_set_ops (ops : Era_sets.Set_intf.ops) rng ~ops:n ~keys ~mix =
  for _ = 1 to n do
    let k = draw_key rng keys in
    let roll = Rng.int rng 100 in
    if roll < mix.insert_pct then ignore (ops.insert k)
    else if roll < mix.insert_pct + mix.delete_pct then ignore (ops.delete k)
    else ignore (ops.contains k)
  done

let run_stack_ops (ops : Era_sets.Treiber_stack.stack_ops) rng ~ops:n ~keys =
  for _ = 1 to n do
    if Rng.bool rng then ops.push (draw_key rng keys)
    else ignore (ops.pop ())
  done

let run_queue_ops (ops : Era_sets.Ms_queue.queue_ops) rng ~ops:n ~keys =
  for _ = 1 to n do
    if Rng.bool rng then ops.enqueue (draw_key rng keys)
    else ignore (ops.dequeue ())
  done

let churn_keys ~base ~rounds =
  List.init rounds (fun i -> (base + i + 1, base + i))
