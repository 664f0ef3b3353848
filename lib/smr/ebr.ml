open Era_sim
module Mem = Era_sched.Mem
module Sched = Era_sched.Sched

module Impl = struct

let name = "ebr"
let describe = "epoch-based reclamation (Fraser); easy + strongly applicable"

let integration : Integration.spec =
  {
    scheme_name = name;
    provided_as_object = true;
    insertion_points =
      [ Integration.Op_boundaries; Integration.Alloc_retire_replacement ];
    primitives_linearizable = true;
    uses_rollback = false;
    modifies_ds_fields = false;
    added_fields = 0;
    requires_type_preservation = false;
    special_support = [];
  }

let quiescent = -1

type t = {
  nthreads : int;
  mutable epoch : int;
  announce : int array;
  (* per-thread retire buckets: (retire epoch, nodes) newest first *)
  buckets : (int * Word.t list) list array;
}

type tctx = { g : t; ctx : Sched.ctx }

let create _heap ~nthreads =
  {
    nthreads;
    epoch = 0;
    announce = Array.make nthreads quiescent;
    buckets = Array.make nthreads [];
  }

let thread g ctx = { g; ctx }
let global t = t.g
let current_epoch g = g.epoch
let announced g tid = g.announce.(tid)

let rec has_epoch_le horizon = function
  | [] -> false
  | (e, _) :: l -> e <= horizon || has_epoch_le horizon l

(* Reclaim this thread's buckets whose epoch is at most [global - 2].
   Runs on every [begin_op] and [retire]; most calls find nothing
   eligible, and those return before partitioning anything. *)
let reclaim_eligible t =
  let g = t.g in
  let tid = t.ctx.Sched.tid in
  let horizon = g.epoch - 2 in
  if has_epoch_le horizon g.buckets.(tid) then begin
    let eligible, kept =
      List.partition (fun (e, _) -> e <= horizon) g.buckets.(tid)
    in
    g.buckets.(tid) <- kept;
    List.iter
      (fun (_, nodes) -> List.iter (fun w -> Mem.reclaim t.ctx w) nodes)
      eligible
  end

(* Advance the global epoch if every thread has announced it (or is
   quiescent) — the paper's Appendix A protocol, attempted in begin_op. *)
let try_advance t =
  let g = t.g in
  let e = g.epoch in
  Mem.fence t.ctx ();
  let all_caught_up =
    let ok = ref true in
    for i = 0 to g.nthreads - 1 do
      let a = g.announce.(i) in
      if a <> quiescent && a < e then ok := false
    done;
    !ok
  in
  if all_caught_up then begin
    g.epoch <- e + 1;
    Mem.fence t.ctx ~event:(Event.Epoch { value = e + 1 }) ()
  end

let begin_op t =
  let g = t.g in
  let tid = t.ctx.Sched.tid in
  Mem.fence t.ctx ();
  g.announce.(tid) <- g.epoch;
  try_advance t;
  reclaim_eligible t

let end_op t =
  let g = t.g in
  let tid = t.ctx.Sched.tid in
  Mem.fence t.ctx ();
  g.announce.(tid) <- quiescent

let with_op t f =
  begin_op t;
  let r = f () in
  end_op t;
  r

let alloc t ~key = Mem.alloc t.ctx ~key

let retire t w =
  let g = t.g in
  let tid = t.ctx.Sched.tid in
  Mem.retire t.ctx w;
  let e = g.epoch in
  (g.buckets.(tid) <-
    (match g.buckets.(tid) with
    | (e', nodes) :: rest when e' = e -> (e, w :: nodes) :: rest
    | l -> (e, [ w ]) :: l));
  reclaim_eligible t

let read t ~via ~field = Mem.read t.ctx ~via ~field
let read_key t ~via = Mem.read_key t.ctx ~via
let write t ~via ~field v = Mem.write t.ctx ~via ~field v

let cas t ~via ~field ~expected ~desired =
  Mem.cas t.ctx ~via ~field ~expected ~desired

let enter_read_phase _ = ()
let read_phase t f = enter_read_phase t; f ()
let enter_write_phase _ ~reserve:_ = ()

let quiesce t =
  try_advance t;
  reclaim_eligible t

end

include Impl
module Guard = Smr_intf.Guard (Impl)
