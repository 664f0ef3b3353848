open Era_sim
module Mem = Era_sched.Mem
module Sched = Era_sched.Sched

module Impl = struct

let name = "he"
let describe = "hazard eras; easy + robust (liberal bound), not widely applicable"

let slots_per_thread = 3
let allocs_per_era = 1
let scan_threshold = 8
let birth_field = 0
let no_era = -1

let integration : Integration.spec =
  {
    scheme_name = name;
    provided_as_object = true;
    insertion_points =
      [
        Integration.Op_boundaries;
        Integration.Alloc_retire_replacement;
        Integration.Primitive_replacement;
      ];
    primitives_linearizable = true;
    uses_rollback = false;
    modifies_ds_fields = false;
    added_fields = 1;
    requires_type_preservation = false;
    special_support = [ "wide CAS (in the original; not needed here)" ];
  }

type t = {
  nthreads : int;
  mutable era : int;
  mutable allocs : int;
  slots : int array array;  (* published eras; [no_era] = empty *)
  retired : (Word.t * int * int) list array;  (* node, birth, retire era *)
  retired_count : int array;
  hz : Hazards.t;  (* scan-time scratch of published eras *)
}

type tctx = {
  g : t;
  ctx : Sched.ctx;
  mutable rot : int;
}

let create _heap ~nthreads =
  {
    nthreads;
    era = 0;
    allocs = 0;
    slots = Array.init nthreads (fun _ -> Array.make slots_per_thread no_era);
    retired = Array.make nthreads [];
    retired_count = Array.make nthreads 0;
    hz = Hazards.create ();
  }

let thread g ctx = { g; ctx; rot = 0 }
let global t = t.g
let published_eras g =
  Array.to_list g.slots
  |> List.concat_map Array.to_list
  |> List.filter (fun e -> e <> no_era)

let retired_backlog g = Array.fold_left ( + ) 0 g.retired_count

let clear_slots t =
  let tid = t.ctx.Sched.tid in
  Mem.fence t.ctx ();
  Array.fill t.g.slots.(tid) 0 slots_per_thread no_era

let begin_op t =
  t.rot <- 0;
  clear_slots t

let end_op t = clear_slots t

let with_op t f =
  begin_op t;
  let r = f () in
  end_op t;
  r

(* Eras advance on allocation, and births are stamped after the advance:
   a node born after a reader published its era is never covered by it. *)
let alloc t ~key =
  let g = t.g in
  g.allocs <- g.allocs + 1;
  if g.allocs mod allocs_per_era = 0 then begin
    g.era <- g.era + 1;
    Mem.fence t.ctx ~event:(Event.Epoch { value = g.era }) ()
  end;
  let w = Mem.alloc t.ctx ~key in
  Mem.aux_set t.ctx ~via:w ~field:birth_field (Word.int g.era);
  w

let birth_of t w =
  match Mem.aux_get t.ctx ~via:w ~field:birth_field with
  | Word.Int b, _ -> b
  | (Word.Null | Word.Ptr _), _ -> 0

(* One pass over the retired list: snapshot published eras into the
   scratch set, keep covered nodes (counting as we go), reclaim the rest
   in list order — same order as the old partition-then-iterate. *)
let scan t =
  let g = t.g in
  let tid = t.ctx.Sched.tid in
  Mem.fence t.ctx ();
  Hazards.clear g.hz;
  Array.iter
    (fun slots ->
      Array.iter (fun e -> if e <> no_era then Hazards.add g.hz e) slots)
    g.slots;
  let keep = ref [] in
  let kept = ref 0 in
  List.iter
    (fun ((w, birth, retire_era) as r) ->
      if Hazards.exists_in_range g.hz ~lo:birth ~hi:retire_era then begin
        keep := r :: !keep;
        incr kept
      end
      else Mem.reclaim t.ctx w)
    g.retired.(tid);
  g.retired.(tid) <- List.rev !keep;
  g.retired_count.(tid) <- !kept

let retire t w =
  let g = t.g in
  let tid = t.ctx.Sched.tid in
  let birth = birth_of t w in
  Mem.retire t.ctx w;
  g.retired.(tid) <- (w, birth, g.era) :: g.retired.(tid);
  g.retired_count.(tid) <- g.retired_count.(tid) + 1;
  if g.retired_count.(tid) >= scan_threshold then scan t

(* Publish the current era in a rotating slot, retrying until the global
   era is stable across the publication — the HE protect protocol. *)
let publish_era t =
  let g = t.g in
  let tid = t.ctx.Sched.tid in
  let slot = t.rot mod slots_per_thread in
  let rec loop () =
    let e = g.era in
    g.slots.(tid).(slot) <- e;
    Mem.fence t.ctx
      ~event:(Event.Protect { tid; slot; addr = -1; node = e })
      ();
    if g.era = e then e else loop ()
  in
  let e = loop () in
  t.rot <- t.rot + 1;
  e

(* Protect-validate, as in HP but era-grained: load, publish the current
   era, re-load; a stable pointer is deemed protected by the published
   era. (On Harris's list "stable" does not imply "safe" — Figure 2.) *)
let read t ~via ~field =
  let rec loop () =
    let w = Mem.read t.ctx ~via ~field in
    match w with
    | Word.Null | Word.Int _ -> w
    | Word.Ptr _ ->
      let _era = publish_era t in
      let w' = Mem.read t.ctx ~via ~field in
      if Word.same_bits w w' then w' else loop ()
  in
  loop ()

let read_key t ~via = Mem.read_key t.ctx ~via
let write t ~via ~field v = Mem.write t.ctx ~via ~field v

let cas t ~via ~field ~expected ~desired =
  Mem.cas t.ctx ~via ~field ~expected ~desired

let enter_read_phase _ = ()
let read_phase t f = enter_read_phase t; f ()
let enter_write_phase _ ~reserve:_ = ()
let quiesce t = scan t

end

include Impl
module Guard = Smr_intf.Guard (Impl)
