open Era_sim
module Mem = Era_sched.Mem
module Sched = Era_sched.Sched

let name = "rc"
let describe =
  "reference counting; easy + widely applicable (acyclic), not robust \
   (stalled holders pin whole retired chains)"

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
    added_fields = 1;  (* the reference count *)
    requires_type_preservation = false;
    special_support = [];
  }

type t = {
  heap : Heap.t;
  counts : (int, int) Hashtbl.t;  (* node id -> reference count *)
  retired : (int, Word.t) Hashtbl.t;  (* retired, waiting for count 0 *)
}

type tctx = {
  g : t;
  ctx : Sched.ctx;
  mutable held : Word.t list;  (* references acquired this operation *)
}

let create heap ~nthreads:_ =
  { heap; counts = Hashtbl.create 64; retired = Hashtbl.create 64 }

let thread g ctx = { g; ctx; held = [] }
let global t = t.g

let count g node = Option.value (Hashtbl.find_opt g.counts node) ~default:0

let pinned g = Hashtbl.length g.retired

let incr_node g node = Hashtbl.replace g.counts node (count g node + 1)

(* Decrement; on reaching zero for a retired node, reclaim it and cascade
   through the references its fields still hold. *)
let rec decr_node t node =
  let g = t.g in
  let c = count g node - 1 in
  if c <= 0 then Hashtbl.remove g.counts node
  else Hashtbl.replace g.counts node c;
  if c <= 0 then
    match Hashtbl.find_opt g.retired node with
    | None -> ()
    | Some w ->
      Hashtbl.remove g.retired node;
      release_fields t w;
      Mem.reclaim t.ctx w

and release_fields t w =
  (* The node is still valid here (retired, about to be reclaimed). *)
  let nfields = (Heap.config t.g.heap).Heap.ptr_fields in
  for f = 0 to nfields - 1 do
    match Mem.peek t.ctx ~via:w ~field:f with
    | Word.Ptr p, Heap.Valid -> decr_node t p.node
    | (Word.Ptr _ | Word.Null | Word.Int _), _ -> ()
  done

let acquire t w =
  match w with
  | Word.Ptr p ->
    incr_node t.g p.node;
    Mem.fence t.ctx ();  (* the count update is a shared step *)
    t.held <- w :: t.held
  | Word.Null | Word.Int _ -> ()

let begin_op t = t.held <- []

let end_op t =
  let held = t.held in
  t.held <- [];
  Mem.fence t.ctx ();
  List.iter
    (fun w ->
      match w with
      | Word.Ptr p -> decr_node t p.node
      | Word.Null | Word.Int _ -> ())
    held

let with_op t f =
  begin_op t;
  let r = f () in
  end_op t;
  r

let alloc t ~key =
  let w = Mem.alloc t.ctx ~key in
  acquire t w;
  w

let retire t w =
  Mem.retire t.ctx w;
  match w with
  | Word.Ptr p ->
    Hashtbl.replace t.g.retired p.node w;
    (* It may already be unreferenced (e.g. a never-published node whose
       only holder is this thread); reclamation then happens when the
       holder releases at end_op, or now if nobody holds it. *)
    if count t.g p.node = 0 then begin
      Hashtbl.remove t.g.retired p.node;
      release_fields t w;
      Mem.reclaim t.ctx w
    end
  | Word.Null | Word.Int _ -> ()

let read t ~via ~field =
  let w = Mem.read t.ctx ~via ~field in
  acquire t w;
  w

let read_key t ~via = Mem.read_key t.ctx ~via

(* Stored-reference accounting: a write/CAS that installs a pointer adds
   a stored reference to its target and drops the one held by the value
   it replaces. Under correct counting the replaced value's logical node
   is the expected word's node: the address cannot have been recycled
   while a stored reference kept its count positive. *)
let stored_swap t ~replaced ~installed =
  (match installed with
  | Word.Ptr p -> incr_node t.g p.node
  | Word.Null | Word.Int _ -> ());
  match replaced with
  | Word.Ptr p -> decr_node t p.node
  | Word.Null | Word.Int _ -> ()

let write t ~via ~field value =
  let old, _ = Mem.peek t.ctx ~via ~field in
  Mem.write t.ctx ~via ~field value;
  stored_swap t ~replaced:old ~installed:value

let cas t ~via ~field ~expected ~desired =
  let ok = Mem.cas t.ctx ~via ~field ~expected ~desired in
  if ok then stored_swap t ~replaced:expected ~installed:desired;
  ok

let enter_read_phase _ = ()
let read_phase t f = enter_read_phase t; f ()
let enter_write_phase _ ~reserve:_ = ()
let quiesce _ = ()
