open Era_sim
module Mem = Era_sched.Mem
module Sched = Era_sched.Sched

let name = "phase-audit"
let describe = "access-awareness auditor (Appendix C); no reclamation"

let integration : Integration.spec =
  {
    scheme_name = name;
    provided_as_object = true;
    insertion_points =
      [
        Integration.Op_boundaries;
        Integration.Alloc_retire_replacement;
        Integration.Primitive_replacement;
        Integration.Phase_annotations;
      ];
    primitives_linearizable = true;
    uses_rollback = false;
    modifies_ds_fields = false;
    added_fields = 0;
    requires_type_preservation = false;
    special_support = [];
  }

module Int_set = Set.Make (Int)

type t = {
  heap : Heap.t;
  counts : (string, int) Hashtbl.t;
}

type phase =
  | Read_phase
  | Write_phase

type tctx = {
  g : t;
  ctx : Sched.ctx;
  mutable phase : phase;
  mutable permitted : Int_set.t;  (* node ids permitted in current phase *)
  mutable reserved : Int_set.t;  (* write-phase reservation set *)
  mutable locals : Int_set.t;
      (* own allocations: permitted while still local (App. C cond. 1) *)
}

let create heap ~nthreads:_ = { heap; counts = Hashtbl.create 16 }

let thread g ctx =
  { g; ctx; phase = Read_phase; permitted = Int_set.empty;
    reserved = Int_set.empty; locals = Int_set.empty }

let global t = t.g

let flag t msg =
  let n = Option.value (Hashtbl.find_opt t.g.counts msg) ~default:0 in
  Hashtbl.replace t.g.counts msg (n + 1)

let discipline_violations g =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) g.counts []
  |> List.sort compare

let is_entry t w =
  match w with
  | Word.Ptr p -> Heap.is_entry t.g.heap ~addr:p.addr
  | Word.Null | Word.Int _ -> false

let node_id = function
  | Word.Ptr p -> Some p.node
  | Word.Null | Word.Int _ -> None

let is_local_alloc t w =
  match w with
  | Word.Ptr p -> (
    Int_set.mem p.node t.locals
    &&
    match Heap.cell_state t.g.heap ~addr:p.addr with
    | Lifecycle.Local _ -> true
    | Lifecycle.Shared | Retired | Unallocated -> false)
  | Word.Null | Word.Int _ -> false

let permitted_now t w =
  is_entry t w || is_local_alloc t w
  ||
  match node_id w with
  | Some n -> Int_set.mem n t.permitted
  | None -> true  (* null/int carry no permission question *)

(* A dereference during the write phase must go through an entry point or
   a pointer reserved at the phase boundary (Appendix C conditions 2-3). *)
let check_deref t w what =
  match t.phase with
  | Read_phase ->
    if not (permitted_now t w) then
      flag t (Fmt.str "read-phase %s through non-permitted pointer" what)
  | Write_phase ->
    let ok =
      is_entry t w || is_local_alloc t w
      ||
      match node_id w with
      | Some n -> Int_set.mem n t.reserved || Int_set.mem n t.permitted
      | None -> true
    in
    if not ok then
      flag t (Fmt.str "write-phase %s through unreserved pointer" what)

let grant t w =
  match node_id w with
  | Some n -> t.permitted <- Int_set.add n t.permitted
  | None -> ()

let begin_op t =
  t.phase <- Read_phase;
  t.permitted <- Int_set.empty;
  t.reserved <- Int_set.empty;
  t.locals <- Int_set.empty

let end_op t =
  t.phase <- Read_phase;
  t.permitted <- Int_set.empty;
  t.reserved <- Int_set.empty;
  t.locals <- Int_set.empty

let with_op t f =
  begin_op t;
  let r = f () in
  end_op t;
  r

let enter_read_phase t =
  t.phase <- Read_phase;
  t.permitted <- Int_set.empty;
  t.reserved <- Int_set.empty

let read_phase t f =
  enter_read_phase t;
  f ()

let enter_write_phase t ~reserve =
  (* The reservations must themselves be permitted at the boundary. *)
  List.iter
    (fun w ->
      if not (permitted_now t w) then
        flag t "reservation of a non-permitted pointer")
    reserve;
  t.phase <- Write_phase;
  t.reserved <-
    List.fold_left
      (fun acc w ->
        match node_id w with
        | Some n -> Int_set.add n acc
        | None -> acc)
      Int_set.empty reserve

let alloc t ~key =
  let w = Mem.alloc t.ctx ~key in
  (match node_id w with
  | Some n -> t.locals <- Int_set.add n t.locals
  | None -> ());
  grant t w;
  w

let retire t w =
  (* Retirement is not a shared-memory access (Appendix C); never flag. *)
  Mem.retire t.ctx w

let read t ~via ~field =
  check_deref t via "read";
  let w = Mem.read t.ctx ~via ~field in
  (match t.phase with Read_phase -> grant t w | Write_phase -> ());
  w

let read_key t ~via =
  check_deref t via "key read";
  Mem.read_key t.ctx ~via

let write t ~via ~field v =
  (match t.phase with
  | Write_phase -> ()
  | Read_phase ->
    (* Writes to still-local nodes are allowed in a read phase; shared
       writes are not. *)
    (match via with
    | Word.Ptr p -> (
      match Heap.cell_state t.g.heap ~addr:p.addr with
      | Lifecycle.Local _ -> ()
      | Lifecycle.Shared | Retired | Unallocated ->
        flag t "shared write during a read-only phase")
    | Word.Null | Word.Int _ -> ()));
  check_deref t via "write";
  Mem.write t.ctx ~via ~field v

let cas t ~via ~field ~expected ~desired =
  (match t.phase with
  | Write_phase -> ()
  | Read_phase -> flag t "CAS during a read-only phase");
  check_deref t via "CAS";
  Mem.cas t.ctx ~via ~field ~expected ~desired

let quiesce _ = ()
