(* The access path matches on cells, states and words in place: it makes
   no cross-module call that only inlining would make cheap, because the
   dev profile (which perfbench builds in) passes [-opaque], so nothing
   from [Vec], [Lifecycle] or [Word] is inlined here. The monitor's
   emitters, which do real work, are the path's only such calls. *)

exception Heap_exhausted

type validity =
  | Valid
  | Invalid_unallocated
  | Invalid_reused
  | Invalid_system

type space_policy =
  | Keep_in_program
  | Return_to_system
  | Return_every of int

type config = {
  ptr_fields : int;
  aux_fields : int;
  space : space_policy;
  capacity : int option;
}

type stats = {
  allocs : int;
  reclaims : int;
  cells_in_use : int;
  free_cells : int;
  system_cells : int;
}

type cell = {
  addr : int;
  mutable node : int;
  mutable state : Lifecycle.t;
  mutable key : int;
  mutable ptrs : Word.t array;
  mutable aux : Word.t array;
  mutable in_system : bool;
  mutable entry : bool;  (* data-structure entry point (sentinel) *)
}

type t = {
  cfg : config;
  mon : Monitor.t;
  mutable cells : cell array;  (* [cells.(a)] for a < [ncells] is address a *)
  mutable ncells : int;
  mutable free : int list;
  mutable next_node : int;
  mutable allocs : int;
  mutable reclaims : int;
  mutable system_cells : int;
  mutable in_use : int;  (* cells whose state is not Unallocated *)
  mutable free_count : int;  (* length of [free] *)
}

let default_config =
  { ptr_fields = 2; aux_fields = 4; space = Keep_in_program; capacity = None }

let create ?(config = default_config) mon =
  {
    cfg = config;
    mon;
    cells = [||];
    ncells = 0;
    free = [];
    next_node = 0;
    allocs = 0;
    reclaims = 0;
    system_cells = 0;
    in_use = 0;
    free_count = 0;
  }

let monitor t = t.mon
let config t = t.cfg

(* [in_use] and [free_count] are maintained incrementally at the three
   points where a cell changes occupancy (alloc, reclaim, free-list pop)
   so this is O(1) — it used to fold over every cell and walk the whole
   free list on each call. *)
let stats t =
  {
    allocs = t.allocs;
    reclaims = t.reclaims;
    cells_in_use = t.in_use;
    free_cells = t.free_count;
    system_cells = t.system_cells;
  }

let violate t ~tid kind detail =
  Monitor.emit t.mon (Event.Violation { tid; kind; detail })

let cell_of_addr t addr =
  if addr < 0 || addr >= t.ncells then
    invalid_arg (Fmt.str "Heap: address %d out of range" addr)
  else Array.unsafe_get t.cells addr

(* Validity of [p] against the cell at its address (Definition 4.1). *)
let cell_validity c (p : Word.ptr) =
  if c.in_system then Invalid_system
  else if c.node <> p.node then Invalid_reused
  else
    match c.state with
    | Lifecycle.Unallocated -> Invalid_unallocated
    | Local _ | Shared | Retired -> Valid

let validity t w =
  match w with
  | Word.Null | Word.Int _ -> invalid_arg "Heap.validity: not a pointer"
  | Word.Ptr p -> cell_validity (cell_of_addr t p.addr) p

let is_valid t w = validity t w = Valid

(* ------------------------------------------------------------------ *)
(* Allocation / life cycle                                            *)
(* ------------------------------------------------------------------ *)

let fresh_cell t =
  match t.free with
  | addr :: rest ->
    t.free <- rest;
    t.free_count <- t.free_count - 1;
    cell_of_addr t addr
  | [] ->
    let n = t.ncells in
    (match t.cfg.capacity with
    | Some cap when n >= cap -> raise Heap_exhausted
    | Some _ | None -> ());
    let c =
      {
        addr = n;
        node = -1;
        state = Lifecycle.Unallocated;
        key = 0;
        ptrs = Array.make t.cfg.ptr_fields Word.Null;
        aux = Array.make t.cfg.aux_fields Word.Null;
        in_system = false;
        entry = false;
      }
    in
    if n = Array.length t.cells then begin
      let cells = Array.make (max 16 (2 * n)) c in
      Array.blit t.cells 0 cells 0 n;
      t.cells <- cells
    end;
    t.cells.(n) <- c;
    t.ncells <- n + 1;
    c

let alloc_with_state t ~tid ~key state =
  let c = fresh_cell t in
  let node = t.next_node in
  t.next_node <- node + 1;
  t.allocs <- t.allocs + 1;
  t.in_use <- t.in_use + 1;
  c.node <- node;
  c.state <- state;
  c.key <- key;
  Array.fill c.ptrs 0 (Array.length c.ptrs) Word.Null;
  Array.fill c.aux 0 (Array.length c.aux) Word.Null;
  Monitor.emit t.mon (Event.Alloc { tid; addr = c.addr; node; key });
  (match state with
  | Lifecycle.Shared ->
    Monitor.emit t.mon (Event.Share { tid; addr = c.addr; node })
  | Unallocated | Local _ | Retired -> ());
  Word.ptr ~addr:c.addr ~node

let alloc t ~tid ~key = alloc_with_state t ~tid ~key (Lifecycle.Local tid)

let alloc_sentinel t ~tid ~key =
  let w = alloc_with_state t ~tid ~key Lifecycle.Shared in
  (cell_of_addr t (Word.addr_exn w)).entry <- true;
  w

let is_entry t ~addr = (cell_of_addr t addr).entry

let transition t ~tid c to_ =
  match Lifecycle.check_transition ~from:c.state ~to_ with
  | Ok () ->
    c.state <- to_
  | Error msg -> violate t ~tid Event.Lifecycle_error msg

let retire t ~tid w =
  match w with
  | Word.Null | Word.Int _ -> invalid_arg "Heap.retire: not a pointer"
  | Word.Ptr p -> (
    let c = cell_of_addr t p.addr in
    match c.state with
    | (Lifecycle.Local _ | Shared) when c.node = p.node ->
      transition t ~tid c Lifecycle.Retired;
      Monitor.emit t.mon (Event.Retire { tid; addr = p.addr; node = p.node })
    | Retired when c.node = p.node ->
      violate t ~tid Event.Double_free
        (Fmt.str "double retire of &%d#%d" p.addr p.node)
    | Unallocated | Local _ | Shared | Retired ->
      violate t ~tid Event.Double_free
        (Fmt.str "retire of dead node &%d#%d" p.addr p.node))

let reclaim t ~tid w =
  match w with
  | Word.Null | Word.Int _ -> invalid_arg "Heap.reclaim: not a pointer"
  | Word.Ptr p -> (
    let c = cell_of_addr t p.addr in
    match c.state with
    | Lifecycle.Retired when c.node = p.node ->
      transition t ~tid c Lifecycle.Unallocated;
      t.in_use <- t.in_use - 1;
      t.reclaims <- t.reclaims + 1;
      let to_system =
        match t.cfg.space with
        | Keep_in_program -> false
        | Return_to_system -> true
        | Return_every k -> k > 0 && t.reclaims mod k = 0
      in
      if to_system then begin
        c.in_system <- true;
        t.system_cells <- t.system_cells + 1
      end
      else begin
        t.free <- c.addr :: t.free;
        t.free_count <- t.free_count + 1
      end;
      Monitor.emit t.mon
        (Event.Reclaim { tid; addr = p.addr; node = p.node; to_system })
    | Unallocated | Local _ | Shared | Retired ->
      violate t ~tid Event.Double_free
        (Fmt.str "reclaim of non-retired node &%d#%d (cell holds #%d, %a)"
           p.addr p.node c.node Lifecycle.pp c.state))

(* ------------------------------------------------------------------ *)
(* Accesses                                                           *)
(* ------------------------------------------------------------------ *)

(* Every access starts here: [deref_ptr] unwraps the pointer, [deref_cell]
   looks its cell up once and reports the dereference's own violations,
   stale pointer first, then system space. The caller takes the access's
   validity from the returned cell with [cell_validity]. Short of a
   violation, nothing on this path is boxed. *)
let deref_ptr = function
  | Word.Null -> invalid_arg "Heap: dereference of null (data-structure bug)"
  | Word.Int _ -> invalid_arg "Heap: dereference of integer"
  | Word.Ptr p -> p

let deref_cell t ~tid (p : Word.ptr) =
  let c = cell_of_addr t p.addr in
  if p.stale then
    violate t ~tid Event.Stale_value_used
      (Fmt.str "dereference of stale pointer %a" Word.pp (Word.Ptr p));
  if c.in_system then
    violate t ~tid Event.System_space_access
      (Fmt.str "access to system space via %a" Word.pp (Word.Ptr p));
  c

let check_field c field =
  if field < 0 || field >= Array.length c.ptrs then
    invalid_arg (Fmt.str "Heap: pointer field %d out of range" field)

(* All access/key-read events funnel through the monitor's fast-path
   emitters: when nobody observes the kind the record is never built. *)
let emit_access t ~tid ~(p : Word.ptr) ~field ~kind ~unsafe =
  Monitor.emit_access t.mon ~tid ~addr:p.addr ~node:p.node ~field ~kind
    ~unsafe

(* Auto-promotion of reachability: storing a pointer to a local node into a
   field of a shared node makes the target shared (it became reachable from
   an entry point through shared nodes). *)
let promote_if_shared t ~tid via_cell stored =
  match stored, via_cell.state with
  | Word.Ptr q, Lifecycle.Shared -> (
    let target = cell_of_addr t q.addr in
    if target.node = q.node then
      match target.state with
      | Lifecycle.Local _ ->
        transition t ~tid target Lifecycle.Shared;
        Monitor.emit t.mon
          (Event.Share { tid; addr = q.addr; node = q.node })
      | Unallocated | Shared | Retired -> ())
  | (Word.Ptr _ | Word.Null | Word.Int _), _ -> ()

let read_checked t ~tid ~via ~field =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  check_field c field;
  let unsafe = v <> Valid in
  emit_access t ~tid ~p ~field ~kind:Event.Read ~unsafe;
  if unsafe then begin
    violate t ~tid Event.Stale_value_used
      (Fmt.str "value read through invalid pointer %a (.f%d) is used"
         Word.pp via field);
    Word.taint c.ptrs.(field)
  end
  else c.ptrs.(field)

let peek t ~tid ~via ~field =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  check_field c field;
  let unsafe = v <> Valid in
  emit_access t ~tid ~p ~field ~kind:Event.Read ~unsafe;
  let w = c.ptrs.(field) in
  ((if unsafe then Word.taint w else w), v)

let read_key_checked t ~tid ~via =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  let unsafe = v <> Valid in
  Monitor.emit_key_read t.mon ~tid ~addr:p.addr ~node:p.node ~unsafe;
  if unsafe then
    violate t ~tid Event.Stale_value_used
      (Fmt.str "key read through invalid pointer %a is used" Word.pp via);
  c.key

let peek_key t ~tid ~via =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  let unsafe = v <> Valid in
  Monitor.emit_key_read t.mon ~tid ~addr:p.addr ~node:p.node ~unsafe;
  (c.key, v)

let check_stored_value t ~tid w =
  match w with
  | Word.Ptr { stale = true; _ } ->
    violate t ~tid Event.Stale_value_used
      (Fmt.str "stale value %a stored to shared memory" Word.pp w)
  | Word.Ptr _ | Word.Null | Word.Int _ -> ()

let write_checked t ~tid ~via ~field value =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  check_field c field;
  check_stored_value t ~tid value;
  let unsafe = v <> Valid in
  emit_access t ~tid ~p ~field ~kind:Event.Write ~unsafe;
  if unsafe then
    violate t ~tid Event.Unsafe_write
      (Fmt.str "write through invalid pointer %a (.f%d)" Word.pp via field)
  else begin
    c.ptrs.(field) <- value;
    promote_if_shared t ~tid c value
  end

(* [Word.same_bits], and with [~node] the node identity too, matched in
   place. *)
let same_word ~node a b =
  match a, b with
  | Word.Ptr p, Word.Ptr q ->
    p.addr = q.addr && p.marked = q.marked && ((not node) || p.node = q.node)
  | Word.Null, Word.Null -> true
  | Word.Int x, Word.Int y -> x = y
  | (Word.Null | Word.Int _ | Word.Ptr _), _ -> false

let cas_gen ~compare_identity t ~tid ~via ~field ~expected ~desired =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  check_field c field;
  check_stored_value t ~tid expected;
  check_stored_value t ~tid desired;
  let unsafe = v <> Valid in
  let matches = same_word ~node:compare_identity c.ptrs.(field) expected in
  let success = matches && not (unsafe && compare_identity) in
  emit_access t ~tid ~p ~field ~kind:(Event.Cas success) ~unsafe;
  if unsafe && not compare_identity then begin
    (* A plain CAS through an invalid pointer: if the bits match it would
       corrupt whatever node now lives there (Definition 4.2(2)). *)
    if matches then begin
      violate t ~tid Event.Unsafe_cas
        (Fmt.str "successful CAS through invalid pointer %a (.f%d)" Word.pp
           via field);
      false
    end
    else false
  end
  else if success then begin
    c.ptrs.(field) <- desired;
    promote_if_shared t ~tid c desired;
    true
  end
  else false

let cas_checked t ~tid ~via ~field ~expected ~desired =
  cas_gen ~compare_identity:false t ~tid ~via ~field ~expected ~desired

let cas_identity t ~tid ~via ~field ~expected ~desired =
  cas_gen ~compare_identity:true t ~tid ~via ~field ~expected ~desired

(* ------------------------------------------------------------------ *)
(* SMR auxiliary fields                                               *)
(* ------------------------------------------------------------------ *)

let check_aux_field t field =
  if field < 0 || field >= t.cfg.aux_fields then
    invalid_arg (Fmt.str "Heap: aux field %d out of range" field)

let aux_get t ~tid ~via ~field =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  check_aux_field t field;
  let unsafe = v <> Valid in
  emit_access t ~tid ~p ~field ~kind:Event.Read ~unsafe;
  let w = c.aux.(field) in
  ((if unsafe then Word.taint w else w), v)

let aux_set t ~tid ~via ~field value =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  check_aux_field t field;
  let unsafe = v <> Valid in
  emit_access t ~tid ~p ~field ~kind:Event.Write ~unsafe;
  if unsafe then
    violate t ~tid Event.Unsafe_write
      (Fmt.str "scheme-field write through invalid pointer %a" Word.pp via)
  else c.aux.(field) <- value

let aux_cas t ~tid ~via ~field ~expected ~desired =
  let p = deref_ptr via in
  let c = deref_cell t ~tid p in
  let v = cell_validity c p in
  check_aux_field t field;
  let unsafe = v <> Valid in
  let current = c.aux.(field) in
  let success = (not unsafe) && same_word ~node:false current expected in
  emit_access t ~tid ~p ~field ~kind:(Event.Cas success) ~unsafe;
  if success then c.aux.(field) <- desired;
  success

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let cell_state t ~addr = (cell_of_addr t addr).state

let collect t p =
  let acc = ref [] in
  for a = t.ncells - 1 downto 0 do
    let c = t.cells.(a) in
    if p c.state then acc := (c.addr, c.node, c.key) :: !acc
  done;
  !acc

let live_nodes t = collect t Lifecycle.is_active

let retired_nodes t =
  collect t (function Lifecycle.Retired -> true | _ -> false)
