type ptr = {
  addr : int;
  node : int;
  marked : bool;
  stale : bool;
}

type t =
  | Null
  | Int of int
  | Ptr of ptr

let null = Null
let int v = Int v
let ptr ~addr ~node = Ptr { addr; node; marked = false; stale = false }

let is_ptr = function Ptr _ -> true | Null | Int _ -> false
let is_marked = function Ptr p -> p.marked | Null | Int _ -> false

let mark = function
  | Ptr p -> Ptr { p with marked = true }
  | Null | Int _ -> invalid_arg "Word.mark: not a pointer"

(* Both return the word itself when the bit already has the requested
   value: list traversals unmark every successor they read, and almost
   none is marked. *)
let unmark = function
  | Ptr p when p.marked -> Ptr { p with marked = false }
  | (Null | Int _ | Ptr _) as w -> w

let taint = function
  | Ptr p when not p.stale -> Ptr { p with stale = true }
  | (Null | Int _ | Ptr _) as w -> w

let is_stale = function Ptr p -> p.stale | Null | Int _ -> false

let addr_exn = function
  | Ptr p -> p.addr
  | Null | Int _ -> invalid_arg "Word.addr_exn: not a pointer"

let node_exn = function
  | Ptr p -> p.node
  | Null | Int _ -> invalid_arg "Word.node_exn: not a pointer"

let same_bits a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Ptr p, Ptr q -> p.addr = q.addr && p.marked = q.marked
  | (Null | Int _ | Ptr _), _ -> false

let equal a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Ptr p, Ptr q ->
    p.addr = q.addr && p.node = q.node && p.marked = q.marked
    && p.stale = q.stale
  | (Null | Int _ | Ptr _), _ -> false

let pp fmt = function
  | Null -> Fmt.string fmt "null"
  | Int v -> Fmt.pf fmt "%d" v
  | Ptr p ->
    Fmt.pf fmt "&%d#%d%s%s" p.addr p.node
      (if p.marked then "!" else "")
      (if p.stale then "~" else "")

let to_string w = Fmt.str "%a" pp w
