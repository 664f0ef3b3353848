type node = {
  mutable nxt : link;
  mutable key : int;
  mutable birth : int;
}

and link = {
  marked : bool;
  target : node;
}

(* The null sentinel, self-linked so the record is well-formed (see
   nnode.mli). *)
let rec nil =
  { nxt = { marked = false; target = nil }; key = max_int; birth = 0 }

(* The node is its own atomic cell; the safety argument is in nnode.mli. *)
let next (n : node) : link Atomic.t = Obj.magic n

let link ?(marked = false) target = { marked; target }
let make ~key = { nxt = link nil; key; birth = 0 }
let get n = Atomic.get (next n)

let recycle n ~key =
  if n == nil then make ~key
  else begin
    Atomic.set (next n) (link nil);
    n.key <- key;
    n
  end

let set_birth n birth = n.birth <- birth
let same_target a b = a.marked = b.marked && a.target == b.target
