(** Native Harris linked-list set (the original algorithm: traversals
    stride over chains of marked nodes; one CAS unlinks the whole run).
    Functorized over the native reclamation scheme. Only schemes that are
    {e applicable} to Harris's list (EBR; none) are safe here —
    integrating native HP with this list compiles but is exactly the
    unsafe combination the ERA theorem talks about, so the benchmark
    harness never pairs them.

    CAS uses physical equality, so [search] returns the {e physically
    read} (or physically installed) link of [pred] along with the
    window. *)

open Nnode

module Make (S : Nsmr.S) = struct
  type t = {
    head : node;
    tail : node;
  }

  let create () =
    let tail = make ~key:max_int in
    let head = make ~key:min_int in
    Atomic.set (next head) (link tail);
    { head; tail }

  let head t = t.head

  (* Returns (pred, pred_link, curr): [pred_link] is the link value
     physically residing in [next pred] and pointing (unmarked) at
     [curr]. *)
  let rec search t s key =
    let first = S.read_link s t.head in
    let rec find n n_link (left, left_link) =
      let acc =
        if not n_link.marked then (n, n_link) else (left, left_link)
      in
      let n' = n_link.target in
      if n' == t.tail then (fst acc, snd acc, n')
      else
        let n'_link = S.read_link s n' in
        if n'_link.marked || n'.key < key then find n' n'_link acc
        else (fst acc, snd acc, n')
    in
    let left, left_link, right = find t.head first (t.head, first) in
    if left_link.target == right then
      if right != t.tail && (S.read_link s right).marked then search t s key
      else (left, left_link, right)
    else begin
      let fresh = link right in
      if Atomic.compare_and_set (next left) left_link fresh then
        if right != t.tail && (S.read_link s right).marked then search t s key
        else (left, fresh, right)
      else search t s key
    end

  let insert t s key =
    S.begin_op s;
    let node = S.alloc s key in
    let rec loop () =
      let pred, pred_link, curr = search t s key in
      if curr != t.tail && curr.key = key then begin
        S.retire s node;
        false
      end
      else begin
        Atomic.set (next node) (link curr);
        if Atomic.compare_and_set (next pred) pred_link (link node) then true
        else loop ()
      end
    in
    let r = loop () in
    S.end_op s;
    r

  let delete t s key =
    S.begin_op s;
    let rec loop () =
      let pred, pred_link, curr = search t s key in
      if curr == t.tail || curr.key <> key then false
      else
        let succ = S.read_link s curr in
        if succ.marked then loop ()
        else if
          not
            (Atomic.compare_and_set (next curr) succ
               { succ with marked = true })
        then loop ()
        else begin
          if
            not
              (Atomic.compare_and_set (next pred) pred_link
                 (link succ.target))
          then ignore (search t s key);
          S.retire s curr;
          true
        end
    in
    let r = loop () in
    S.end_op s;
    r

  let contains t s key =
    S.begin_op s;
    let _, _, curr = search t s key in
    let r =
      curr != t.tail && (not (S.read_link s curr).marked) && curr.key = key
    in
    S.end_op s;
    r

  let to_list t s =
    S.begin_op s;
    let rec walk l acc =
      let n = l.target in
      if n == nil || n == t.tail then List.rev acc
      else
        let nl = S.read_link s n in
        walk nl (if nl.marked then acc else n.key :: acc)
    in
    let r = walk (S.read_link s t.head) [] in
    S.end_op s;
    r
end
