(** Native Michael linked-list set [30]: the HP-compatible restructuring
    of Harris's algorithm. Traversals never step over a marked node —
    they unlink it first (one node per CAS), restarting from the head on
    contention. This is the list whose slower churn behaviour the paper's
    Section 6 discussion cites; experiment E8 measures it against
    Harris's. Safe with every native scheme, including HP. *)

open Nnode

module Make (S : Nsmr.S) = struct
  type t = {
    head : node;
    tail : node;
  }

  (* Whole-operation restart wrapper: a neutralizing scheme (N_debra)
     abandons an in-progress operation by raising [Nsmr.Neutralized]
     from [read_link]. Every pointer the attempt held is dead at that
     point, so the only sound resumption is the top of the operation —
     which is also why only this list supports such schemes. For
     non-neutralizing schemes the wrapper is one exception handler per
     operation and never fires. *)
  let rec restartable f = try f () with Nsmr.Neutralized -> restartable f

  let create () =
    let tail = make ~key:max_int in
    let head = make ~key:min_int in
    Atomic.set (next head) (link tail);
    { head; tail }

  let head t = t.head

  (* Returns (pred, pred_link, curr): pred unmarked and physically linked
     to curr at read time; every marked node met on the way was unlinked
     (and retired by the unlink winner) before stepping over it. *)
  let rec search t s key =
    let rec walk pred pred_link =
      let curr = pred_link.target in
      if curr == t.tail then (pred, pred_link, curr)
      else
        let curr_link = S.read_link s curr in
        if curr_link.marked then begin
          let fresh = link curr_link.target in
          if Atomic.compare_and_set (next pred) pred_link fresh then begin
            S.retire s curr;
            walk pred fresh
          end
          else search t s key  (* contention: restart *)
        end
        else if curr.key < key then walk curr curr_link
        else (pred, pred_link, curr)
    in
    walk t.head (S.read_link s t.head)

  let insert t s key =
    restartable @@ fun () ->
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
    restartable @@ fun () ->
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
          (* Unlink winner retires; if we lose, a traversal will win the
             unlink CAS and retire it. *)
          if Atomic.compare_and_set (next pred) pred_link (link succ.target)
          then S.retire s curr;
          true
        end
    in
    let r = loop () in
    S.end_op s;
    r

  let contains t s key =
    restartable @@ fun () ->
    S.begin_op s;
    let _, _, curr = search t s key in
    let r = curr != t.tail && curr.key = key in
    S.end_op s;
    r

  let to_list t s =
    restartable @@ fun () ->
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
