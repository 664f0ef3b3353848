(** Native Michael–Scott queue over the native reclamation schemes. *)

open Nnode

module Make (S : Nsmr.S) = struct
  type t = {
    head : link Atomic.t;  (* always points at the current dummy *)
    tail : link Atomic.t;
  }

  let create () =
    let dummy = make ~key:0 in
    { head = Atomic.make (link dummy); tail = Atomic.make (link dummy) }

  let enqueue t s v =
    S.begin_op s;
    let node = S.alloc s v in
    let rec loop () =
      let last_l = Atomic.get t.tail in
      let last = last_l.target in
      let nxt = S.read_link s last in
      if nxt.target == nil then begin
        if Atomic.compare_and_set (next last) nxt (link node) then
          ignore (Atomic.compare_and_set t.tail last_l (link node))
        else loop ()
      end
      else begin
        ignore (Atomic.compare_and_set t.tail last_l (link nxt.target));
        loop ()
      end
    in
    loop ();
    S.end_op s

  let dequeue t s =
    S.begin_op s;
    let rec loop () =
      let first_l = Atomic.get t.head in
      let last_l = Atomic.get t.tail in
      let first = first_l.target in
      let nxt = S.read_link s first in
      if first == last_l.target then begin
        if nxt.target == nil then None
        else begin
          ignore (Atomic.compare_and_set t.tail last_l (link nxt.target));
          loop ()
        end
      end
      else
        let second = nxt.target in
        if second == nil then loop ()
        else
          let v = second.key in
          if Atomic.compare_and_set t.head first_l (link second) then begin
            S.retire s first;
            Some v
          end
          else loop ()
    in
    let r = loop () in
    S.end_op s;
    r
end
