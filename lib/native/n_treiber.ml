(** Native Treiber stack over the native reclamation schemes. *)

open Nnode

module Make (S : Nsmr.S) = struct
  type t = { top : link Atomic.t }

  let create () = { top = Atomic.make (link nil) }

  let push t s v =
    S.begin_op s;
    let node = S.alloc s v in
    let rec loop () =
      let old_top = Atomic.get t.top in
      Atomic.set (next node) old_top;
      if Atomic.compare_and_set t.top old_top (link node) then ()
      else begin
        Domain.cpu_relax ();
        loop ()
      end
    in
    loop ();
    S.end_op s

  let pop t s =
    S.begin_op s;
    let rec loop () =
      let old_top = Atomic.get t.top in
      let n = old_top.target in
      if n == nil then None
      else
        let nxt = S.read_link s n in
        if Atomic.compare_and_set t.top old_top (link nxt.target) then begin
          let v = n.key in
          S.retire s n;
          Some v
        end
        else begin
          Domain.cpu_relax ();
          loop ()
        end
    in
    let r = loop () in
    S.end_op s;
    r
end
