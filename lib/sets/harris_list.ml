open Era_sim
module Sched = Era_sched.Sched
module Mem = Era_sched.Mem

(* The mark-bit test on every hop, matched in place rather than through
   [Word] (see the note atop heap.ml). Outside the functor, so the
   traversal closures do not capture it. *)
let marked = function Word.Ptr p -> p.marked | Word.Null | Word.Int _ -> false

module Make (S : Era_smr.Smr_intf.S) = struct
  let next = 0  (* the single pointer field *)

  type t = {
    head : Word.t;
    tail : Word.t;
    tail_addr : int;
    scheme : S.t;
  }

  type h = {
    dl : t;
    s : S.tctx;
    ctx : Sched.ctx;
  }

  let create ctx scheme =
    let tail = Mem.alloc_sentinel ctx ~key:max_int in
    let head = Mem.alloc_sentinel ctx ~key:min_int in
    Mem.write ctx ~via:head ~field:next tail;
    { head; tail; tail_addr = Word.addr_exn tail; scheme }

  let head_word t = t.head
  let tail_word t = t.tail
  let handle dl ctx = { dl; s = S.thread dl.scheme ctx; ctx }
  let tctx h = h.s

  (* The tail test on every hop, matched in place rather than through
     [Word] (see the note atop heap.ml). *)
  let is_tail h = function
    | Word.Ptr p -> p.addr = h.dl.tail_addr
    | Word.Null | Word.Int _ -> false

  (* Lines 1-22. The traversal (read phase) walks over marked nodes
     without unlinking them; the write window then either returns the
     adjacent pair or unlinks the whole marked run with one CAS. *)
  let rec search h key =
    S.read_phase h.s (fun () -> search_body h key)

  and search_body h key =
    let first_next = S.read h.s ~via:h.dl.head ~field:next in
    (* Inner do-while: find left (last unmarked before right) and right
       (first unmarked node with key >= search key, or tail). *)
    let rec find t t_next left left_next =
      let left, left_next, t' =
        match t_next with
        | Word.Ptr ({ marked = true; _ } as p) ->
          (left, left_next, Word.Ptr { p with marked = false })
        | Word.Ptr _ | Word.Null | Word.Int _ -> (t, t_next, t_next)
      in
      if is_tail h t' then (left, left_next, t')
      else
        let t'_next = S.read h.s ~via:t' ~field:next in
        if marked t'_next || S.read_key h.s ~via:t' < key then
          find t' t'_next left left_next
        else (left, left_next, t')
    in
    let left, left_next, right =
      find h.dl.head first_next h.dl.head first_next
    in
    (* Lines 14-22: check adjacency, else unlink the marked run. *)
    if Word.same_bits left_next right then begin
      S.enter_write_phase h.s ~reserve:[ left; right ];
      if (not (is_tail h right)) && marked (S.read h.s ~via:right ~field:next)
      then search h key
      else (left, right)
    end
    else begin
      S.enter_write_phase h.s ~reserve:[ left; right ];
      if S.cas h.s ~via:left ~field:next ~expected:left_next ~desired:right
      then
        if (not (is_tail h right))
           && marked (S.read h.s ~via:right ~field:next)
        then search h key
        else (left, right)
      else search h key
    end

  (* Lines 27-38. *)
  let insert h key =
    if key = min_int || key = max_int then invalid_arg "Harris_list: sentinel key";
    S.with_op h.s (fun () ->
        let new_node = S.alloc h.s ~key in
        let rec loop () =
          let pred, curr = search h key in
          if (not (is_tail h curr)) && S.read_key h.s ~via:curr = key then begin
            S.retire h.s new_node;  (* line 34 *)
            false
          end
          else begin
            S.write h.s ~via:new_node ~field:next (Word.unmark curr);
            if S.cas h.s ~via:pred ~field:next ~expected:curr ~desired:new_node
            then true
            else loop ()
          end
        in
        loop ())

  (* Lines 39-53. *)
  let delete h key =
    S.with_op h.s (fun () ->
        let rec loop () =
          let pred, curr = search h key in
          if is_tail h curr || S.read_key h.s ~via:curr <> key then false
          else begin
            let succ = S.read h.s ~via:curr ~field:next in
            if marked succ then loop ()  (* line 46 *)
            else if
              not
                (S.cas h.s ~via:curr ~field:next ~expected:succ
                   ~desired:(Word.mark succ))
            then loop ()  (* line 49 *)
            else begin
              (if
                 not
                   (S.cas h.s ~via:pred ~field:next ~expected:curr
                      ~desired:succ)
               then
                 (* line 51: let search unlink the marked node *)
                 ignore (search h key));
              S.retire h.s curr;  (* line 52 *)
              true
            end
          end
        in
        loop ())

  (* Lines 23-26. *)
  let contains h key =
    S.with_op h.s (fun () ->
        let _, curr = search h key in
        if is_tail h curr then false
        else
          (not (marked (S.read h.s ~via:curr ~field:next)))
          && S.read_key h.s ~via:curr = key)

  let ops h ~record : Set_intf.ops =
    if record then
      {
        insert =
          (fun k ->
            Set_intf.record h.ctx ~name:"insert" [ k ] (fun () -> insert h k));
        delete =
          (fun k ->
            Set_intf.record h.ctx ~name:"delete" [ k ] (fun () -> delete h k));
        contains =
          (fun k ->
            Set_intf.record h.ctx ~name:"contains" [ k ] (fun () ->
                contains h k));
        quiesce = (fun () -> S.quiesce h.s);
      }
    else
      {
        insert = (fun k -> insert h k);
        delete = (fun k -> delete h k);
        contains = (fun k -> contains h k);
        quiesce = (fun () -> S.quiesce h.s);
      }

  let to_list h =
    S.with_op h.s @@ fun () ->
    S.read_phase h.s (fun () ->
        let rec walk w acc =
          if is_tail h w then List.rev acc
          else
            let w = Word.unmark w in
            let nxt = S.read h.s ~via:w ~field:next in
            let acc =
              if marked nxt then acc
              else S.read_key h.s ~via:w :: acc
            in
            walk nxt acc
        in
        walk (S.read h.s ~via:h.dl.head ~field:next) [])
end
