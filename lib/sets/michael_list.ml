open Era_sim
module Sched = Era_sched.Sched
module Mem = Era_sched.Mem

(* The mark-bit test on every hop, matched in place rather than through
   [Word] (see the note atop heap.ml). Outside the functor, so the
   traversal closures do not capture it. *)
let marked = function Word.Ptr p -> p.marked | Word.Null | Word.Int _ -> false

module Make (S : Era_smr.Smr_intf.S) = struct
  (* The typestate view of the scheme (Smr_intf.GUARD): every memory
     access below takes a [`Pinned] guard, so an access outside an
     operation boundary — or a retire outside the pinned region that
     unlinked the node — does not typecheck. The guard delegates 1:1 to
     [S], so the simulated quanta are identical to the raw interface. *)
  module G = Era_smr.Smr_intf.Guard (S)

  let next = 0

  type t = {
    head : Word.t;
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
    { head; tail_addr = Word.addr_exn tail; scheme }

  let head_word t = t.head
  let handle dl ctx = { dl; s = S.thread dl.scheme ctx; ctx }
  let tctx h = h.s

  (* The tail test on every hop, matched in place rather than through
     [Word] (see the note atop heap.ml). *)
  let is_tail h = function
    | Word.Ptr p -> p.addr = h.dl.tail_addr
    | Word.Null | Word.Int _ -> false

  (* Find the (pred, curr) window for [key], unlinking every marked node
     encountered before stepping over it. The unlink winner retires the
     node (it is the only thread that can have unlinked it). Restarts
     from the head when a CAS loses. *)
  let rec search g h key =
    G.read_phase g (fun () -> search_body g h key)

  and search_body g h key =
    let rec walk pred curr =
      if is_tail h curr then (pred, curr)
      else
        let curr_next = G.read g ~via:curr ~field:next in
        if marked curr_next then begin
          let succ = Word.unmark curr_next in
          G.enter_write_phase g ~reserve:[ pred; curr; succ ];
          if G.cas g ~via:pred ~field:next ~expected:curr ~desired:succ
          then begin
            let (_ : _ G.t) = G.retire (G.stage_retire g curr) in
            (* Restart from the head: keeps the traversal cleanly divided
               into read phases that only dereference pointers obtained in
               the same phase (a conservative variant of Michael's
               continue-from-pred step; the native implementation keeps
               the original). *)
            search g h key
          end
          else search g h key  (* contention: restart from the head *)
        end
        else if G.read_key g ~via:curr < key then walk curr curr_next
        else (pred, curr)
    in
    let first = G.read g ~via:h.dl.head ~field:next in
    walk h.dl.head first

  let insert h key =
    if key = min_int || key = max_int then
      invalid_arg "Michael_list: sentinel key";
    G.with_pin (G.make h.s) (fun g ->
        let new_node = G.alloc g ~key in
        let rec loop () =
          let pred, curr = search g h key in
          if (not (is_tail h curr)) && G.read_key g ~via:curr = key then begin
            let (_ : _ G.t) = G.retire (G.stage_retire g new_node) in
            false
          end
          else begin
            G.write g ~via:new_node ~field:next (Word.unmark curr);
            G.enter_write_phase g ~reserve:[ pred; curr ];
            if G.cas g ~via:pred ~field:next ~expected:curr ~desired:new_node
            then true
            else loop ()
          end
        in
        loop ())

  let delete h key =
    G.with_pin (G.make h.s) (fun g ->
        let rec loop () =
          let pred, curr = search g h key in
          if is_tail h curr || G.read_key g ~via:curr <> key then false
          else begin
            let succ = G.read g ~via:curr ~field:next in
            if marked succ then loop ()
            else begin
              G.enter_write_phase g ~reserve:[ pred; curr ];
              if
                not
                  (G.cas g ~via:curr ~field:next ~expected:succ
                     ~desired:(Word.mark succ))
              then loop ()
              else begin
                (* Unlink winner retires; on failure the node stays
                   linked-but-marked and some traversal's unlink CAS will
                   win and retire it. *)
                if G.cas g ~via:pred ~field:next ~expected:curr ~desired:succ
                then begin
                  let (_ : _ G.t) = G.retire (G.stage_retire g curr) in
                  ()
                end;
                true
              end
            end
          end
        in
        loop ())

  let contains h key =
    G.with_pin (G.make h.s) (fun g ->
        let _, curr = search g h key in
        (not (is_tail h curr)) && G.read_key g ~via:curr = key)

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
        quiesce = (fun () -> G.quiesce (G.make h.s));
      }
    else
      {
        insert = (fun k -> insert h k);
        delete = (fun k -> delete h k);
        contains = (fun k -> contains h k);
        quiesce = (fun () -> G.quiesce (G.make h.s));
      }

  let to_list h =
    G.with_pin (G.make h.s) @@ fun g ->
    G.read_phase g (fun () ->
        let rec walk w acc =
          if is_tail h w then List.rev acc
          else
            let w = Word.unmark w in
            let nxt = G.read g ~via:w ~field:next in
            let acc =
              if marked nxt then acc else G.read_key g ~via:w :: acc
            in
            walk nxt acc
        in
        walk (G.read g ~via:h.dl.head ~field:next) [])
end
