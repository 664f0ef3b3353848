(* Mutex + condvar LIFO work stack with quiescence detection, shared by
   the explorer's domain workers.

   Workers both consume and produce: a run's non-preempting children go
   back onto the same stack (they belong to the same preemption level).
   A level is exhausted when the stack is empty AND no worker is holding
   an item — a worker mid-item may still push children — which is what
   the [active] count tracks. LIFO order keeps the search depth-first,
   so the frontier stays as small as a sequential DFS stack, and with a
   single worker it pops items in exactly that DFS order. [len] is kept
   alongside the list so [take] and [length] stay O(1). *)

type 'a t = {
  m : Mutex.t;
  cond : Condition.t;
  mutable items : 'a list;  (* head = top of the stack *)
  mutable len : int;
  mutable active : int;  (* workers holding an unfinished item *)
  mutable stopped : bool;
}

let create () =
  {
    m = Mutex.create ();
    cond = Condition.create ();
    items = [];
    len = 0;
    active = 0;
    stopped = false;
  }

let push t xs =
  match xs with
  | [] -> ()
  | xs ->
    let n = List.length xs in
    Mutex.lock t.m;
    t.items <- xs @ t.items;
    t.len <- t.len + n;
    Condition.broadcast t.cond;
    Mutex.unlock t.m

(* Blocks until work is available (returning the top item and marking
   the caller active) or the level is over ([None]: stopped, or drained
   with no active worker left to produce more). Every [Some] must be
   matched by exactly one [item_done]. *)
let take t =
  Mutex.lock t.m;
  let rec wait () =
    if t.stopped then None
    else
      match t.items with
      | x :: rest ->
        t.items <- rest;
        t.len <- t.len - 1;
        t.active <- t.active + 1;
        Some x
      | [] ->
        if t.active = 0 then begin
          (* Globally drained: wake the other waiters so they exit too. *)
          Condition.broadcast t.cond;
          None
        end
        else begin
          Condition.wait t.cond t.m;
          wait ()
        end
  in
  let r = wait () in
  Mutex.unlock t.m;
  r

(* Liveness invariant, checked here and relied on by [take]: [active] is
   the number of [take]s not yet matched by an [item_done], every check
   and every wait happens under [t.m], and a waiter only blocks when the
   stack is empty and [active > 0] — so the matching [item_done] (whose
   existence the take/item_done contract guarantees) is still to come
   and will run this broadcast. A waiter can therefore never sleep
   through the last producer retiring. The broadcast is deliberately NOT
   conditioned on stack emptiness: [push] already signals its own
   pushes, but making the wake-up here unconditional keeps [take]'s
   progress argument local — every event a waiter waits for (new items,
   or quiescence) broadcasts, full stop. *)
let item_done t =
  Mutex.lock t.m;
  assert (t.active > 0);
  t.active <- t.active - 1;
  if t.active = 0 then Condition.broadcast t.cond;
  Mutex.unlock t.m

let stop t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.m

let length t =
  Mutex.lock t.m;
  let n = t.len in
  Mutex.unlock t.m;
  n
