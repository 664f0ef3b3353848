(* Lock-striped visited-state table over int fingerprints, with a
   sleep-set mask per entry.

   The classic search consults the table once per run (at the deviating
   quantum); the DPOR search consults it at every quantum past the
   deviation. Either way contention is low — distinct fingerprints hit
   distinct stripes — and keys are the already well-mixed
   [Heap.(x)fingerprint ⊕ Monitor.fingerprint ⊕ thread positions]
   hashes, so stripe selection just folds the high bits in.

   Each entry stores the tid bitmask of the sleep set the state was
   visited with. A visit explores every successor NOT in its sleep set,
   so a state is covered for a new visitor iff the stored mask is a
   subset of the new visitor's mask (everything the new visitor would
   explore was already explored). On a non-covered revisit the stored
   mask shrinks to the intersection: after the new visit completes, the
   jointly-unexplored successors are exactly the intersection. A search
   without sleep sets passes [mask = 0], which degenerates to exact
   set-membership semantics: the first visit stores 0, and 0 ⊆ 0 makes
   every revisit covered. *)

type t = {
  stripes : (int, int) Hashtbl.t array;
  locks : Mutex.t array;
  mask : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(stripes = 64) () =
  let n = pow2_at_least (max 1 stripes) 1 in
  {
    stripes = Array.init n (fun _ -> Hashtbl.create 256);
    locks = Array.init n (fun _ -> Mutex.create ());
    mask = n - 1;
  }

let stripe_of t fp = (fp lxor (fp lsr 17) lxor (fp lsr 31)) land t.mask

(* [true] iff [fp] is covered for a visitor carrying sleep-tid-mask
   [mask]; otherwise records the visit (insert, or intersect the stored
   mask) and returns [false]. Atomic per stripe, so two workers reaching
   the same state concurrently agree on exactly one first visitor. *)
let check_covered t fp ~mask =
  let i = stripe_of t fp in
  let l = t.locks.(i) in
  Mutex.lock l;
  let covered =
    match Hashtbl.find_opt t.stripes.(i) fp with
    | Some stored when stored land lnot mask = 0 -> true
    | Some stored ->
      Hashtbl.replace t.stripes.(i) fp (stored land mask);
      false
    | None ->
      Hashtbl.replace t.stripes.(i) fp mask;
      false
  in
  Mutex.unlock l;
  covered

let add t fp = ignore (check_covered t fp ~mask:0)

let size t =
  Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 t.stripes

(* Unsorted; callers sort. Only used for post-search reporting, never on
   the hot path, so locking stripe-by-stripe is fine. *)
let elements t =
  let acc = ref [] in
  Array.iteri
    (fun i h ->
      Mutex.lock t.locks.(i);
      Hashtbl.iter (fun fp _ -> acc := fp :: !acc) h;
      Mutex.unlock t.locks.(i))
    t.stripes;
  !acc
