(* Footprints and sleep sets for dynamic partial-order reduction.

   A quantum's footprint summarizes the shared locations it touched, as
   observed through the monitor's event hooks. Two quanta are
   independent (they commute) when their footprints do not conflict;
   sleep sets use that relation to skip sibling subtrees that are
   guaranteed to be Mazurkiewicz-equivalent to already-explored ones.

   The encoding is deliberately conservative wherever the hooks cannot
   see everything:

   - Heap accesses ([Access]/[Key_read]) carry (addr, field, kind) and
     get precise per-location entries. Pointer and aux fields share one
     field-code space (the [Access] event does not distinguish them), so
     ptr field [k] and aux field [k] alias — a false conflict, never a
     missed one.
   - Allocator traffic ([Alloc]/[Retire]/[Reclaim]/[Share]) writes both
     a whole-cell location (conflicting with any access to that address)
     and the global pseudo-location (free list, monitor counters — the
     robustness watcher reads the retired count).
   - Scheme-state events ([Protect]/[Epoch]/[Neutralize]) and
     stall/resume write the global pseudo-location: hazard arrays,
     epoch counters etc. live outside the simulated heap, so per-slot
     precision is not observable here.
   - Operation events ([Invoke]/[Response]) write the history
     pseudo-location: their cross-thread order is the real-time order
     the linearizability check judges, so two quanta that both start or
     end an operation never commute.
   - A quantum that emitted nothing attributable besides history
     entries gets a global write: schemes also mutate invisible state on
     event-free quanta (e.g. HP clearing its slots after a bare fence),
     and treating such quanta as independent of everything would be
     unsound.

   Conservative entries only cost reduction, never soundness: a false
   conflict wakes a sleeping thread early, re-exploring an equivalent
   interleaving. *)

module Event = Era_sim.Event
module Vec = Era_sim.Vec

type footprint = int array

(* Entry layout: [loc * 2 + is_write] with [loc = (addr + 1) * 10 +
   fcode]; [loc = 0] is the global pseudo-location and [loc = 1] the
   history one (no cell has address -1, and locations below 10 never
   alias a cell's whole-cell entry). *)
let fc_field f = f land 7 (* per-field code, 0..7 *)
let fc_key = 8
let fc_all = 9 (* whole-cell: alloc / retire / reclaim / share *)
let pack ~addr ~fcode ~w = (((((addr + 1) * 10) + fcode) * 2) + w : int)
let global_write = 1 (* loc 0, write *)
let history_write = 3 (* loc 1, write *)

let entry_conflicts a b =
  (a land 1 <> 0 || b land 1 <> 0)
  &&
  let la = a lsr 1 and lb = b lsr 1 in
  la = lb
  ||
  let aa = la / 10 and ab = lb / 10 in
  aa = ab && aa <> 0 && (la mod 10 = fc_all || lb mod 10 = fc_all)

let conflicts (f1 : footprint) (f2 : footprint) =
  let n1 = Array.length f1 and n2 = Array.length f2 in
  let rec outer i =
    i < n1
    &&
    let rec inner j = j < n2 && (entry_conflicts f1.(i) f2.(j) || inner (j + 1)) in
    inner 0 || outer (i + 1)
  in
  outer 0

(* ------------------------------------------------------------------ *)
(* Building footprints from the event stream                          *)
(* ------------------------------------------------------------------ *)

(* The builder is an int Vec the explorer's monitor hook pushes into;
   [finalize] cuts a footprint and resets it for the next quantum. *)
type builder = int Vec.t

let builder () : builder = Vec.create ()
let reset (b : builder) = Vec.clear b

let record (b : builder) (ev : Event.t) =
  match ev with
  | Access { addr; field; kind; _ } ->
    let w = match kind with
      | Event.Write | Event.Cas true -> 1
      | Event.Read | Event.Cas false -> 0
    in
    Vec.push b (pack ~addr ~fcode:(fc_field field) ~w)
  | Key_read { addr; _ } -> Vec.push b (pack ~addr ~fcode:fc_key ~w:0)
  | Alloc { addr; _ } | Retire { addr; _ } | Reclaim { addr; _ }
  | Share { addr; _ } ->
    Vec.push b (pack ~addr ~fcode:fc_all ~w:1);
    Vec.push b global_write
  | Protect _ | Epoch _ | Neutralize _ | Stalled _ | Resumed _ ->
    Vec.push b global_write
  | Invoke _ | Response _ -> Vec.push b history_write
  | Violation _ | Label _ | Note _ -> ()

(* Tags the explorer subscribes the [record] hook to. *)
let tags =
  Event.[
    tag_alloc; tag_share; tag_retire; tag_reclaim; tag_access;
    tag_key_read; tag_protect; tag_epoch; tag_neutralize; tag_stalled;
    tag_resumed; tag_invoke; tag_response;
  ]

let empty_conservative : footprint = [| global_write |]

let finalize (b : builder) : footprint =
  if Vec.length b = 0 then empty_conservative
  else begin
    (* History entries alone leave the quantum unattributed. *)
    if not (Vec.exists (fun e -> e <> history_write) b) then
      Vec.push b global_write;
    let fp = Array.init (Vec.length b) (Vec.get b) in
    Vec.clear b;
    fp
  end

(* ------------------------------------------------------------------ *)
(* Sleep entries                                                      *)
(* ------------------------------------------------------------------ *)

(* A sleeping scheduling alternative: stepping [tid] at the node where
   the entry was created starts a subtree already explored (or covered
   by an equivalent state); the entry stays asleep until an executed
   quantum's footprint conflicts with [fp] — the footprint [tid]'s
   quantum had from that node. *)
type entry = { tid : int; fp : footprint }

(* [wake entries alive fp] clears the alive-bit of every entry whose
   footprint conflicts with [fp]. [alive] is a bitmask over [entries]
   indices. *)
let wake (entries : entry array) alive (fp : footprint) =
  let alive = ref alive in
  for i = 0 to Array.length entries - 1 do
    if (!alive lsr i) land 1 = 1 && conflicts entries.(i).fp fp then
      alive := !alive land lnot (1 lsl i)
  done;
  !alive

(* Tid bitmask of the entries still alive. *)
let tid_mask (entries : entry array) alive =
  let m = ref 0 in
  for i = 0 to Array.length entries - 1 do
    if (alive lsr i) land 1 = 1 then m := !m lor (1 lsl entries.(i).tid)
  done;
  !m

(* Shared accumulator of the edges already explored from one node:
   sibling deviations created together put each other to sleep in
   exploration order (earlier-explored siblings join the group, so
   later-popped siblings start with them asleep). Only the sequential
   search mutates groups — exploration order is ill-defined across
   domains, so parallel modes leave [edges] at its initial content. *)
type group = { mutable edges : entry list }

let group_create e : group = { edges = [ e ] }
let group_add g e = g.edges <- e :: g.edges
let group_edges g = g.edges
