(** Native interval-based reclamation (2GE): birth epochs stamped at
    allocation, per-domain [lo, hi] reservations, interval-disjointness
    scans.

    Retired nodes sit in per-domain {!Limbo} bags tagged with their
    retire epoch (pushes seal a bag whenever the tag changes, so a bag
    groups exactly one retire epoch); the birth epoch travels on the
    node itself. A scan compacts the bags in place under the
    interval-disjointness predicate — retire and scan are
    allocation-free. *)

let name = "ibr"
let allocs_per_epoch = 64
let scan_threshold = 64

type dstate = {
  limbo : Limbo.t;
  pool : Limbo.Pool.t;
  mutable max_backlog : int;
  mutable reclaimed : int;
  mutable retired_total : int;
  mutable scans : int;
}

type t = {
  ndomains : int;
  epoch : int Atomic.t;
  allocs : int Atomic.t;
  resv_lo : int Atomic.t array;
  resv_hi : int Atomic.t array;
  domains : dstate array;
  mutable flight : Era_obs.Flight.t;
}

type tctx = {
  g : t;
  d : int;
  ds : dstate;
  fl : Era_obs.Flight.handle;
}

let create ~ndomains =
  {
    ndomains;
    epoch = Atomic.make 0;
    allocs = Atomic.make 0;
    resv_lo = Array.init (ndomains * Nsmr.pad) (fun _ -> Atomic.make max_int);
    resv_hi = Array.init (ndomains * Nsmr.pad) (fun _ -> Atomic.make min_int);
    domains =
      Array.init ndomains (fun _ ->
          { limbo = Limbo.create (); pool = Limbo.Pool.create ();
            max_backlog = 0; reclaimed = 0; retired_total = 0; scans = 0 });
    flight = Era_obs.Flight.null;
  }

let attach_flight g f = g.flight <- f

let thread g d =
  { g; d; ds = g.domains.(d); fl = Era_obs.Flight.handle g.flight d }
let lo t = t.g.resv_lo.(Nsmr.padded_index t.d)
let hi t = t.g.resv_hi.(Nsmr.padded_index t.d)

let current_epoch g = Atomic.get g.epoch

let begin_op t =
  let e = Atomic.get t.g.epoch in
  Atomic.set (lo t) e;
  Atomic.set (hi t) e

let end_op t =
  Atomic.set (lo t) max_int;
  Atomic.set (hi t) min_int

let alloc t key =
  let g = t.g in
  let a = Atomic.fetch_and_add g.allocs 1 in
  if a mod allocs_per_epoch = 0 then begin
    let e = Atomic.fetch_and_add g.epoch 1 in
    Era_obs.Flight.advance t.fl (e + 1)
  end;
  let n = Nnode.recycle (Limbo.Pool.take t.ds.pool) ~key in
  Nnode.set_birth n (Atomic.get g.epoch);
  n

let intersects g ~birth ~retire_epoch =
  let conflict = ref false in
  for d = 0 to g.ndomains - 1 do
    let l = Atomic.get g.resv_lo.(Nsmr.padded_index d) in
    let h = Atomic.get g.resv_hi.(Nsmr.padded_index d) in
    if l <= retire_epoch && birth <= h then conflict := true
  done;
  !conflict

(* Compact the limbo bags in place: nodes whose [birth, retire] interval
   intersects some reservation stay; the rest go straight to the pool.
   The retire epoch is the bag tag, the birth rides on the node. *)
let scan t =
  let g = t.g in
  let ds = t.ds in
  ds.scans <- ds.scans + 1;
  let freed =
    Limbo.sweep ds.limbo
      ~keep:(fun retire_epoch n ->
        intersects g ~birth:n.Nnode.birth ~retire_epoch)
      ~free:(fun n -> Limbo.Pool.put ds.pool n)
  in
  ds.reclaimed <- ds.reclaimed + freed;
  Era_obs.Flight.sweep t.fl freed;
  Era_obs.Flight.backlog t.fl ~domain:t.d (Limbo.size ds.limbo)

let retire t n =
  let ds = t.ds in
  Limbo.push ds.limbo ~tag:(Atomic.get t.g.epoch) n;
  ds.retired_total <- ds.retired_total + 1;
  Era_obs.Flight.retire t.fl;
  let backlog = Limbo.size ds.limbo in
  if backlog > ds.max_backlog then ds.max_backlog <- backlog;
  if backlog >= scan_threshold then scan t

let read_link t n =
  Atomic.set (hi t) (Atomic.get t.g.epoch);
  Nnode.get n

let in_pool t n = Limbo.Pool.mem t.ds.pool n

let backlog g =
  Array.fold_left (fun a d -> a + Limbo.size d.limbo) 0 g.domains

let domain_backlog g d = Limbo.size g.domains.(d).limbo

let domain_lag g d =
  let l = Atomic.get g.resv_lo.(Nsmr.padded_index d) in
  if l = max_int then 0 else max 0 (Atomic.get g.epoch - l)

let max_backlog g =
  Array.fold_left (fun a d -> max a d.max_backlog) 0 g.domains

let reclaimed g = Array.fold_left (fun a d -> a + d.reclaimed) 0 g.domains

let stats g =
  Array.fold_left
    (fun (s : Nsmr.stats) d ->
      {
        Nsmr.retired = s.retired + d.retired_total;
        reclaimed = s.reclaimed + d.reclaimed;
        backlog = s.backlog + Limbo.size d.limbo;
        max_backlog = max s.max_backlog d.max_backlog;
        scans = s.scans + d.scans;
      })
    { Nsmr.retired = 0; reclaimed = 0; backlog = 0; max_backlog = 0; scans = 0 }
    g.domains
