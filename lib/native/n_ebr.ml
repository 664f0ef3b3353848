(** Native epoch-based reclamation, DEBRA-style amortized hot path.

    The global epoch is an [Atomic]; each domain publishes one packed
    announcement word [(epoch lsl 1) lor active_bit]. [begin_op] is two
    stores and a counter test: it re-announces the {e cached} epoch and
    only every [amortize]-th operation takes the slow path (fresh epoch
    read, re-announce, [try_advance], batch reclaim of eligible limbo
    bags). Announcing a stale cached epoch is safe — it is {e more}
    conservative, blocking the epoch advance exactly as a reader at that
    epoch would. Retire tags, by contrast, MUST come from a fresh read
    of the global epoch: tagging with a stale cached value could date an
    unlink before a reader that still holds the unlinked pointer, and
    the bag would free under that reader's feet.

    Retired nodes go into per-domain {!Limbo} bags keyed by retire
    epoch; the bucket of epoch [e] recycles (whole-bag, allocation-free)
    once the global epoch reaches [e + 2]. Cheap reads (no per-access
    protocol) but not robust: a stalled domain pins the epoch and the
    backlog grows with the churn volume (experiment E9). *)

let name = "ebr"
let default_amortize = 32

type dstate = {
  limbo : Limbo.t;
  pool : Limbo.Pool.t;
  mutable ops : int;  (* per-domain op counter for the amortized path *)
  mutable ann_active : int;  (* (cached epoch lsl 1) lor 1 *)
  mutable ann_idle : int;  (* cached epoch lsl 1 *)
  mutable max_backlog : int;
  mutable reclaimed : int;
  mutable retired : int;
  mutable scans : int;  (* slow paths that freed at least one bag *)
}

type t = {
  ndomains : int;
  amortize_mask : int;  (* amortize - 1; amortize is a power of two *)
  epoch : int Atomic.t;
  announce : int Atomic.t array;  (* packed; padded *)
  domains : dstate array;
  mutable flight : Era_obs.Flight.t;
}

type tctx = {
  g : t;
  d : int;
  ds : dstate;
  fl : Era_obs.Flight.handle;
}

let create_with ?(amortize = default_amortize) ~ndomains () =
  if amortize < 1 || amortize land (amortize - 1) <> 0 then
    invalid_arg "N_ebr.create_with: amortize must be a power of two";
  {
    ndomains;
    amortize_mask = amortize - 1;
    epoch = Atomic.make 0;
    announce = Array.init (ndomains * Nsmr.pad) (fun _ -> Atomic.make 0);
    domains =
      Array.init ndomains (fun _ ->
          { limbo = Limbo.create (); pool = Limbo.Pool.create (); ops = 0;
            ann_active = 1; ann_idle = 0; max_backlog = 0; reclaimed = 0;
            retired = 0; scans = 0 });
    flight = Era_obs.Flight.null;
  }

let create ~ndomains = create_with ~ndomains ()
let attach_flight g f = g.flight <- f

let thread g d =
  { g; d; ds = g.domains.(d); fl = Era_obs.Flight.handle g.flight d }

let announce_slot t = t.g.announce.(Nsmr.padded_index t.d)

(* A slot blocks the advance from [e] iff its active bit is set and its
   announced epoch is behind [e]. Idle domains never block. *)
let try_advance g =
  let e = Atomic.get g.epoch in
  let ok = ref true in
  for d = 0 to g.ndomains - 1 do
    let a = Atomic.get g.announce.(Nsmr.padded_index d) in
    if a land 1 = 1 && a asr 1 < e then ok := false
  done;
  if !ok then ignore (Atomic.compare_and_set g.epoch e (e + 1))

let slow_path t =
  let g = t.g and ds = t.ds in
  Era_obs.Flight.slow_path t.fl;
  let e = Atomic.get g.epoch in
  if e lsl 1 <> ds.ann_idle then begin
    (* The epoch moved since we cached it: re-announce fresh so we stop
       blocking the next advance, and update both cached words. *)
    ds.ann_idle <- e lsl 1;
    ds.ann_active <- (e lsl 1) lor 1;
    Atomic.set (announce_slot t) ds.ann_active
  end;
  try_advance g;
  let e' = Atomic.get g.epoch in
  if e' > e then Era_obs.Flight.advance t.fl e';
  let freed =
    Limbo.free_le ds.limbo ~horizon:(e' - 2) ~free:(fun n ->
        Limbo.Pool.put ds.pool n)
  in
  if freed > 0 then begin
    ds.reclaimed <- ds.reclaimed + freed;
    ds.scans <- ds.scans + 1;
    Era_obs.Flight.free t.fl freed
  end;
  Era_obs.Flight.backlog t.fl ~domain:t.d (Limbo.size ds.limbo)

let begin_op t =
  let ds = t.ds in
  Atomic.set (announce_slot t) ds.ann_active;
  let ops = ds.ops + 1 in
  ds.ops <- ops;
  if ops land t.g.amortize_mask = 0 then slow_path t

let end_op t = Atomic.set (announce_slot t) t.ds.ann_idle

let alloc t key = Nnode.recycle (Limbo.Pool.take t.ds.pool) ~key

let retire t n =
  let ds = t.ds in
  (* Fresh epoch read — see the safety note above; the cached epoch is
     NOT safe to use as a retire tag. *)
  Limbo.push ds.limbo ~tag:(Atomic.get t.g.epoch) n;
  ds.retired <- ds.retired + 1;
  Era_obs.Flight.retire t.fl;
  let backlog = Limbo.size ds.limbo in
  if backlog > ds.max_backlog then ds.max_backlog <- backlog

let read_link _ n = Nnode.get n

let backlog g =
  Array.fold_left (fun a d -> a + Limbo.size d.limbo) 0 g.domains

let domain_backlog g d = Limbo.size g.domains.(d).limbo

let domain_lag g d =
  let a = Atomic.get g.announce.(Nsmr.padded_index d) in
  if a land 1 = 1 then max 0 (Atomic.get g.epoch - (a asr 1)) else 0

let max_backlog g =
  Array.fold_left (fun a d -> max a d.max_backlog) 0 g.domains

let reclaimed g = Array.fold_left (fun a d -> a + d.reclaimed) 0 g.domains

let stats g =
  Array.fold_left
    (fun (s : Nsmr.stats) d ->
      {
        Nsmr.retired = s.retired + d.retired;
        reclaimed = s.reclaimed + d.reclaimed;
        backlog = s.backlog + Limbo.size d.limbo;
        max_backlog = max s.max_backlog d.max_backlog;
        scans = s.scans + d.scans;
      })
    { Nsmr.retired = 0; reclaimed = 0; backlog = 0; max_backlog = 0; scans = 0 }
    g.domains
