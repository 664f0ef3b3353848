(** Native hazard pointers: per-domain atomic slots, protect-validate
    loads, scan-on-threshold reclamation into a type-preserving pool.
    Backlog bounded by [ndomains * (threshold + slots)].

    Retired nodes sit in per-domain {!Limbo} bags (tag unused); a scan
    snapshots the hazard slots into domain-private scratch and compacts
    the bags in place, so retire and scan are allocation-free. Slots
    hold {!Nnode.nil} when empty rather than [None] — no [Some] box on
    the protect path. *)

let name = "hp"
let slots_per_domain = 3
let scan_threshold = 64

type dstate = {
  limbo : Limbo.t;
  pool : Limbo.Pool.t;
  mutable max_backlog : int;
  mutable reclaimed : int;
  mutable retired_total : int;
  mutable scans : int;
  mutable rot : int;
  hz_buf : Nnode.node array;
      (* per-domain scan scratch: the hazard snapshot; private to the
         owning domain, so scans stay allocation-free and race-free *)
}

type t = {
  ndomains : int;
  hp : Nnode.node Atomic.t array;  (* ndomains * slots, padded; nil = empty *)
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
    hp =
      Array.init
        (ndomains * slots_per_domain * Nsmr.pad)
        (fun _ -> Atomic.make Nnode.nil);
    domains =
      Array.init ndomains (fun _ ->
          { limbo = Limbo.create (); pool = Limbo.Pool.create ();
            max_backlog = 0; reclaimed = 0; retired_total = 0; scans = 0;
            rot = 0;
            hz_buf = Array.make (ndomains * slots_per_domain) Nnode.nil });
    flight = Era_obs.Flight.null;
  }

let attach_flight g f = g.flight <- f

let thread g d =
  { g; d; ds = g.domains.(d); fl = Era_obs.Flight.handle g.flight d }

let slot g d s = g.hp.(((d * slots_per_domain) + s) * Nsmr.pad)

let clear_slots t =
  for s = 0 to slots_per_domain - 1 do
    Atomic.set (slot t.g t.d s) Nnode.nil
  done

let begin_op t =
  t.ds.rot <- 0;
  clear_slots t

let end_op t = clear_slots t

let alloc t key = Nnode.recycle (Limbo.Pool.take t.ds.pool) ~key

(* Snapshot the slots into the domain's scratch array, then compact the
   limbo bags in place: protected nodes stay, the rest go straight to
   the pool. No intermediate lists. *)
let scan t =
  let g = t.g in
  let ds = t.ds in
  ds.scans <- ds.scans + 1;
  let hz = ds.hz_buf in
  let nhz = ref 0 in
  for d = 0 to g.ndomains - 1 do
    for s = 0 to slots_per_domain - 1 do
      let n = Atomic.get (slot g d s) in
      if n != Nnode.nil then begin
        hz.(!nhz) <- n;
        incr nhz
      end
    done
  done;
  let protected_ n =
    let rec probe i = i < !nhz && (hz.(i) == n || probe (i + 1)) in
    probe 0
  in
  let freed =
    Limbo.sweep t.ds.limbo
      ~keep:(fun _tag n -> protected_ n)
      ~free:(fun n -> Limbo.Pool.put ds.pool n)
  in
  ds.reclaimed <- ds.reclaimed + freed;
  Array.fill hz 0 !nhz Nnode.nil;
  Era_obs.Flight.sweep t.fl freed;
  Era_obs.Flight.backlog t.fl ~domain:t.d (Limbo.size ds.limbo)

let retire t n =
  let ds = t.ds in
  Limbo.push ds.limbo ~tag:0 n;
  ds.retired_total <- ds.retired_total + 1;
  Era_obs.Flight.retire t.fl;
  let backlog = Limbo.size ds.limbo in
  if backlog > ds.max_backlog then ds.max_backlog <- backlog;
  if backlog >= scan_threshold then scan t

(* Protect-validate: load the link, publish its target in a rotating
   slot, re-load; retry until stable. *)
let read_link t n =
  let ds = t.ds in
  let rec loop () =
    let l = Nnode.get n in
    if l.Nnode.target == Nnode.nil then l
    else begin
      let s = ds.rot mod slots_per_domain in
      Atomic.set (slot t.g t.d s) l.Nnode.target;
      let l' = Nnode.get n in
      if Nnode.same_target l l' then begin
        ds.rot <- ds.rot + 1;
        l'
      end
      else loop ()
    end
  in
  loop ()

let in_pool t n = Limbo.Pool.mem t.ds.pool n

let backlog g =
  Array.fold_left (fun a d -> a + Limbo.size d.limbo) 0 g.domains

let domain_backlog g d = Limbo.size g.domains.(d).limbo
let domain_lag _ _ = 0 (* no epochs: hazard slots don't lag *)

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
