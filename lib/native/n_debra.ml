(** Native DEBRA+: the epoch scheme of {!N_ebr} plus cooperative
    neutralization, so a stalled domain stops pinning the epoch.

    The epoch protocol, packed announcement words and amortized hot path
    are exactly {!N_ebr}'s. What changes is the advance rule: a domain
    observed lagging for more than [patience] consecutive advance
    attempts gets its {e neutralization flag} set and no longer blocks
    the advance. The flagged domain discovers the flag at its next
    {!read_link} — it consumes the flag, hops its announcement to the
    current epoch, returns its not-yet-linked allocations to the pool
    and raises {!Nsmr.Neutralized}, which the data structure's restart
    wrapper turns into a from-the-top re-run of the operation.

    This is a {e cooperative} port of DEBRA+'s OS-signal neutralization
    (Brown, PODC 2015): where the simulated scheme (lib/smr/debra.ml)
    delivers the "signal" synchronously at the next scheduler quantum,
    the native victim keeps executing until its next [read_link]. Two
    mechanisms close the reuse window that latency opens:

    - [read_link] double-checks the flag around the load, so a value
      read concurrently with a neutralization request is discarded, and
      no pointer obtained {e after} the request is ever returned;
    - bag-freeing resets each node's link to a fresh record
      before pooling it, so a CAS the victim attempts with a stale
      expected link (read before the request) fails on physical
      inequality instead of corrupting a pooled node.

    Plain field reads ([key], mark bits) between the victim's last
    [read_link] and its flag check are the simulated signal latency;
    they are memory-safe (the pool preserves the node type) and every
    structural mutation is a CAS that fails on recycled nodes, but a
    [contains] completing inside that window can report a stale answer.
    Linearizability under neutralization is adjudicated in the simulated
    stack (where delivery is synchronous and the explorer's lincheck
    finds the restart-past-linearization counterexample); the native
    rows measure cost, and the native tests assert the safety
    properties: no pooled-node dereference hand-off, bounded backlog
    under a stall. *)

let name = "debra"
let default_amortize = 32

let patience = 3
(* Consecutive blocked advance attempts (per observer) before the
   laggard is flagged. Small: E9-style stalls should unblock within a
   few slow paths. *)

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
  flag : int Atomic.t array;  (* neutralization requests; padded *)
  neutralizations : int Atomic.t;  (* flags raised (by observers) *)
  restarts : int Atomic.t;  (* flags consumed via Neutralized *)
  domains : dstate array;
  mutable flight : Era_obs.Flight.t;
}

type tctx = {
  g : t;
  d : int;
  ds : dstate;
  ann : int Atomic.t;  (* cached announce slot — read_link is hot *)
  flg : int Atomic.t;  (* cached flag slot *)
  lag : int array;
      (* per-observer consecutive-block counters, one per observed
         domain; private to this context, so patience needs no
         cross-domain synchronisation *)
  mutable fresh : Nnode.node list;
      (* nodes allocated by the in-progress operation and not yet
         retired; provably unlinked at every point [read_link] can
         raise, so the neutralization path returns them to the pool *)
  fl : Era_obs.Flight.handle;
  mutable restarting : bool;
      (* a neutralization restart span is open; closed by the end_op
         that completes the re-run *)
}

let create_with ?(amortize = default_amortize) ~ndomains () =
  if amortize < 1 || amortize land (amortize - 1) <> 0 then
    invalid_arg "N_debra.create_with: amortize must be a power of two";
  {
    ndomains;
    amortize_mask = amortize - 1;
    epoch = Atomic.make 0;
    announce = Array.init (ndomains * Nsmr.pad) (fun _ -> Atomic.make 0);
    flag = Array.init (ndomains * Nsmr.pad) (fun _ -> Atomic.make 0);
    neutralizations = Atomic.make 0;
    restarts = Atomic.make 0;
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
  {
    g; d; ds = g.domains.(d);
    ann = g.announce.(Nsmr.padded_index d);
    flg = g.flag.(Nsmr.padded_index d);
    lag = Array.make g.ndomains 0;
    fresh = [];
    fl = Era_obs.Flight.handle g.flight d;
    restarting = false;
  }

let announce_slot t = t.ann
let flag_slot t = t.flg

(* A slot blocks the advance from [e] iff its active bit is set, its
   announced epoch is behind [e] and it is not flagged. A laggard
   observed blocking for more than [patience] consecutive attempts gets
   flagged — from then on the advance treats it as neutralized. *)
let try_advance t =
  let g = t.g in
  let e = Atomic.get g.epoch in
  let ok = ref true in
  for d = 0 to g.ndomains - 1 do
    let a = Atomic.get g.announce.(Nsmr.padded_index d) in
    if a land 1 = 1 && a asr 1 < e then begin
      if Atomic.get g.flag.(Nsmr.padded_index d) = 1 then ()
      else begin
        let l = t.lag.(d) + 1 in
        t.lag.(d) <- l;
        if l > patience then begin
          Atomic.set g.flag.(Nsmr.padded_index d) 1;
          Atomic.incr g.neutralizations;
          Era_obs.Flight.flag t.fl ~victim:d;
          t.lag.(d) <- 0
        end
        else ok := false
      end
    end
    else t.lag.(d) <- 0
  done;
  if !ok then ignore (Atomic.compare_and_set g.epoch e (e + 1))

(* The cooperative "signal handler": consume the request, hop to the
   current epoch (we block nobody), return not-yet-linked allocations to
   the pool, and unwind to the operation's restart wrapper. *)
let neutralize t =
  Atomic.set (flag_slot t) 0;
  let e = Atomic.get t.g.epoch in
  t.ds.ann_idle <- e lsl 1;
  t.ds.ann_active <- (e lsl 1) lor 1;
  Atomic.set (announce_slot t) t.ds.ann_active;
  List.iter (fun n -> Limbo.Pool.put t.ds.pool n) t.fresh;
  t.fresh <- [];
  Atomic.incr t.g.restarts;
  (* The restart span stays open until the re-run's end_op; repeated
     neutralizations inside one logical operation extend the same
     span. *)
  if not t.restarting then begin
    t.restarting <- true;
    Era_obs.Flight.restart_begin t.fl
  end;
  raise Nsmr.Neutralized

let slow_path t =
  let g = t.g and ds = t.ds in
  Era_obs.Flight.slow_path t.fl;
  let e = Atomic.get g.epoch in
  if e lsl 1 <> ds.ann_idle then begin
    ds.ann_idle <- e lsl 1;
    ds.ann_active <- (e lsl 1) lor 1;
    Atomic.set (announce_slot t) ds.ann_active
  end;
  try_advance t;
  let e' = Atomic.get g.epoch in
  if e' > e then Era_obs.Flight.advance t.fl e';
  let horizon = e' - 2 in
  let freed =
    Limbo.free_le ds.limbo ~horizon ~free:(fun n ->
        (* Fail-safe for neutralized laggards: a fresh link record
           means any CAS still holding a pre-neutralization expected
           link fails on physical inequality (see the module note). *)
        Limbo.Pool.put ds.pool (Nnode.recycle n ~key:n.Nnode.key))
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

let end_op t =
  Atomic.set (announce_slot t) t.ds.ann_idle;
  t.fresh <- [];
  if t.restarting then begin
    t.restarting <- false;
    Era_obs.Flight.restart_end t.fl
  end;
  (* A request that lands after the operation finished is stale: the
     next operation starts from the current epoch anyway. Consume it
     silently, mirroring the simulated scheme's end_op. *)
  if Atomic.get (flag_slot t) = 1 then Atomic.set (flag_slot t) 0

let alloc t key =
  let n = Nnode.recycle (Limbo.Pool.take t.ds.pool) ~key in
  t.fresh <- n :: t.fresh;
  n

let retire t n =
  let ds = t.ds in
  (* A retired node is out of our hands; it must not ride the fresh list
     into a double hand-off to the pool on a later restart. *)
  (match t.fresh with
  | [] -> ()
  | fresh -> t.fresh <- List.filter (fun m -> m != n) fresh);
  (* Fresh epoch read — the cached epoch is NOT a safe retire tag (see
     N_ebr's note). *)
  Limbo.push ds.limbo ~tag:(Atomic.get t.g.epoch) n;
  ds.retired <- ds.retired + 1;
  Era_obs.Flight.retire t.fl;
  let backlog = Limbo.size ds.limbo in
  if backlog > ds.max_backlog then ds.max_backlog <- backlog

(* Double-checked protected load: never return a pointer obtained after
   a neutralization request, and discard one obtained concurrently with
   it. *)
let read_link t n =
  if Atomic.get (flag_slot t) = 1 then neutralize t;
  let l = Nnode.get n in
  if Atomic.get (flag_slot t) = 1 then neutralize t;
  l

let backlog g =
  Array.fold_left (fun a d -> a + Limbo.size d.limbo) 0 g.domains

let domain_backlog g d = Limbo.size g.domains.(d).limbo

let domain_lag g d =
  let a = Atomic.get g.announce.(Nsmr.padded_index d) in
  if a land 1 = 1 then max 0 (Atomic.get g.epoch - (a asr 1)) else 0

let max_backlog g =
  Array.fold_left (fun a d -> max a d.max_backlog) 0 g.domains

let reclaimed g = Array.fold_left (fun a d -> a + d.reclaimed) 0 g.domains
let neutralizations g = Atomic.get g.neutralizations
let restarts g = Atomic.get g.restarts
let in_pool t n = Limbo.Pool.mem t.ds.pool n

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
