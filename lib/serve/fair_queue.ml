(* Round-robin fairness across tenants on one mutex.

   [m] guards everything but the global reservation: a table from each
   tenant {e with queued work} to its FIFO, and a ring holding the same
   tenants with the next one to serve at the front. A submit that finds
   its tenant absent adds it to both; [next] serves the front tenant one
   job and puts it at the back of the ring if it still has work, or
   drops it from ring and table otherwise. Dispatch is O(1) and an idle
   tenant costs nothing, however many distinct names arrive on the wire.

   Every push happens under [m] and signals [work]; a dispatcher waits
   on [work] only after finding the ring empty under [m], so no push can
   slip between its check and its wait. [close] and [close_now] set
   their flags under [m] and broadcast.

   The global cap is an atomic reservation taken {e before} [m], so a
   saturated daemon sheds [`Global_cap] without contending with its
   dispatchers. [in_queue] counts reservations: a submit between its
   reservation and its push (or its release on a tenant-cap or closed
   shed) is counted, which is why {!depth} is a snapshot. *)

type shed = [ `Tenant_cap | `Global_cap | `Closed ]

let shed_reason = function
  | `Tenant_cap -> "tenant-cap"
  | `Global_cap -> "global-cap"
  | `Closed -> "closed"

type 'a t = {
  tenant_cap : int;
  global_cap : int;
  in_queue : int Atomic.t;  (* reserved - dispatched: the global bound *)
  m : Mutex.t;
  work : Condition.t;
  queues : (string, 'a Queue.t) Hashtbl.t;  (* under m; non-empty queues *)
  ring : (string * 'a Queue.t) Queue.t;  (* under m; [queues], in turn *)
  closed : bool Atomic.t;  (* set under m; also read before reserving *)
  mutable now_closed : bool;  (* under m *)
}

let create ?(tenant_cap = 64) ?(global_cap = 256) () =
  {
    tenant_cap = max 1 tenant_cap;
    global_cap = max 1 global_cap;
    in_queue = Atomic.make 0;
    m = Mutex.create ();
    work = Condition.create ();
    queues = Hashtbl.create 8;
    ring = Queue.create ();
    closed = Atomic.make false;
    now_closed = false;
  }

(* Reserve one unit of the global cap. *)
let rec reserve t =
  let s = Atomic.get t.in_queue in
  if s >= t.global_cap then false
  else if Atomic.compare_and_set t.in_queue s (s + 1) then true
  else reserve t

(* Caller holds [m] and a reservation. *)
let push t ~tenant x =
  if Atomic.get t.closed then Error `Closed
  else
    match Hashtbl.find_opt t.queues tenant with
    | Some q when Queue.length q >= t.tenant_cap -> Error `Tenant_cap
    | Some q ->
      Queue.add x q;
      Ok ()
    | None ->
      let q = Queue.create () in
      Queue.add x q;
      Hashtbl.add t.queues tenant q;
      Queue.add (tenant, q) t.ring;
      Ok ()

let submit t ~tenant x =
  if Atomic.get t.closed then Error `Closed
  else if not (reserve t) then Error `Global_cap
  else begin
    Mutex.lock t.m;
    let r = push t ~tenant x in
    (match r with
    | Ok () -> Condition.signal t.work
    | Error _ -> Atomic.decr t.in_queue);
    Mutex.unlock t.m;
    r
  end

let next t =
  Mutex.lock t.m;
  let rec loop () =
    if t.now_closed then None
    else
      match Queue.take_opt t.ring with
      | Some ((tenant, q) as turn) ->
        let x = Queue.take q in
        if Queue.is_empty q then Hashtbl.remove t.queues tenant
        else Queue.add turn t.ring;
        Atomic.decr t.in_queue;
        Some x
      | None when Atomic.get t.closed -> None  (* drained *)
      | None ->
        Condition.wait t.work t.m;
        loop ()
  in
  let r = loop () in
  Mutex.unlock t.m;
  r

let close t =
  Mutex.lock t.m;
  Atomic.set t.closed true;
  Condition.broadcast t.work;
  Mutex.unlock t.m

let close_now t =
  Mutex.lock t.m;
  Atomic.set t.closed true;
  t.now_closed <- true;
  let left =
    List.concat_map
      (fun (_, q) -> List.of_seq (Queue.to_seq q))
      (List.of_seq (Queue.to_seq t.ring))
  in
  Queue.clear t.ring;
  Hashtbl.reset t.queues;
  ignore (Atomic.fetch_and_add t.in_queue (- List.length left) : int);
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  left

let depth t = max 0 (Atomic.get t.in_queue)

let tenants t =
  Mutex.lock t.m;
  let r =
    List.of_seq
      (Seq.map (fun (name, q) -> (name, Queue.length q)) (Queue.to_seq t.ring))
  in
  Mutex.unlock t.m;
  r
