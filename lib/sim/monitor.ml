type mode = [ `Raise | `Record ]

type hook = int -> Event.t -> unit

type t = {
  mode : mode;
  keep_trace : bool;
  events : Event.t Vec.t;
  viols : Event.t Vec.t;
  kind_hooks : hook list array;  (* per Event.tag, newest first *)
  mutable hook_mask : int;  (* bit [tag] set iff kind_hooks.(tag) <> [] *)
  mutable time : int;
  mutable active : int;
  mutable retired : int;
  mutable max_active : int;
  mutable max_retired : int;
}

exception Violation of Event.t

let create ?(mode = `Raise) ?(trace = true) () =
  {
    mode;
    keep_trace = trace;
    events = Vec.create ();
    viols = Vec.create ();
    kind_hooks = Array.make Event.n_tags [];
    hook_mask = 0;
    time = 0;
    active = 0;
    retired = 0;
    max_active = 0;
    max_retired = 0;
  }

let subscribe_tags t tags f =
  List.iter
    (fun tag ->
      if tag < 0 || tag >= Event.n_tags then
        invalid_arg "Monitor.subscribe_tags: bad tag";
      t.kind_hooks.(tag) <- f :: t.kind_hooks.(tag);
      t.hook_mask <- t.hook_mask lor (1 lsl tag))
    tags

let subscribe t f =
  subscribe_tags t (List.init Event.n_tags Fun.id) f

(* Removal is by physical equality on the hook closure, so callers must
   unsubscribe the exact closure they subscribed. *)
let unsubscribe t f =
  for tag = 0 to Event.n_tags - 1 do
    match t.kind_hooks.(tag) with
    | [] -> ()
    | hooks ->
      let hooks' = List.filter (fun g -> g != f) hooks in
      t.kind_hooks.(tag) <- hooks';
      if hooks' = [] then t.hook_mask <- t.hook_mask land lnot (1 lsl tag)
  done

let observed t ~tag =
  t.keep_trace || (t.hook_mask lsr tag) land 1 = 1

let update_counts t (ev : Event.t) =
  match ev with
  | Alloc _ ->
    t.active <- t.active + 1;
    if t.active > t.max_active then t.max_active <- t.active
  | Retire _ ->
    t.active <- t.active - 1;
    t.retired <- t.retired + 1;
    if t.retired > t.max_retired then t.max_retired <- t.retired
  | Reclaim _ -> t.retired <- t.retired - 1
  | Share _ | Access _ | Key_read _ | Violation _ | Invoke _ | Response _
  | Label _ | Protect _ | Epoch _ | Neutralize _ | Stalled _ | Resumed _
  | Note _ ->
    ()

let emit t ev =
  t.time <- t.time + 1;
  update_counts t ev;
  if t.keep_trace then Vec.push t.events ev;
  let tag = Event.tag ev in
  if tag = Event.tag_violation then Vec.push t.viols ev;
  (match t.kind_hooks.(tag) with
  | [] -> ()
  | hooks ->
    (* Dispatch over a stable snapshot. Reading the slot once (lists are
       immutable) means a hook that subscribes or unsubscribes during
       dispatch — auditors detaching on their last event — never
       perturbs the current event's delivery; the mutation takes effect
       from the next event. The timestamp is captured once too: a hook
       that emits a {e nested} event (the explorer's robustness watcher
       emits a [Violation] from inside a [Retire] hook) advances
       [t.time], and re-reading it would hand later hooks of the same
       outer event a shifted timestamp. *)
    let now = t.time in
    List.iter (fun f -> f now ev) hooks);
  match ev, t.mode with
  | Violation _, `Raise -> raise (Violation ev)
  | _ -> ()

(* Fast-path emitters for the two kinds every simulated memory access
   produces. When nobody observes the kind (no trace, no hook) the event
   record is never built: one branch, one counter bump, zero
   allocations. The simulated step clock advances identically either
   way, so seeded executions are unchanged. *)

let emit_access t ~tid ~addr ~node ~field ~kind ~unsafe =
  if t.keep_trace || (t.hook_mask lsr Event.tag_access) land 1 = 1 then
    emit t (Event.Access { tid; addr; node; field; kind; unsafe })
  else t.time <- t.time + 1

let emit_key_read t ~tid ~addr ~node ~unsafe =
  if t.keep_trace || (t.hook_mask lsr Event.tag_key_read) land 1 = 1 then
    emit t (Event.Key_read { tid; addr; node; unsafe })
  else t.time <- t.time + 1

let time t = t.time
let active t = t.active
let retired t = t.retired
let max_active t = t.max_active
let max_retired t = t.max_retired
let violations t = Vec.to_list t.viols
let first_violation t = if Vec.length t.viols = 0 then None else Some (Vec.get t.viols 0)
let violation_count t = Vec.length t.viols
let trace t = Vec.to_list t.events
let find_last t p = Vec.find_last p t.events
