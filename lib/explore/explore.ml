module Event = Era_sim.Event
module Monitor = Era_sim.Monitor
module Vec = Era_sim.Vec
module Sched = Era_sched.Sched
module Json = Era_metrics.Json

type target = {
  name : string;
  nthreads : int;
  params : (string * int) list;
  robustness_bound : int option;
  make : trace:bool -> Sched.strategy -> Sched.t;
}

type violation_info = {
  v_kind : Event.violation;
  v_tid : int;
  v_step : int;
  v_detail : string;
}

type counterexample = {
  c_target : string;
  c_nthreads : int;
  c_params : (string * int) list;
  c_violation : violation_info;
  c_steps : int list;
  c_script : Sched.instr list;
  c_preemptions : int;
}

type stats = {
  runs : int;
  states : int;
  pruned : int;
  sleep_cuts : int;
  switches : int;
  shrink_runs : int;
  cex_preemptions : int option;
  levels_completed : int;
  failed_runs : int;
  domains_used : int;
  per_domain_runs : int list;
}

type search_result = {
  res_stats : stats;
  res_cex : counterexample option;
  res_schedules : int list;
}

type progress = {
  pg_level : int;
  pg_runs : int;
  pg_states : int;
  pg_frontier : int;
  pg_deferred : int;
  pg_budget_left : int;
  pg_per_domain_runs : int array;
}

type config = {
  max_preemptions : int;
  max_runs : int;
  max_steps : int;
  shrink : bool;
  shrink_budget : int;
  domains : int;
  dpor : bool;
  fault_hook : (int -> unit) option;
  progress_every : int;
  on_progress : (progress -> unit) option;
}

let default_config =
  {
    max_preemptions = 2;
    max_runs = 20_000;
    max_steps = 50_000;
    shrink = true;
    shrink_budget = 50;
    domains = 1;
    dpor = false;
    fault_hook = None;
    progress_every = 0;
    on_progress = None;
  }

type fuzz_report = {
  fz_tries : int;
  fz_found : int;
  fz_first : violation_info option;
}

let violation_of_event ~step = function
  | Event.Violation { tid; kind; detail } ->
    Some { v_kind = kind; v_tid = tid; v_step = step; v_detail = detail }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Schedules as step lists                                            *)
(* ------------------------------------------------------------------ *)

let script_of_steps steps =
  let rec go acc = function
    | [] -> List.rev acc
    | t :: rest -> (
      match acc with
      | Sched.Run (t', n) :: acc' when t' = t ->
        go (Sched.Run (t, n + 1) :: acc') rest
      | _ -> go (Sched.Run (t, 1) :: acc) rest)
  in
  go [] steps

(* A switch away from a thread whose tid occurs again later in the list:
   from the steps alone a tid's final occurrence is indistinguishable
   from the thread finishing, so switches after it count as free. *)
let preemptions_of_steps steps =
  let arr = Array.of_list steps in
  let last_occ = Hashtbl.create 8 in
  Array.iteri (fun i t -> Hashtbl.replace last_occ t i) arr;
  let p = ref 0 in
  for i = 1 to Array.length arr - 1 do
    if arr.(i) <> arr.(i - 1) && Hashtbl.find last_occ arr.(i - 1) > i - 1
    then incr p
  done;
  !p

(* ------------------------------------------------------------------ *)
(* Watchers                                                           *)
(* ------------------------------------------------------------------ *)

(* Install the violation recorder (first violation, with its quantum
   index) and, when the target asks for one, the robustness watcher that
   turns a retired backlog crossing the bound into a
   [Robustness_exceeded] violation event — Definitions 5.1/5.2 made
   executable: a thread the schedule is currently not running is a
   potentially-delayed thread, so a backlog beyond the bound under some
   schedule is exactly non-robustness. Returns the violation cell. *)
let install_watchers target sched =
  let mon = Sched.monitor sched in
  let viol = ref None in
  Monitor.subscribe_tags mon [ Event.tag_violation ] (fun _ ev ->
      if !viol = None then
        viol := violation_of_event ~step:(Sched.total_steps sched) ev);
  (match target.robustness_bound with
  | None -> ()
  | Some bound ->
    let fired = ref false in
    Monitor.subscribe_tags mon [ Event.tag_retire ] (fun _ _ ->
        if (not !fired) && Monitor.retired mon > bound then begin
          fired := true;
          let tid = max 0 (Sched.current_tid sched) in
          Monitor.emit mon
            (Event.Violation
               {
                 tid;
                 kind = Event.Robustness_exceeded;
                 detail =
                   Fmt.str "retired backlog %d exceeded robustness bound %d"
                     (Monitor.retired mon) bound;
               })
        end));
  viol

(* ------------------------------------------------------------------ *)
(* Run records, work items, per-worker scratch                        *)
(* ------------------------------------------------------------------ *)

(* Reusable int buffer: the per-quantum and per-choice-point recording
   of a run goes through these, so a run's bookkeeping allocates only
   the copy of its choices that its children share (and only for runs
   that emit a child). *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }
  let clear b = b.len <- 0

  let push b v =
    if b.len = Array.length b.a then begin
      let na = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 na 0 b.len;
      b.a <- na
    end;
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len

  let to_list b =
    let rec go i acc = if i < 0 then acc else go (i - 1) (b.a.(i) :: acc) in
    go (b.len - 1) []
end

(* Decision records are packed ints: the low [mask_bits] hold the
   runnable-tid bitmask of the choice point, the high bits hold
   [prev + 1] — the tid of the preceding quantum (0 encodes "none": the
   run's first quantum). One int per choice point instead of a
   3-field record holding a list. *)
let mask_bits = 48
let low_mask = (1 lsl mask_bits) - 1

(* A unit of search work: "replay [it_choices.(0 .. it_dev - 1)], choose
   [it_alt] at choice point [it_dev], then follow the deterministic
   default". The choices array is the {e parent} run's record, shared by
   reference among all its children — materializing per-child prefix
   arrays was the dominant cost of the previous explorer (O(depth) per
   child, ~3/4 of search time on the Figure 2 cell). *)
type item = {
  it_choices : int array;
  it_dev : int;  (* -1 for the root item (empty prefix) *)
  it_alt : int;
  it_sleep : Sleep_set.entry array;  (* DPOR: entries asleep at it_dev *)
  it_group : Sleep_set.group option;  (* DPOR: sibling group at it_dev *)
}

let root_item =
  {
    it_choices = [||];
    it_dev = -1;
    it_alt = -1;
    it_sleep = [||];
    it_group = None;
  }

(* What a run leaves behind besides its scratch buffers. The per-choice
   records (chosen tid, packed runnable mask and previous tid, and in
   DPOR mode the awake mask, alive mask and footprint) stay in the
   worker's scratch: [iter_children] reads them there, before the
   worker's next run overwrites them. *)
type run_record = {
  ru_plen : int;  (* prefix length: it_dev + 1 *)
  ru_entries : Sleep_set.entry array;  (* DPOR: the run's sleep entries *)
  ru_violation : violation_info option;
  ru_steps : int list;  (* tids in execution order; only on violation *)
  ru_sleep_cut : bool;  (* cut with every runnable thread asleep *)
  ru_schedule : int;  (* hash of the run's full choice sequence *)
  ru_quanta : int;
  ru_switches : int;
}

(* Per-worker scratch. One per domain; a [Sched.t] and its heap are
   single-domain objects, and so is this. *)
type scratch = {
  s_info : Ibuf.t;  (* packed runnable mask + prev tid per choice point *)
  s_choices : Ibuf.t;  (* chosen tid per choice point *)
  s_awake : Ibuf.t;  (* DPOR: non-sleeping runnable mask per point *)
  s_alive : Ibuf.t;  (* DPOR: alive bitmask over the run's entries *)
  s_steps : Ibuf.t;
  s_fps : Sleep_set.footprint Vec.t;  (* DPOR: chosen quantum footprints *)
  s_builder : Sleep_set.builder;
}

let scratch () =
  {
    s_info = Ibuf.create ();
    s_choices = Ibuf.create ();
    s_awake = Ibuf.create ();
    s_alive = Ibuf.create ();
    s_steps = Ibuf.create ();
    s_fps = Vec.create ();
    s_builder = Sleep_set.builder ();
  }

(* Sleep entries carried into one run are capped so the alive set fits
   one immediate int bitmask. Dropping an entry is always sound — it
   only costs reduction. *)
let max_sleep_entries = 62

(* A run's schedule identity: FNV-style hash over its choice sequence
   (the chosen tid at every choice point, replayed prefix included).
   Forced quanta — one runnable thread — are not choices, so two runs
   hash equal exactly when they made the same decisions, up to hash
   collisions. *)
let schedule_hash (b : Ibuf.t) =
  let h = ref (0x811c9dc5 lxor b.len) in
  for i = 0 to b.len - 1 do
    h := (!h lxor b.a.(i)) * 0x100000001b3
  done;
  !h

(* ------------------------------------------------------------------ *)
(* One controlled run                                                 *)
(* ------------------------------------------------------------------ *)

(* Execute one work item's schedule: replay the parent's choices up to
   the deviation, take the deviating choice, then follow the
   deterministic non-preemptive default (keep running the current
   thread; on its completion, the lowest runnable tid — in DPOR mode,
   the lowest {e awake} runnable tid).

   Classic mode ([dpor = false]) runs every such schedule to its end.
   DPOR mode layers sleep sets on top, driven by the per-quantum
   footprints observed through the monitor hooks:
   - {e wake-ups}: every executed quantum past the deviation wakes the
     sleep entries whose footprints it conflicts with;
   - {e sleep cuts}: a configuration whose every runnable thread is
     asleep is fully covered by already-explored siblings — end the run.

   [mutate_groups] gates reporting the deviating quantum's footprint to
   the item's sibling group: a single-worker search accumulates explored
   siblings there (later-popped siblings then start with them asleep);
   a multi-worker search leaves groups frozen at the parent-chosen edge,
   because "explored earlier" is not well-defined across domains —
   a sound, smaller sleep set.

   [cancel] is polled once per quantum so a first-violation latch can
   cut in-flight runs short across domain workers. *)
let run_one target ~dpor ~mutate_groups ~max_steps ~cancel ~item sc =
  Ibuf.clear sc.s_info;
  Ibuf.clear sc.s_choices;
  Ibuf.clear sc.s_awake;
  Ibuf.clear sc.s_alive;
  Ibuf.clear sc.s_steps;
  Vec.clear sc.s_fps;
  Sleep_set.reset sc.s_builder;
  let plen = item.it_dev + 1 in
  let entries =
    if not dpor then [||]
    else begin
      (* Inherited entries (alive at the deviation node, pre-compacted
         by the enumerator) plus the sibling group's explored edges,
         read once at run start. The deviating tid itself can never be
         asleep — it was picked from the awake set and siblings have
         distinct alts — but filtering is cheap insurance. *)
      let group_edges =
        match item.it_group with
        | None -> []
        | Some g -> Sleep_set.group_edges g
      in
      let all = Array.to_list item.it_sleep @ group_edges in
      let all =
        List.filter (fun (e : Sleep_set.entry) -> e.tid <> item.it_alt) all
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | e :: tl -> e :: take (n - 1) tl
      in
      Array.of_list (take max_sleep_entries all)
    end
  in
  let alive = ref ((1 lsl Array.length entries) - 1) in
  let nsteps = ref 0 in
  let ndec = ref 0 in
  let last = ref (-1) in
  let sleep_cut = ref false in
  let after_dev = ref (plen = 0) in
  let pending_fp_at = ref (-1) in
  let group_reported = ref false in
  (* Re-bound after [make] installs the real cell; the controller only
     reads it once the run is underway. *)
  let viol = ref (ref None) in
  let push tid =
    Ibuf.push sc.s_steps tid;
    incr nsteps;
    last := tid
  in
  let store_fp f =
    if !pending_fp_at >= 0 then begin
      Vec.set sc.s_fps !pending_fp_at f;
      if !pending_fp_at = plen - 1 && not !group_reported then begin
        group_reported := true;
        match item.it_group with
        | Some g when mutate_groups ->
          Sleep_set.group_add g { Sleep_set.tid = item.it_alt; fp = f }
        | _ -> ()
      end;
      pending_fp_at := -1
    end
  in
  let pick sched =
    (* Footprint epilogue of the quantum that just ran. Before the
       deviation the builder is merely drained: those quanta replay the
       parent's execution, whose wakes are already reflected in the
       inherited alive mask — re-applying them here would wake entries
       against quanta that precede their creation point. *)
    if dpor && !nsteps > 0 then begin
      if !after_dev || !pending_fp_at = plen - 1 then begin
        let f = Sleep_set.finalize sc.s_builder in
        store_fp f;
        if !after_dev && !alive <> 0 then
          alive := Sleep_set.wake entries !alive f
      end
      else begin
        Sleep_set.reset sc.s_builder;
        pending_fp_at := -1
      end
    end;
    if !sleep_cut || !(!viol) <> None || !nsteps >= max_steps || cancel ()
    then -1
    else begin
      (* The runnable set is the scheduler's mask, read without a scan.
         An empty one ends the run and an all-asleep one is a sleep cut.
         A single bit is a forced quantum, not a choice point, so it is
         not recorded. Otherwise the tid comes from the prefix being
         replayed, else the running thread if awake, else the lowest
         awake tid. *)
      let rmask = Sched.runnable_mask sched in
      let awake =
        if dpor && !after_dev then
          rmask land lnot (Sleep_set.tid_mask entries !alive)
        else rmask
      in
      if rmask = 0 then -1
      else if awake = 0 then begin
        sleep_cut := true;
        -1
      end
      else if rmask land (rmask - 1) = 0 then begin
        let t = Sched.lowest_tid rmask in
        push t;
        t
      end
      else begin
        let chosen =
          if !ndec < plen then
            if !ndec = item.it_dev then item.it_alt
            else item.it_choices.(!ndec)
          else if !last >= 0 && (awake lsr !last) land 1 = 1 then !last
          else Sched.lowest_tid awake
        in
        if chosen < 0 || chosen >= mask_bits || (rmask lsr chosen) land 1 = 0
        then
          invalid_arg
            (Fmt.str
               "Explore: target %S is not schedule-deterministic (prefix \
                tid %d not runnable at choice point %d)"
               target.name chosen !ndec);
        Ibuf.push sc.s_info (rmask lor ((!last + 1) lsl mask_bits));
        Ibuf.push sc.s_choices chosen;
        if dpor then begin
          Ibuf.push sc.s_awake awake;
          Ibuf.push sc.s_alive !alive;
          Vec.push sc.s_fps [||];
          pending_fp_at := !ndec
        end;
        incr ndec;
        if !ndec = plen then after_dev := true;
        push chosen;
        chosen
      end
    end
  in
  let sched = target.make ~trace:false (Sched.Controlled pick) in
  if Sched.nthreads sched > mask_bits then
    invalid_arg
      (Fmt.str "Explore: at most %d threads supported (target has %d)"
         mask_bits (Sched.nthreads sched));
  if dpor then
    Monitor.subscribe_tags (Sched.monitor sched) Sleep_set.tags (fun _ ev ->
        Sleep_set.record sc.s_builder ev);
  viol := install_watchers target sched;
  ignore (Sched.run sched);
  (* The last quantum's footprint may still be pending (the run ended
     without another pick): the sibling-group report must not be lost. *)
  if dpor && !pending_fp_at >= 0 then
    store_fp (Sleep_set.finalize sc.s_builder);
  let v =
    match !(!viol) with
    | Some _ as v -> v
    | None ->
      (* a violation emitted during setup, before the watcher existed *)
      Option.bind (Monitor.first_violation (Sched.monitor sched))
        (violation_of_event ~step:0)
  in
  (* Nothing is copied out here: the choice records stay in [sc] for
     [iter_children], which copies the choices only once it emits a
     child. *)
  {
    ru_plen = plen;
    ru_entries = entries;
    ru_violation = v;
    ru_steps = (if v = None then [] else Ibuf.to_list sc.s_steps);
    ru_sleep_cut = !sleep_cut;
    ru_schedule = schedule_hash sc.s_choices;
    ru_quanta = !nsteps;
    ru_switches = Sched.switches sched;
  }

(* ------------------------------------------------------------------ *)
(* Child enumeration                                                  *)
(* ------------------------------------------------------------------ *)

let compact_entries (entries : Sleep_set.entry array) am =
  let n = Sched.popcount am in
  if n = 0 then [||]
  else begin
    let out = Array.make n entries.(0) in
    let j = ref 0 in
    Array.iteri
      (fun k e ->
        if (am lsr k) land 1 = 1 then begin
          out.(!j) <- e;
          incr j
        end)
      entries;
    out
  end

(* Children of a completed, violation-free run, read from the scratch
   [sc] the run just filled: deviations strictly after its prefix
   (siblings at earlier points were enumerated by ancestors). Walked in
   reverse so a LIFO consumer extends the earliest choice point first —
   depth-first order. Free-switch siblings keep the item's preemption
   level, preempting siblings get level + 1; [emit] routes on
   [preempts]. With [~preempting:false] (the search is at its last
   level, so no level + 1 ever runs) preempting siblings are not built
   at all: at a point whose previous thread is still runnable the only
   free switch is back to it.

   The children share one copy of the run's choices, taken at the first
   emit, so a run without children copies nothing. In DPOR mode the
   alternatives come from the awake mask (sleeping tids are covered by
   construction), each node's children share one freshly compacted
   inherited-sleep array, and one sibling group seeded with the
   parent-chosen edge. *)
let iter_children sc r ~dpor ~preempting ~emit =
  let choices = ref [||] in
  for i = sc.s_choices.len - 1 downto r.ru_plen do
    let info = sc.s_info.a.(i) in
    let rmask = info land low_mask in
    let prev = (info lsr mask_bits) - 1 in
    let chosen = sc.s_choices.a.(i) in
    let cand =
      (if dpor then sc.s_awake.a.(i) else rmask) land lnot (1 lsl chosen)
    in
    let prev_runnable = prev >= 0 && (rmask lsr prev) land 1 = 1 in
    let cand =
      if preempting || not prev_runnable then cand else cand land (1 lsl prev)
    in
    if cand <> 0 then begin
      if Array.length !choices = 0 then choices := Ibuf.to_array sc.s_choices;
      let sleep, group =
        if not dpor then ([||], None)
        else begin
          let fp = Vec.get sc.s_fps i in
          (* Every recorded choice point's quantum executed, so its
             footprint was finalized; the guard is belt-and-braces. *)
          let fp =
            if Array.length fp = 0 then Sleep_set.empty_conservative else fp
          in
          ( compact_entries r.ru_entries sc.s_alive.a.(i),
            Some (Sleep_set.group_create { Sleep_set.tid = chosen; fp }) )
        end
      in
      let m = ref cand in
      while !m <> 0 do
        let alt = Sched.lowest_tid !m in
        m := !m land (!m - 1);
        emit
          {
            it_choices = !choices;
            it_dev = i;
            it_alt = alt;
            it_sleep = sleep;
            it_group = group;
          }
          ~preempts:(prev_runnable && alt <> prev)
      done
    end
  done

(* ------------------------------------------------------------------ *)
(* Script replay                                                      *)
(* ------------------------------------------------------------------ *)

type replay_result = {
  rp_violation : violation_info option;
  rp_outcome : Sched.outcome;
  rp_trace : Event.t list;
}

let run_steps ?(trace = false) ?on_sched target steps =
  let sched = target.make ~trace (Sched.Script (script_of_steps steps)) in
  (* [on_sched] lets a caller attach observers (e.g. a tracer, via
     [Era_obs.Sim_trace.attach]) to the internally built scheduler and
     monitor before the replay runs. *)
  (match on_sched with None -> () | Some f -> f sched);
  let viol = install_watchers target sched in
  let outcome = Sched.run sched in
  {
    rp_violation = !viol;
    rp_outcome = outcome;
    rp_trace = Monitor.trace (Sched.monitor sched);
  }

let replay ?trace ?on_sched target cex =
  run_steps ?trace ?on_sched target cex.c_steps

(* ------------------------------------------------------------------ *)
(* Shrinking: over the script's Run (tid, n) instructions             *)
(* ------------------------------------------------------------------ *)

let rec list_take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: list_take (n - 1) tl

exception Shrink_budget

let without a i =
  List.filteri (fun j _ -> j <> i) (Array.to_list a)

let with_length a i k =
  List.mapi
    (fun j instr ->
      match instr with
      | Sched.Run (tid, _) when j = i -> Sched.Run (tid, k)
      | _ -> instr)
    (Array.to_list a)

let run_length a i = match a.(i) with Sched.Run (_, n) -> n | _ -> 0

(* Shrink a violating schedule over its compressed script. The search
   finds a violation at the lowest preemption bound, so the witness is
   a handful of [Run (tid, n)] instructions and what shrinks is their
   lengths, not which quanta run. A candidate script is accepted only
   if it reproduces [v0]'s kind on a strictly shorter schedule. The
   schedule kept is the quanta the candidate actually ran (a [Run] of a
   thread that finishes runs fewer than [n]), cut at its violating
   quantum, so it replays to the same violation at the same step.

   Pass 1 drops whole instructions until a full pass drops none. Pass 2
   shortens each instruction: it probes lengths 1, 2, 4, ... upward and
   then bisects between the longest length known to fail and the
   current one. The upward probe is there because the test is not
   monotone in a length: a Figure 1 witness needs thread 0 stalled
   inside an operation, so a short run of it can violate where longer
   ones below [n] do not, and a bisection from the top never finds it.
   The last instruction is never tried: the schedule ends at its
   violating quantum and the run before it is violation-free, so
   shortening it ends the run before the violation.

   Returns the last accepted schedule and its violation, and the runs
   spent, never more than [budget]. *)
let shrink target ~budget (v0, steps0) =
  let runs = ref 0 in
  let best = ref (v0, steps0) in
  let script = ref (Array.of_list (script_of_steps steps0)) in
  let ran = Ibuf.create () in
  let test candidate =
    if !runs >= budget then raise Shrink_budget;
    incr runs;
    let sched = target.make ~trace:false (Sched.Script candidate) in
    Ibuf.clear ran;
    Sched.set_quantum_hook sched (Some (fun tid _ _ -> Ibuf.push ran tid));
    let viol = install_watchers target sched in
    ignore (Sched.run sched);
    match !viol with
    | Some v when v.v_kind = v0.v_kind && v.v_step < (fst !best).v_step ->
      let steps = list_take (v.v_step + 1) (Ibuf.to_list ran) in
      best := (v, steps);
      script := Array.of_list (script_of_steps steps);
      true
    | _ -> false
  in
  let last () = Array.length !script - 1 in
  let rec drop_pass () =
    let dropped = ref false and i = ref 0 in
    while !i < last () do
      if test (without !script !i) then dropped := true else incr i
    done;
    if !dropped then drop_pass ()
  in
  let shorten i =
    let len () = if i < last () then run_length !script i else 0 in
    (* [lo]: the longest length known not to violate. *)
    let lo = ref 0 and k = ref 1 in
    while !k < len () && not (test (with_length !script i !k)) do
      lo := !k;
      k := 2 * !k
    done;
    while len () - !lo > 1 do
      let mid = (!lo + len ()) / 2 in
      if not (test (with_length !script i mid)) then lo := mid
    done
  in
  (try
     drop_pass ();
     let i = ref 0 in
     while !i < last () do
       shorten !i;
       incr i
     done
   with Shrink_budget -> ());
  (!best, !runs)

(* ------------------------------------------------------------------ *)
(* Search bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

(* Shrink a found violation and package the counterexample (shrinking
   is always sequential, on the one winning schedule). *)
let build_cex config target (v, steps) =
  let steps = list_take (v.v_step + 1) steps in
  let (v, steps), shrink_runs =
    if config.shrink && steps <> [] then
      shrink target ~budget:config.shrink_budget (v, steps)
    else ((v, steps), 0)
  in
  ( {
      c_target = target.name;
      c_nthreads = target.nthreads;
      c_params = target.params;
      c_violation = v;
      c_steps = steps;
      c_script = script_of_steps steps;
      c_preemptions = preemptions_of_steps steps;
    },
    shrink_runs )

(* Reserve one run slot against the shared budget; the slot ordinal
   doubles as the fault-hook's run index. A compare-and-set loop rather
   than fetch-and-add-then-rollback: the optimistic increment could
   transiently push the counter past [max_runs] (briefly visible to
   heartbeat readers as an over-budget run count) and, with several
   workers hitting the limit at once, the rollbacks raced each other —
   each loser both decremented and set [budget_out], so the counter
   could end below the number of runs actually performed. CAS reserves
   exactly [max_runs] slots, no more, and the counter is monotone. *)
let make_reserve ~runs ~max_runs ~budget_out =
  let rec reserve () =
    let r = Atomic.get runs in
    if r >= max_runs then begin
      Atomic.set budget_out true;
      None
    end
    else if Atomic.compare_and_set runs r (r + 1) then Some r
    else reserve ()
  in
  reserve

(* ------------------------------------------------------------------ *)
(* The search loop                                                    *)
(* ------------------------------------------------------------------ *)

(* Iterative preemption bounding over a level-synchronous frontier: the
   level-[k] stack holds items whose deviation needed their [k]-th
   preemption. [domains] workers take items one at a time from a shared
   LIFO stack, push same-level (free-switch) children back onto it, and
   defer preempting children to level [k+1], which starts only once
   level [k] has quiesced. So every schedule within bound [k] is covered
   before any needing [k+1], and a reported violation carries the
   minimal bound in every mode: without the barrier a worker could
   find a violation on a level-[k+1] schedule while a level-[k] witness
   is still queued.

   With one worker the loop is the CHESS-style sequential DFS, bit for
   bit: children are pushed in the order a sequential stack receives
   them, the next level starts from the earliest-deferred child, and
   DPOR sibling groups accumulate explored siblings
   ([~mutate_groups:true]). With several workers each keeps a private
   re-execution loop (every run builds a fresh heap/monitor/scheduler,
   so nothing of the simulation is shared); the only cross-domain state
   is the work stack, the atomic budget/stat counters, and the
   first-violation latch, which cancels in-flight runs (polled once per
   quantum) before shrinking proceeds sequentially on the winning
   schedule. Which violating schedule wins the latch depends on worker
   timing. A classic search that finds nothing runs the same set of
   schedules at every worker count: a run's children depend only on
   its own schedule, never on what another run saw first. Each worker
   records one schedule hash per run in its own buffer; the buffers are
   merged once the search ends. *)
let explore ?(config = default_config) target =
  let domains = max 1 config.domains in
  let dpor = config.dpor in
  let mutate_groups = domains = 1 in
  let runs = Atomic.make 0 in
  let states = Atomic.make 0 in
  let sleep_cuts = Atomic.make 0 in
  let switches = Atomic.make 0 in
  let failed = Atomic.make 0 in
  let budget_out = Atomic.make false in
  let cancel = Atomic.make false in
  let cancelled () = Atomic.get cancel in
  let found_m = Mutex.create () in
  let found = ref None in
  let found_level = ref 0 in
  let reserve = make_reserve ~runs ~max_runs:config.max_runs ~budget_out in
  (* Per-worker run counters. Slot [w] is written only by worker [w], but
     the heartbeat reads them all concurrently, so each slot is an
     [Atomic.t]. No padding: OCaml 5.1 has no [Atomic.make_contended],
     and one write per {e run} (not per quantum) is far too cold for
     false sharing to matter. *)
  let per_domain = Array.init domains (fun _ -> Atomic.make 0) in
  let per_domain_runs () = Array.map Atomic.get per_domain in
  let schedules = Array.init domains (fun _ -> Ibuf.create ()) in
  let levels_completed = ref 0 in
  let last_report = ref 0 in
  (* [frontier] lists the level's items top of the stack first. *)
  let rec search_level level frontier =
    let q = Work_queue.create () in
    Work_queue.push q frontier;
    let deferred_m = Mutex.create () in
    let deferred = ref [] in  (* newest first *)
    (* Heartbeats come from worker 0 only — the [on_progress] callback
       then never needs to be domain-safe. Worker 0 reports after each
       of its items and once more when the level ends: with more
       workers than cores it can lose every [take] of a level to the
       spawned workers, and the level-end beat still reports that
       level's runs. With one worker the level-end beat never fires —
       the last item's report already caught up. *)
    let maybe_report () =
      match config.on_progress with
      | Some f when config.progress_every > 0 ->
        if Atomic.get runs - !last_report >= config.progress_every then begin
          (* The total is summed from the same per-worker snapshot the
             beat carries: read from [runs] instead, it would race the
             other workers' reservations and disagree with the
             breakdown. *)
          let counts = per_domain_runs () in
          let r = Array.fold_left ( + ) 0 counts in
          last_report := r;
          Mutex.lock deferred_m;
          let deferred_n = List.length !deferred in
          Mutex.unlock deferred_m;
          f
            {
              pg_level = level;
              pg_runs = r;
              pg_states = Atomic.get states;
              pg_frontier = Work_queue.length q;
              pg_deferred = deferred_n;
              pg_budget_left = max 0 (config.max_runs - r);
              pg_per_domain_runs = counts;
            }
        end
      | _ -> ()
    in
    let run_item sc slot item =
      let go () =
        run_one target ~dpor ~mutate_groups ~max_steps:config.max_steps
          ~cancel:cancelled ~item sc
      in
      match config.fault_hook with
      | None -> Some (go ())
      | Some h -> (
        try
          h slot;
          Some (go ())
        with _ -> None)
    in
    let process wid sc item =
      match reserve () with
      | None -> Work_queue.stop q
      | Some slot -> (
        Atomic.incr per_domain.(wid);
        match run_item sc slot item with
        | None -> Atomic.incr failed
        | Some r -> (
          ignore (Atomic.fetch_and_add states r.ru_quanta);
          ignore (Atomic.fetch_and_add switches r.ru_switches);
          Ibuf.push schedules.(wid) r.ru_schedule;
          if r.ru_sleep_cut then Atomic.incr sleep_cuts;
          match r.ru_violation with
          | Some v ->
            Mutex.lock found_m;
            if !found = None then begin
              found := Some (v, r.ru_steps);
              found_level := level
            end;
            Mutex.unlock found_m;
            Atomic.set cancel true;
            Work_queue.stop q
          | None ->
            let same = ref [] and next = ref [] in
            iter_children sc r ~dpor
              ~preempting:(level < config.max_preemptions)
              ~emit:(fun c ~preempts ->
                if preempts then next := c :: !next else same := c :: !same);
            Work_queue.push q !same;
            if !next <> [] then begin
              Mutex.lock deferred_m;
              deferred := !next @ !deferred;
              Mutex.unlock deferred_m
            end))
    in
    let worker wid =
      let sc = scratch () in
      let rec loop () =
        match Work_queue.take q with
        | None -> ()
        | Some item ->
          (* [item_done] must run even if a fault escapes, or the
             stack's quiescence count would deadlock the level. *)
          Fun.protect
            ~finally:(fun () -> Work_queue.item_done q)
            (fun () -> process wid sc item);
          if wid = 0 && not (Atomic.get cancel) then maybe_report ();
          loop ()
      in
      loop ()
    in
    let spawned =
      List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    List.iter Domain.join spawned;
    if not (Atomic.get cancel) then maybe_report ();
    if not (Atomic.get cancel || Atomic.get budget_out) then begin
      levels_completed := level + 1;
      (* Nothing is deferred at level [max_preemptions]. *)
      if !deferred <> [] then search_level (level + 1) (List.rev !deferred)
    end
  in
  if config.max_preemptions >= 0 then search_level 0 [ root_item ];
  let cex, shrink_runs =
    match !found with
    | None -> (None, 0)
    | Some witness ->
      let c, n = build_cex config target witness in
      (Some c, n)
  in
  {
    res_stats =
      {
        runs = Atomic.get runs;
        states = Atomic.get states;
        pruned = 0;
        sleep_cuts = Atomic.get sleep_cuts;
        switches = Atomic.get switches;
        shrink_runs;
        cex_preemptions = Option.map (fun _ -> !found_level) cex;
        levels_completed = !levels_completed;
        failed_runs = Atomic.get failed;
        domains_used = domains;
        per_domain_runs = Array.to_list (per_domain_runs ());
      };
    res_cex = cex;
    res_schedules =
      List.sort compare
        (List.concat_map Ibuf.to_list (Array.to_list schedules));
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let violation_to_json v =
  Json.Obj
    [
      ("kind", Json.String (Event.violation_name v.v_kind));
      ("tid", Json.Int v.v_tid);
      ("step", Json.Int v.v_step);
      ("detail", Json.String v.v_detail);
    ]

let instr_to_json = function
  | Sched.Run (tid, n) ->
    Json.Obj [ ("tid", Json.Int tid); ("n", Json.Int n) ]
  | _ ->
    invalid_arg "Explore: only Run instructions appear in counterexamples"

let counterexample_to_json c =
  Json.Obj
    [
      ("target", Json.String c.c_target);
      ("nthreads", Json.Int c.c_nthreads);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) c.c_params));
      ("violation", violation_to_json c.c_violation);
      ("preemptions", Json.Int c.c_preemptions);
      ("steps", Json.List (List.map (fun t -> Json.Int t) c.c_steps));
      ("script", Json.List (List.map instr_to_json c.c_script));
    ]

let ( let* ) = Result.bind

let req what = function
  | Some x -> Ok x
  | None -> Error (Fmt.str "counterexample JSON: missing or bad %s" what)

let violation_of_json j =
  let* kind_s = req "violation.kind" Json.(Option.bind (member "kind" j) to_str) in
  let* kind = req ("violation kind " ^ kind_s) (Event.violation_of_name kind_s) in
  let* tid = req "violation.tid" Json.(Option.bind (member "tid" j) to_int) in
  let* step = req "violation.step" Json.(Option.bind (member "step" j) to_int) in
  let* detail =
    req "violation.detail" Json.(Option.bind (member "detail" j) to_str)
  in
  Ok { v_kind = kind; v_tid = tid; v_step = step; v_detail = detail }

let all_ints what l =
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      let* i = req what (Json.to_int j) in
      Ok (i :: acc))
    (Ok []) l
  |> Result.map List.rev

let counterexample_of_json j =
  let* tname = req "target" Json.(Option.bind (member "target" j) to_str) in
  let* nthreads =
    req "nthreads" Json.(Option.bind (member "nthreads" j) to_int)
  in
  let* params =
    match Json.member "params" j with
    | Some (Json.Obj kvs) ->
      List.fold_left
        (fun acc (k, vj) ->
          let* acc = acc in
          let* v = req ("params." ^ k) (Json.to_int vj) in
          Ok ((k, v) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
    | Some _ -> Error "counterexample JSON: params is not an object"
    | None -> Ok []
  in
  let* vj = req "violation" (Json.member "violation" j) in
  let* v = violation_of_json vj in
  let* preempts =
    req "preemptions" Json.(Option.bind (member "preemptions" j) to_int)
  in
  let* steps_j =
    req "steps" Json.(Option.bind (member "steps" j) to_list)
  in
  let* steps = all_ints "steps entry" steps_j in
  Ok
    {
      c_target = tname;
      c_nthreads = nthreads;
      c_params = params;
      c_violation = v;
      c_steps = steps;
      c_script = script_of_steps steps;
      c_preemptions = preempts;
    }

(* [open_out] on a path whose directory does not exist fails with a bare
   "No such file or directory" — opaque when the path came from [--out].
   [Fsutil.write_file] (shared with the tracer and heartbeat writers)
   creates the missing parents instead and surfaces a clear error when
   even that fails, e.g. a file standing where a directory is needed. *)
let save ~file cex =
  try
    Era_metrics.Fsutil.write_file ~file
      (Json.to_string (counterexample_to_json cex) ^ "\n")
  with Sys_error e -> raise (Sys_error (Fmt.str "Explore.save: %s" e))

let load ~file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let* j = Json.of_string text in
    counterexample_of_json j

(* ------------------------------------------------------------------ *)
(* Metrics export                                                     *)
(* ------------------------------------------------------------------ *)

let stats_registry s =
  let module R = Era_obs.Registry in
  let reg = R.create () in
  let c name v = R.set_counter (R.counter reg name) v in
  c "explore_runs" s.runs;
  c "explore_states" s.states;
  c "explore_sleep_cuts" s.sleep_cuts;
  c "explore_switches" s.switches;
  c "explore_shrink_runs" s.shrink_runs;
  c "explore_levels_completed" s.levels_completed;
  c "explore_failed_runs" s.failed_runs;
  R.set_int (R.gauge reg "explore_domains") s.domains_used;
  List.iteri
    (fun d n ->
      R.set_counter
        (R.counter reg ~labels:[ ("domain", string_of_int d) ]
           "explore_domain_runs")
        n)
    s.per_domain_runs;
  (match s.cex_preemptions with
  | None -> ()
  | Some p -> R.set_int (R.gauge reg "explore_cex_preemptions") p);
  reg

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                    *)
(* ------------------------------------------------------------------ *)

let pp_violation fmt v =
  Fmt.pf fmt "%s by T%d at quantum %d (%s)"
    (Event.violation_name v.v_kind)
    v.v_tid v.v_step v.v_detail

let pp_counterexample fmt c =
  Fmt.pf fmt
    "%s: %a@ schedule: %d quanta, %d preemption(s), %d script instruction(s)"
    c.c_target pp_violation c.c_violation (List.length c.c_steps)
    c.c_preemptions (List.length c.c_script)

let pp_stats fmt s =
  Fmt.pf fmt
    "%d runs, %d states, %d shrink runs, %d level(s) completed%a%a%a%a"
    s.runs s.states s.shrink_runs s.levels_completed
    (fun fmt n -> if n > 0 then Fmt.pf fmt ", %d sleep cut(s)" n)
    s.sleep_cuts
    (Fmt.option (fun fmt p -> Fmt.pf fmt ", found at preemption bound %d" p))
    s.cex_preemptions
    (fun fmt d -> if d > 1 then Fmt.pf fmt ", %d domains" d)
    s.domains_used
    (fun fmt f ->
      if f > 0 then Fmt.pf fmt ", %d FAILED run(s) (partial coverage)" f)
    s.failed_runs
