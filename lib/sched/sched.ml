open Effect
open Effect.Deep
module Event = Era_sim.Event
module Monitor = Era_sim.Monitor
module Rng = Era_sim.Rng

type _ Effect.t += Yield : unit Effect.t

type fiber_status =
  | Suspended of (unit, fiber_status) continuation
  | Done
  | Failed of exn

type thread_state =
  | Not_spawned_s
  | Fresh of (unit -> unit)
  | Paused of (unit, fiber_status) continuation
  | Finished_s
  | Crashed_s of exn

type instr =
  | Run of int * int
  | Run_until of int * (Event.t -> bool)
  | Run_until_label of int * string
  | Finish of int
  | Finish_bounded of int * int
  | Finish_all

type outcome =
  | All_finished
  | Script_done
  | Step_limit
  | No_runnable

type thread_outcome =
  | Not_spawned
  | Running
  | Finished
  | Crashed of exn

type strategy =
  | Round_robin
  | Random of Rng.t
  | Script of instr list
  | Controlled of (t -> int)

and t = {
  sim_heap : Era_sim.Heap.t;
  mon : Monitor.t;
  max_steps : int;
  threads : thread_state array;
  stalled : bool array;
  steps : int array;
  mutable total : int;
  mutable rr_next : int;
  mutable opid : int;
  mutable current : int;  (* tid being stepped; -1 outside a quantum *)
  mutable next : int;  (* decided at the yield that switched; -1: none *)
  mutable next_exn : exn option;  (* raised by that decision *)
  mutable switches : int;  (* fiber suspensions *)
  mutable q0 : int;  (* monitor time at quantum start, when hooked *)
  mutable rmask : int;  (* bit tid set iff tid is live and not stalled *)
  strategy : strategy;
  mutable script : instr list;
  mutable instr_budget : int;  (* remaining quanta for the current instr *)
  step_events : Event.t Era_sim.Vec.t;  (* events of the current quantum *)
  step_hook : int -> Event.t -> unit;  (* pushes into [step_events] *)
  mutable step_hook_on : bool;  (* hook currently subscribed? *)
  mutable quantum_hook : (int -> int -> int -> unit) option;
      (* observability: called after every quantum with
         (tid, monitor time before, monitor time after); [None] (the
         default) keeps the hot path to a single branch *)
}

and ctx = {
  tid : int;
  heap : Era_sim.Heap.t;
  sched : t;
}

(* ctx is declared after t so redefine the public order via an interface
   trick: the .mli lists ctx first; OCaml allows any order with 'and'. *)

let create ?(max_steps = 20_000_000) ~nthreads strategy heap =
  if nthreads > 62 then
    invalid_arg "Sched.create: at most 62 threads (runnable mask width)";
  let step_events = Era_sim.Vec.create () in
  let step_hook _time ev = Era_sim.Vec.push step_events ev in
  let t =
    {
      sim_heap = heap;
      mon = Era_sim.Heap.monitor heap;
      max_steps;
      threads = Array.make nthreads Not_spawned_s;
      stalled = Array.make nthreads false;
      steps = Array.make nthreads 0;
      total = 0;
      rr_next = 0;
      opid = 0;
      current = -1;
      next = -1;
      next_exn = None;
      switches = 0;
      q0 = 0;
      rmask = 0;
      strategy;
      script = (match strategy with Script s -> s | _ -> []);
      instr_budget = -1;
      step_events;
      step_hook;
      step_hook_on = false;
      quantum_hook = None;
    }
  in
  (* [step_hook] is not subscribed here: only the [Run_until] /
     [Run_until_label] script instructions inspect the events of the
     current quantum, so the run loop attaches the hook exactly while
     one of those is active. Every other schedule keeps the monitor's
     allocation-free fast path for unobserved event kinds. *)
  t

let spawn t ~tid body =
  if tid < 0 || tid >= Array.length t.threads then
    invalid_arg "Sched.spawn: tid out of range";
  (match t.threads.(tid) with
  | Not_spawned_s -> ()
  | _ -> invalid_arg "Sched.spawn: thread already spawned");
  let ctx = { tid; heap = t.sim_heap; sched = t } in
  t.threads.(tid) <- Fresh (fun () -> body ctx);
  if not t.stalled.(tid) then t.rmask <- t.rmask lor (1 lsl tid)

let external_ctx t ~tid = { tid; heap = t.sim_heap; sched = t }

let heap t = t.sim_heap
let monitor t = t.mon
let nthreads t = Array.length t.threads
let set_quantum_hook t h = t.quantum_hook <- h

let thread_outcome t tid =
  match t.threads.(tid) with
  | Not_spawned_s -> Not_spawned
  | Fresh _ | Paused _ -> Running
  | Finished_s -> Finished
  | Crashed_s e -> Crashed e

let steps_of t tid = t.steps.(tid)
let total_steps t = t.total
let switches t = t.switches

let live t tid =
  match t.threads.(tid) with
  | Fresh _ | Paused _ -> true
  | Not_spawned_s | Finished_s | Crashed_s _ -> false

let runnable t tid = (t.rmask lsr tid) land 1 = 1
let runnable_mask t = t.rmask
let current_tid t = t.current

let runnable_tids t =
  let acc = ref [] in
  for tid = Array.length t.threads - 1 downto 0 do
    if runnable t tid then acc := tid :: !acc
  done;
  !acc

(* Branch-free SWAR bit count; masks have at most 62 bits, so they are
   never negative. *)
let popcount m =
  let m = m - ((m lsr 1) land 0x5555555555555555) in
  let m = (m land 0x3333333333333333) + ((m lsr 2) land 0x3333333333333333) in
  let m = (m + (m lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  ((m * 0x0101010101010101) lsr 56) land 0x7f

let lowest_tid m = popcount ((m land -m) - 1)

let stall t tid =
  if not t.stalled.(tid) then begin
    t.stalled.(tid) <- true;
    t.rmask <- t.rmask land lnot (1 lsl tid);
    Monitor.emit t.mon (Event.Stalled { tid })
  end

let unstall t tid =
  if t.stalled.(tid) then begin
    t.stalled.(tid) <- false;
    if live t tid then t.rmask <- t.rmask lor (1 lsl tid);
    Monitor.emit t.mon (Event.Resumed { tid })
  end

let next_opid t =
  t.opid <- t.opid + 1;
  t.opid

let run_op ctx op f =
  let t = ctx.sched in
  let opid = next_opid t in
  Monitor.emit t.mon (Event.Invoke { tid = ctx.tid; opid; op });
  let result = f () in
  Monitor.emit t.mon (Event.Response { tid = ctx.tid; opid; op; result });
  result

(* ------------------------------------------------------------------ *)
(* Fiber machinery                                                     *)
(* ------------------------------------------------------------------ *)

let fiber_handler : (unit, fiber_status) handler =
  {
    retc = (fun () -> Done);
    exnc = (fun e -> Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
          Some (fun (k : (a, fiber_status) continuation) -> Suspended k)
        | _ -> None);
  }

let step_events_match t pred = Era_sim.Vec.exists pred t.step_events

let progress_violation t tid =
  Monitor.emit t.mon
    (Event.Violation
       {
         tid;
         kind = Event.Progress_failure;
         detail =
           Fmt.str "T%d did not finish its solo run within its step budget"
             tid;
       })

(* Judge the script instruction at the head — the one that gave the
   quantum just ended — and pop it once it is complete. *)
let complete_instr t =
  match t.script with
  | [] -> ()
  | instr :: rest ->
    let complete =
      match instr with
      | Run (tid, _) ->
        t.instr_budget <- t.instr_budget - 1;
        t.instr_budget = 0 || not (live t tid)
      | Run_until (tid, pred) -> step_events_match t pred || not (live t tid)
      | Run_until_label (tid, name) ->
        step_events_match t (function
          | Event.Label l -> l.tid = tid && l.name = name
          | _ -> false)
        || not (live t tid)
      | Finish tid -> not (live t tid)
      | Finish_bounded (tid, _) ->
        t.instr_budget <- t.instr_budget - 1;
        if not (live t tid) then true
        else if t.instr_budget = 0 then begin
          progress_violation t tid;
          true
        end
        else false
      | Finish_all -> false
    in
    if complete then begin
      t.script <- rest;
      t.instr_budget <- -1
    end

(* Charge the quantum [tid] just ran, at its yield or when its body
   returned. A quantum-hook-free run pays one branch for the hook. *)
let end_quantum t tid =
  t.current <- -1;
  t.steps.(tid) <- t.steps.(tid) + 1;
  t.total <- t.total + 1;
  (match t.quantum_hook with
  | None -> ()
  | Some f -> f tid t.q0 (Monitor.time t.mon));
  match t.strategy with
  | Script _ -> complete_instr t
  | Round_robin | Random _ | Controlled _ -> ()

(* [step_events] only fills while the step hook is subscribed, and
   [set_step_hook] empties it whenever the hook is toggled. *)
let begin_quantum t tid =
  if t.step_hook_on then Era_sim.Vec.clear t.step_events;
  (match t.quantum_hook with
  | None -> ()
  | Some _ -> t.q0 <- Monitor.time t.mon);
  t.current <- tid

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

(* Both picks read the runnable mask and return the chosen tid, or -1
   when nothing is runnable — an option here would allocate a [Some]
   box on every quantum. *)

(* The first runnable tid at or after [rr_next], cyclically. *)
let pick_round_robin t =
  let m = t.rmask in
  if m = 0 then -1
  else begin
    let from = t.rr_next mod Array.length t.threads in
    let above = m land lnot ((1 lsl from) - 1) in
    let tid = lowest_tid (if above <> 0 then above else m) in
    t.rr_next <- tid + 1;
    tid
  end

(* One [Rng.int] over the runnable count, indexing the runnable tids in
   ascending order: seeded schedules are the same as when the tids were
   collected into a list. *)
let pick_random t rng =
  let m = t.rmask in
  if m = 0 then -1
  else begin
    let m = ref m in
    for _ = 1 to Rng.int rng (popcount !m) do
      m := !m land (!m - 1)
    done;
    lowest_tid !m
  end

exception Stop of outcome

let finished_all t =
  let n = Array.length t.threads in
  let rec go tid = tid >= n || ((not (live t tid)) && go (tid + 1)) in
  go 0

(* [finished_all] is only consulted when a pick comes up empty. *)
let or_stop t tid =
  if tid >= 0 then tid
  else raise (Stop (if finished_all t then All_finished else No_runnable))

let set_step_hook t on =
  if on <> t.step_hook_on then begin
    Era_sim.Vec.clear t.step_events;
    if on then Monitor.subscribe t.mon t.step_hook
    else Monitor.unsubscribe t.mon t.step_hook;
    t.step_hook_on <- on
  end

(* The thread the head instruction runs next, popping instructions that
   are complete before they start. A [Finish_bounded] whose budget is
   already spent (<= 0) on a live thread is a progress failure before
   any quantum runs. The step-events hook is attached
   only while an instruction that reads it is at the head; [Run]/
   [Finish]/[Finish_all] phases keep unobserved events on the fast
   path. *)
let rec script_pick t =
  match t.script with
  | [] -> raise (Stop Script_done)
  | instr :: rest ->
    set_step_hook t
      (match instr with
      | Run_until _ | Run_until_label _ -> true
      | Run _ | Finish _ | Finish_bounded _ | Finish_all -> false);
    let tid =
      match instr with
      | Run (tid, n) -> if n <= 0 then -1 else tid
      | Finish_bounded (tid, n) when n <= 0 ->
        if live t tid then progress_violation t tid;
        -1
      | Run_until (tid, _) | Run_until_label (tid, _) | Finish tid
      | Finish_bounded (tid, _) ->
        tid
      | Finish_all -> pick_round_robin t
    in
    if tid < 0 || not (live t tid) then begin
      t.script <- rest;
      t.instr_budget <- -1;
      script_pick t
    end
    else begin
      (match instr with
      | Run (_, n) | Finish_bounded (_, n) ->
        if t.instr_budget < 0 then t.instr_budget <- n
      | Run_until _ | Run_until_label _ | Finish _ | Finish_all -> ());
      tid
    end

(* The one decision point, consulted exactly once per quantum: the tid
   to step next. Ends the run by raising [Stop]. *)
let choose t =
  if t.total >= t.max_steps then raise (Stop Step_limit);
  match t.strategy with
  | Round_robin -> or_stop t (pick_round_robin t)
  | Random rng -> or_stop t (pick_random t rng)
  | Script _ -> script_pick t
  | Controlled pick -> (
    match pick t with
    | -1 -> raise (Stop Script_done)
    | tid when tid >= 0 && tid < Array.length t.threads && runnable t tid ->
      tid
    | tid ->
      invalid_arg
        (Fmt.str "Sched.run: controller picked unrunnable tid %d" tid))

(* A quantum ends at the next yield, and the next one is decided right
   there. When the choice is the running thread it simply continues;
   only a switch — another thread, or the end of the run — suspends the
   fiber, leaving the decision (or what [choose] raised: a [Stop], a
   controller's exception) in [next]/[next_exn] for [run]. A chooser
   exception therefore never crashes the simulated thread.

   Outside a fiber (test setup, pre-filling a structure before the
   concurrent part starts) there is no handler for [Yield]: [current] is
   -1 and the yield is a no-op, so the same data-structure code runs in
   both settings — without raising and catching [Effect.Unhandled] per
   access like [perform] would. *)
let yield ctx =
  let t = ctx.sched in
  let tid = t.current in
  if tid >= 0 then begin
    let next =
      match
        end_quantum t tid;
        choose t
      with
      | next -> next
      | exception e ->
        t.next_exn <- Some e;
        -1
    in
    if next = tid then begin_quantum t tid
    else begin
      t.next <- next;
      t.switches <- t.switches + 1;
      perform Yield
    end
  end

let label ctx name =
  yield ctx;
  Monitor.emit ctx.sched.mon (Event.Label { tid = ctx.tid; name })

let exit_thread t tid state =
  t.threads.(tid) <- state;
  t.rmask <- t.rmask land lnot (1 lsl tid);
  end_quantum t tid

(* Run [tid] from its resume point until it switches away or returns. *)
let step_thread t tid =
  begin_quantum t tid;
  let status =
    match t.threads.(tid) with
    | Fresh body -> match_with body () fiber_handler
    | Paused k -> continue k ()
    | Not_spawned_s | Finished_s | Crashed_s _ ->
      invalid_arg "Sched.step_thread: thread not runnable"
  in
  match status with
  | Suspended k -> (
    t.threads.(tid) <- Paused k;
    match t.next_exn with
    | None -> ()
    | Some e ->
      t.next_exn <- None;
      raise e)
  | Done -> exit_thread t tid Finished_s
  | Failed e -> exit_thread t tid (Crashed_s e)

let run t =
  try
    while true do
      let tid = if t.next >= 0 then t.next else choose t in
      t.next <- -1;
      step_thread t tid
    done;
    assert false
  with Stop o ->
    set_step_hook t false;
    if finished_all t && o = Script_done then All_finished else o
