module Event = Era_sim.Event
module Monitor = Era_sim.Monitor
module Sched = Era_sched.Sched
module Json = Era_metrics.Json

let ikey k v = (k, Json.Int v)
let bkey k v = (k, Json.Bool v)
let skey k v = (k, Json.String v)

let access_name : Event.access_kind -> string = function
  | Read -> "read"
  | Write -> "write"
  | Cas true -> "cas-ok"
  | Cas false -> "cas-fail"

let attach ?(accesses = true) ?(global_tid = 9999) tr mon =
  Tracer.set_thread_name tr ~tid:global_tid "global";
  let nodes_counter ts =
    Tracer.counter tr ~ts "nodes"
      [ ("active", Monitor.active mon); ("retired", Monitor.retired mon) ]
  in
  let hook ts (ev : Event.t) =
    match ev with
    | Alloc { tid; addr; node; key } ->
      Tracer.instant tr ~ts ~tid ~cat:"smr" "alloc"
        ~args:[ ikey "addr" addr; ikey "node" node; ikey "key" key ];
      nodes_counter ts
    | Share { tid; addr; node } ->
      Tracer.instant tr ~ts ~tid ~cat:"smr" "share"
        ~args:[ ikey "addr" addr; ikey "node" node ]
    | Retire { tid; addr; node } ->
      Tracer.instant tr ~ts ~tid ~cat:"smr" "retire"
        ~args:[ ikey "addr" addr; ikey "node" node ];
      nodes_counter ts
    | Reclaim { tid; addr; node; to_system } ->
      Tracer.instant tr ~ts ~tid ~cat:"smr" "reclaim"
        ~args:[ ikey "addr" addr; ikey "node" node; bkey "to_system" to_system ];
      nodes_counter ts
    | Access { tid; addr; node; field; kind; unsafe } ->
      Tracer.instant tr ~ts ~tid ~cat:"mem" (access_name kind)
        ~args:
          [ ikey "addr" addr; ikey "node" node; ikey "field" field;
            bkey "unsafe" unsafe ]
    | Key_read { tid; addr; node; unsafe } ->
      Tracer.instant tr ~ts ~tid ~cat:"mem" "key-read"
        ~args:[ ikey "addr" addr; ikey "node" node; bkey "unsafe" unsafe ]
    | Violation { tid; kind; detail } ->
      Tracer.instant tr ~ts ~tid ~cat:"violation" (Event.violation_name kind)
        ~args:[ skey "detail" detail ]
    | Invoke { tid; opid; op } ->
      Tracer.begin_span tr ~ts ~tid ~cat:"op"
        (Fmt.str "%a" Event.pp_op op)
        ~args:[ ikey "opid" opid ]
    | Response { tid; opid = _; op = _; result = _ } ->
      Tracer.end_span tr ~ts ~tid
    | Label { tid; name } -> Tracer.instant tr ~ts ~tid ~cat:"label" name
    | Protect { tid; slot; addr; node } ->
      Tracer.instant tr ~ts ~tid ~cat:"smr" "protect"
        ~args:[ ikey "slot" slot; ikey "addr" addr; ikey "node" node ]
    | Epoch { value } ->
      Tracer.instant tr ~scope:`Global ~ts ~tid:global_tid ~cat:"smr" "epoch"
        ~args:[ ikey "value" value ]
    | Neutralize { by; target } ->
      Tracer.instant tr ~ts ~tid:by ~cat:"smr" "neutralize"
        ~args:[ ikey "target" target ]
    | Stalled { tid } -> Tracer.instant tr ~ts ~tid ~cat:"sched" "stalled"
    | Resumed { tid } -> Tracer.instant tr ~ts ~tid ~cat:"sched" "resumed"
    | Note s -> Tracer.instant tr ~scope:`Global ~ts ~tid:global_tid ~cat:"note" s
  in
  (if accesses then Monitor.subscribe mon hook
   else
     let tags =
       List.filter
         (fun tag -> tag <> Event.tag_access && tag <> Event.tag_key_read)
         (List.init Event.n_tags Fun.id)
     in
     Monitor.subscribe_tags mon tags hook);
  fun () -> Monitor.unsubscribe mon hook

let attach_sched ?(names = []) tr sched =
  for tid = 0 to Sched.nthreads sched - 1 do
    let name =
      match List.assoc_opt tid names with
      | Some n -> n
      | None -> Printf.sprintf "T%d" tid
    in
    Tracer.set_thread_name tr ~tid name
  done;
  Sched.set_quantum_hook sched
    (Some
       (fun tid t0 t1 ->
         Tracer.complete tr ~ts:t0 ~dur:(t1 - t0) ~tid ~cat:"sched" "quantum"))
