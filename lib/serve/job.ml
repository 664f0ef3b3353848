(* Job model + wire codecs. Kinds are deliberately a closed sum: the
   daemon refuses anything it cannot name, so a malformed submit is shed
   at the protocol layer instead of dying inside a worker domain. *)

module J = Era_metrics.Json

type kind =
  | Explore of {
      scheme : string;
      structure : string;
      preemptions : int;
      max_runs : int;
      steps : int;
      seed : int;
      ops : int option;
      robust_bound : int option;
    }
  | Figure1 of { scheme : string; rounds : int }
  | Figure2 of { scheme : string }
  | Probe of { spin : int }

type status = Queued | Running | Done | Failed | Aborted

type result_ = {
  note : string;
  artifacts : (string * string) list;
}

type progress = {
  status : status;
  started_s : float;
  finished_s : float;
  result : result_ option;
  beats : (int * J.t) list;
}

(* Readers take the snapshot lock-free from [cur]; [m] serialises the
   writers and guards the check-then-wait of [await] against [c]'s
   broadcast. *)
type cell = { cur : progress Atomic.t; m : Mutex.t; c : Condition.t }

type t = {
  id : int;
  tenant : string;
  kind : kind;
  submitted_s : float;
  cell : cell;
}

let make ~id ~tenant kind =
  {
    id;
    tenant;
    kind;
    submitted_s = Unix.gettimeofday ();
    cell =
      {
        cur =
          Atomic.make
            {
              status = Queued;
              started_s = 0.;
              finished_s = 0.;
              result = None;
              beats = [];
            };
        m = Mutex.create ();
        c = Condition.create ();
      };
  }

let progress t = Atomic.get t.cell.cur

let publish t f =
  let c = t.cell in
  Mutex.protect c.m (fun () ->
      Atomic.set c.cur (f (Atomic.get c.cur));
      Condition.broadcast c.c)

let await t ~seen =
  let c = t.cell in
  Mutex.protect c.m (fun () ->
      while Atomic.get c.cur == seen do
        Condition.wait c.c c.m
      done;
      Atomic.get c.cur)

let kind_name = function
  | Explore _ -> "explore"
  | Figure1 _ -> "figure1"
  | Figure2 _ -> "figure2"
  | Probe _ -> "probe"

let kind_label = function
  | Explore e -> Fmt.str "explore %s/%s" e.scheme e.structure
  | Figure1 f -> Fmt.str "figure1 %s" f.scheme
  | Figure2 f -> Fmt.str "figure2 %s" f.scheme
  | Probe p -> Fmt.str "probe %d" p.spin

let default_explore ?(scheme = "hp") ?(structure = "harris-list") () =
  let d = Era_explore.Explore.default_config in
  Explore
    {
      scheme;
      structure;
      preemptions = d.Era_explore.Explore.max_preemptions;
      max_runs = d.Era_explore.Explore.max_runs;
      steps = d.Era_explore.Explore.max_steps;
      seed = 2;
      ops = None;
      robust_bound = None;
    }

let kind_to_json k =
  let base = [ ("kind", J.String (kind_name k)) ] in
  J.Obj
    (base
    @
    match k with
    | Explore e ->
      [
        ("scheme", J.String e.scheme);
        ("structure", J.String e.structure);
        ("preemptions", J.Int e.preemptions);
        ("max_runs", J.Int e.max_runs);
        ("steps", J.Int e.steps);
        ("seed", J.Int e.seed);
      ]
      @ (match e.ops with None -> [] | Some n -> [ ("ops", J.Int n) ])
      @
      (match e.robust_bound with
      | None -> []
      | Some b -> [ ("robust_bound", J.Int b) ])
    | Figure1 f ->
      [ ("scheme", J.String f.scheme); ("rounds", J.Int f.rounds) ]
    | Figure2 f -> [ ("scheme", J.String f.scheme) ]
    | Probe p -> [ ("spin", J.Int p.spin) ])

let str_field j k = Option.bind (J.member k j) J.to_str
let int_field j k = Option.bind (J.member k j) J.to_int

let kind_of_json j =
  match str_field j "kind" with
  | None -> Error "job kind: missing \"kind\""
  | Some "probe" ->
    Ok (Probe { spin = Option.value (int_field j "spin") ~default:0 })
  | Some "figure2" -> (
    match str_field j "scheme" with
    | Some scheme -> Ok (Figure2 { scheme })
    | None -> Error "figure2 job: missing \"scheme\"")
  | Some "figure1" -> (
    match str_field j "scheme" with
    | Some scheme ->
      Ok
        (Figure1
           { scheme; rounds = Option.value (int_field j "rounds") ~default:256 })
    | None -> Error "figure1 job: missing \"scheme\"")
  | Some "explore" -> (
    match (str_field j "scheme", str_field j "structure") with
    | Some scheme, Some structure ->
      let d = Era_explore.Explore.default_config in
      let or_ k dflt = Option.value (int_field j k) ~default:dflt in
      Ok
        (Explore
           {
             scheme;
             structure;
             preemptions =
               or_ "preemptions" d.Era_explore.Explore.max_preemptions;
             max_runs = or_ "max_runs" d.Era_explore.Explore.max_runs;
             steps = or_ "steps" d.Era_explore.Explore.max_steps;
             seed = or_ "seed" 2;
             ops = int_field j "ops";
             robust_bound = int_field j "robust_bound";
           })
    | _ -> Error "explore job: missing \"scheme\" or \"structure\"")
  | Some other -> Error (Fmt.str "unknown job kind %S" other)

let status_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Aborted -> "aborted"

let status_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "aborted" -> Some Aborted
  | _ -> None

let terminal = function
  | Done | Failed | Aborted -> true
  | Queued | Running -> false

let summary_to_json t =
  let p = progress t in
  J.Obj
    [
      ("id", J.Int t.id);
      ("tenant", J.String t.tenant);
      ("kind", kind_to_json t.kind);
      ("label", J.String (kind_label t.kind));
      ("status", J.String (status_name p.status));
      ("submitted_s", J.Float t.submitted_s);
      ("started_s", J.Float p.started_s);
      ("finished_s", J.Float p.finished_s);
      ( "note",
        J.String (match p.result with None -> "" | Some r -> r.note) );
      ( "artifacts",
        J.List
          (match p.result with
          | None -> []
          | Some r ->
            List.map
              (fun (akind, key) ->
                J.Obj [ ("kind", J.String akind); ("key", J.String key) ])
              r.artifacts) );
    ]
