type t = {
  quick : bool;
  json : string option;
  only : string list;
  schemes : string list;
  structure : string option;
  domains : int option;
  ops : int option;
  rounds : int option;
  fuzz : int option;
  tries : int option;
  seed : int option;
  preemptions : int option;
  max_runs : int option;
  steps : int option;
  robust_bound : int option;
  dpor : bool;
  lincheck : bool;
  keys : int option;
  zipf : float option;
  mix : string option;
  out : string option;
  heartbeat : int option;
  trace : bool;
  flight : string option;
  stall : bool;
  follow : int option;
  socket : string option;
  tenant : string option;
  workers : int option;
  queue_cap : int option;
  tenant_cap : int option;
  store : string option;
  wait : bool;
  shutdown : bool;
  now : bool;
  command : string option;
  file : string option;
}

let split_commas s =
  String.split_on_char ',' s
  |> List.filter_map (fun x ->
         match String.trim x with "" -> None | x -> Some x)

let parse_result ~argv ~prog ?(commands = []) ?(file_arg = false) () =
  let quick = ref false in
  let json = ref None in
  let only = ref [] in
  let schemes = ref [] in
  let structure = ref None in
  let domains = ref None in
  let ops = ref None in
  let rounds = ref None in
  let fuzz = ref None in
  let tries = ref None in
  let seed = ref None in
  let preemptions = ref None in
  let max_runs = ref None in
  let steps = ref None in
  let robust_bound = ref None in
  let dpor = ref false in
  let lincheck = ref false in
  let keys = ref None in
  let zipf = ref None in
  let mix = ref None in
  let out = ref None in
  let heartbeat = ref None in
  let trace = ref false in
  let flight = ref None in
  let stall = ref false in
  let follow = ref None in
  let socket = ref None in
  let tenant = ref None in
  let workers = ref None in
  let queue_cap = ref None in
  let tenant_cap = ref None in
  let store = ref None in
  let wait = ref false in
  let shutdown = ref false in
  let now = ref false in
  let command = ref None in
  let file = ref None in
  let set_opt r v = r := Some v in
  let spec =
    Arg.align
      [
        ("--quick", Arg.Set quick, " Smaller parameters for every experiment");
        ( "--json",
          Arg.String (set_opt json),
          "FILE Write machine-readable rows to FILE (default \
           bench/BENCH_<timestamp>.json)" );
        ( "--only",
          Arg.String (fun s -> only := !only @ split_commas s),
          "LIST Run only these experiments (comma-separated, e.g. E1,E8b,B3)"
        );
        ( "--schemes",
          Arg.String (fun s -> schemes := !schemes @ split_commas s),
          "LIST Restrict to these schemes (comma-separated, e.g. ebr,ibr)" );
        ( "--scheme",
          Arg.String (fun s -> schemes := !schemes @ split_commas s),
          "LIST Alias for --schemes" );
        ( "-s",
          Arg.String (fun s -> schemes := !schemes @ split_commas s),
          "LIST Alias for --schemes" );
        ( "--structure",
          Arg.String (set_opt structure),
          "NAME Data structure (harris, michael, hash, hash-michael, stack, \
           queue)" );
        ( "--domains",
          Arg.Int (set_opt domains),
          "N Domains: native throughput rows, and parallel explore workers"
        );
        ("--ops", Arg.Int (set_opt ops), "N Operations per domain (native)");
        ("--rounds", Arg.Int (set_opt rounds), "N Figure 1 churn rounds");
        ( "--fuzz",
          Arg.Int (set_opt fuzz),
          "N Randomized executions per (scheme, structure) pair" );
        ("--tries", Arg.Int (set_opt tries), "N Stall-fuzz attempts");
        ("--seed", Arg.Int (set_opt seed), "N Workload seed (explore)");
        ( "--preemptions",
          Arg.Int (set_opt preemptions),
          "N Preemption bound for systematic exploration" );
        ( "--max-runs",
          Arg.Int (set_opt max_runs),
          "N Execution budget for systematic exploration" );
        ("--steps", Arg.Int (set_opt steps), "N Per-run quantum budget");
        ( "--robust-bound",
          Arg.Int (set_opt robust_bound),
          "N Also hunt retired-backlog robustness violations beyond N" );
        ( "--dpor",
          Arg.Set dpor,
          " Sleep-set partial-order reduction for systematic exploration" );
        ( "--lincheck",
          Arg.Set lincheck,
          " Also hunt non-linearizable histories during systematic \
           exploration (forces an empty prefill)" );
        ( "--keys",
          Arg.Int (set_opt keys),
          "N Key-space size for native list workloads (e.g. 1000000)" );
        ( "--zipf",
          Arg.Float (set_opt zipf),
          "S Zipf skew for native key draws (omit for uniform)" );
        ( "--mix",
          Arg.String (set_opt mix),
          "NAME Operation mix: churn, read-heavy, balanced, or a contains \
           percentage 0-100" );
        ( "--out",
          Arg.String (set_opt out),
          "FILE Output path (explore counterexample, trace JSON)" );
        ( "--heartbeat",
          Arg.Int (set_opt heartbeat),
          "N Report explore progress every N runs and write a heartbeat \
           JSON sidecar" );
        ( "--trace",
          Arg.Set trace,
          " Capture a Perfetto trace (explore: of the shrunk \
           counterexample replay)" );
        ( "--flight",
          Arg.String (set_opt flight),
          "FILE Attach the native flight recorder and write the merged \
           Perfetto trace to FILE (native command)" );
        ( "--stall",
          Arg.Set stall,
          " Native: run only the E9 stalled-domain rows (pairs with \
           --flight for a reclamation-lag timeline)" );
        ( "--follow",
          Arg.Int (set_opt follow),
          "ID Stream job ID's heartbeats until it finishes (jobs command)" );
        ( "--socket",
          Arg.String (set_opt socket),
          "PATH Daemon Unix socket (serve/submit/jobs)" );
        ( "--tenant",
          Arg.String (set_opt tenant),
          "NAME Tenant for submitted jobs (default \"default\")" );
        ( "--workers",
          Arg.Int (set_opt workers),
          "N Executor domains for the serve daemon" );
        ( "--queue-cap",
          Arg.Int (set_opt queue_cap),
          "N Global admission-queue capacity (serve)" );
        ( "--tenant-cap",
          Arg.Int (set_opt tenant_cap),
          "N Per-tenant admission-queue capacity (serve)" );
        ( "--store",
          Arg.String (set_opt store),
          "DIR Artifact store directory (serve)" );
        ( "--wait",
          Arg.Set wait,
          " Block until the submitted job is terminal and print its \
           artifacts" );
        ( "--shutdown",
          Arg.Set shutdown,
          " Ask the daemon to shut down (jobs command)" );
        ( "--now",
          Arg.Set now,
          " With --shutdown: abandon the backlog instead of draining it" );
      ]
  in
  let usage =
    if commands = [] then Printf.sprintf "usage: %s [options]" prog
    else
      Printf.sprintf "usage: %s <command> [options]\ncommands: %s" prog
        (String.concat ", " commands)
  in
  let anon a =
    if a = "quick" then quick := true (* the historical positional form *)
    else if commands = [] then
      raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a))
    else
      match !command with
      | Some _ ->
        if file_arg && !file = None then file := Some a
        else raise (Arg.Bad (Printf.sprintf "unexpected second command %S" a))
      | None ->
        if List.mem a commands then command := Some a
        else
          raise
            (Arg.Bad
               (Printf.sprintf "unknown command %S (expected one of: %s)" a
                  (String.concat ", " commands)))
  in
  match Arg.parse_argv ~current:(ref 0) argv spec anon usage with
  | () ->
    Ok
      {
        quick = !quick;
        json = !json;
        only = !only;
        schemes = !schemes;
        structure = !structure;
        domains = !domains;
        ops = !ops;
        rounds = !rounds;
        fuzz = !fuzz;
        tries = !tries;
        seed = !seed;
        preemptions = !preemptions;
        max_runs = !max_runs;
        steps = !steps;
        robust_bound = !robust_bound;
        dpor = !dpor;
        lincheck = !lincheck;
        keys = !keys;
        zipf = !zipf;
        mix = !mix;
        out = !out;
        heartbeat = !heartbeat;
        trace = !trace;
        flight = !flight;
        stall = !stall;
        follow = !follow;
        socket = !socket;
        tenant = !tenant;
        workers = !workers;
        queue_cap = !queue_cap;
        tenant_cap = !tenant_cap;
        store = !store;
        wait = !wait;
        shutdown = !shutdown;
        now = !now;
        command = !command;
        file = !file;
      }
  | exception Arg.Bad msg -> Error msg
  | exception Arg.Help msg -> Error msg

let parse ?(argv = Sys.argv) ~prog ?(commands = []) ?(file_arg = false) () =
  match parse_result ~argv ~prog ~commands ~file_arg () with
  | Ok t -> t
  | Error msg ->
    let is_help =
      Array.exists (fun a -> a = "-help" || a = "--help") argv
    in
    if is_help then begin
      (* --help keeps the full Arg-generated text. *)
      print_string msg;
      exit 0
    end
    else begin
      (* Arg.Bad prepends the full usage + option listing to the actual
         complaint; a typo'd flag then scrolls the real error off
         screen. Keep just the first line (the complaint itself) and
         point at --help. *)
      let first_line =
        match String.index_opt msg '\n' with
        | Some i -> String.sub msg 0 i
        | None -> msg
      in
      Printf.eprintf "%s\nrun '%s --help' for usage\n" first_line prog;
      exit 2
    end

let lower = String.lowercase_ascii
let selects_experiment t id = t.only = [] || List.mem (lower id) (List.map lower t.only)
let selects_scheme t name =
  t.schemes = [] || List.mem (lower name) (List.map lower t.schemes)

let domains_or t d = Option.value t.domains ~default:d
let ops_or t d = Option.value t.ops ~default:d
let rounds_or t d = Option.value t.rounds ~default:d
let fuzz_or t d = Option.value t.fuzz ~default:d
let tries_or t d = Option.value t.tries ~default:d
let seed_or t d = Option.value t.seed ~default:d
let preemptions_or t d = Option.value t.preemptions ~default:d
let max_runs_or t d = Option.value t.max_runs ~default:d
let steps_or t d = Option.value t.steps ~default:d
let mode t = if t.quick then "quick" else "full"

let default_json_path ?(clock = Unix.gettimeofday) t =
  match t.json with
  | Some f -> f
  | None ->
    let tm = Unix.localtime (clock ()) in
    (* Default under bench/ so ad-hoc runs don't litter the repo root;
       bench/.gitignore already covers the pattern. *)
    Printf.sprintf "bench/BENCH_%04d%02d%02dT%02d%02d%02d.json"
      (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
      tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
