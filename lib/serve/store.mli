(** Content-addressed artifact store for job outputs — counterexample
    JSON, registry snapshots, Perfetto traces, verdicts.

    Objects live under [<dir>/objects/<key>] where [key] is the hex
    digest of the content, so identical artifacts (the same shrunk
    counterexample found by a thousand load-generator jobs) are stored
    once. The index is an append-only log, [<dir>/manifest.jsonl]: one
    JSON entry per line, one line per (job, artifact kind) pointing at
    its key. A {!put} appends and flushes one line and checks for
    duplicates in an in-memory hash table, so its cost does not grow
    with the store. A line is never rewritten, so a crash can tear only
    the last one; {!open_} drops such a tail.

    Thread-safe: one internal mutex, released even when a {!put}
    raises. *)

type t

type entry = {
  key : string;  (** content digest, hex *)
  akind : string;  (** "counterexample" | "registry" | "trace" | ... *)
  job_id : int;  (** -1 when not job-bound (e.g. a server trace) *)
  label : string;
  size : int;  (** content bytes *)
  created_s : float;
}

val open_ : dir:string -> t
(** Create [dir] (and [dir/objects]) if needed and replay
    [manifest.jsonl] if present. Bytes after the last newline (a torn
    append) are dropped and cut from the file; a complete line that
    does not parse is skipped. *)

val put :
  t -> akind:string -> ?job_id:int -> ?label:string -> string -> string
(** Store the content, record a manifest entry, return the key. An
    entry identical in (key, kind, job, label) is not duplicated, also
    across a reopen. Raises [Sys_error] when the object or the log
    cannot be written; the store stays usable. *)

val get : t -> string -> string option
(** Content by key. *)

val entries : t -> entry list
(** Manifest entries, oldest first. *)

val find : ?akind:string -> t -> job_id:int -> entry list
(** Entries for one job, optionally filtered by artifact kind. *)

val manifest_to_json : t -> Era_metrics.Json.t
(** [{"schema_version": 1, "entries": [...]}], oldest first. *)
