(* Content-addressed store: objects/<md5-hex> + an append-only
   manifest.jsonl, one entry per line. MD5 is content-addressing here,
   not integrity against an adversary — it is in the stdlib and 32 hex
   chars keep keys short on the wire. *)

module J = Era_metrics.Json
module Fs = Era_metrics.Fsutil

type entry = {
  key : string;
  akind : string;
  job_id : int;
  label : string;
  size : int;
  created_s : float;
}

type t = {
  dir : string;
  m : Mutex.t;
  log : out_channel;  (* manifest.jsonl, opened for append *)
  seen : (string * string * int * string, unit) Hashtbl.t;
  mutable items : entry list;  (* newest first; exported oldest first *)
}

let object_path t key = Filename.concat (Filename.concat t.dir "objects") key

let entry_to_json e =
  J.Obj
    [
      ("key", J.String e.key);
      ("kind", J.String e.akind);
      ("job_id", J.Int e.job_id);
      ("label", J.String e.label);
      ("size", J.Int e.size);
      ("created_s", J.Float e.created_s);
    ]

let entry_of_json j =
  let str k = Option.bind (J.member k j) J.to_str in
  let int k = Option.bind (J.member k j) J.to_int in
  let flt k = Option.bind (J.member k j) J.to_float in
  match (str "key", str "kind") with
  | Some key, Some akind ->
    Some
      {
        key;
        akind;
        job_id = Option.value (int "job_id") ~default:(-1);
        label = Option.value (str "label") ~default:"";
        size = Option.value (int "size") ~default:0;
        created_s = Option.value (flt "created_s") ~default:0.;
      }
  | _ -> None

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Entries of the complete lines, oldest first. Bytes after the last
   newline are a torn append: cut them so the next append starts on a
   fresh line. *)
let replay path =
  if not (Sys.file_exists path) then []
  else
    let s = read_file path in
    let complete =
      match String.rindex_opt s '\n' with None -> 0 | Some i -> i + 1
    in
    if complete < String.length s then Unix.truncate path complete;
    String.split_on_char '\n' (String.sub s 0 complete)
    |> List.filter_map (fun line ->
           match J.of_string line with
           | Ok j -> entry_of_json j
           | Error _ -> None)

let open_ ~dir =
  Fs.mkdir_p (Filename.concat dir "objects");
  let path = Filename.concat dir "manifest.jsonl" in
  let seen = Hashtbl.create 256 in
  let items =
    List.fold_left
      (fun items e ->
        let id = (e.key, e.akind, e.job_id, e.label) in
        if Hashtbl.mem seen id then items
        else begin
          Hashtbl.replace seen id ();
          e :: items
        end)
      [] (replay path)
  in
  let log = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  { dir; m = Mutex.create (); log; seen; items }

let put t ~akind ?(job_id = -1) ?(label = "") content =
  let key = Digest.to_hex (Digest.string content) in
  let id = (key, akind, job_id, label) in
  Mutex.protect t.m (fun () ->
      if not (Hashtbl.mem t.seen id) then begin
        let path = object_path t key in
        if not (Sys.file_exists path) then Fs.write_file ~file:path content;
        let e =
          {
            key; akind; job_id; label;
            size = String.length content;
            created_s = Unix.gettimeofday ();
          }
        in
        output_string t.log (J.to_string ~minify:true (entry_to_json e));
        output_char t.log '\n';
        flush t.log;
        Hashtbl.replace t.seen id ();
        t.items <- e :: t.items
      end);
  key

let get t key =
  (* Keys are hex digests; refuse anything path-like. *)
  let safe =
    String.length key > 0
    && String.for_all
         (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
         key
  in
  let path = object_path t key in
  if safe && Sys.file_exists path then Some (read_file path) else None

let entries t = Mutex.protect t.m (fun () -> List.rev t.items)

let find ?akind t ~job_id =
  entries t
  |> List.filter (fun e ->
         e.job_id = job_id
         && match akind with None -> true | Some k -> e.akind = k)

let manifest_to_json t =
  let items = Mutex.protect t.m (fun () -> t.items) in
  J.Obj
    [
      ("schema_version", J.Int 1);
      ("entries", J.List (List.rev_map entry_to_json items));
    ]
