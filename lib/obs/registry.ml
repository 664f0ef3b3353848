module Json = Era_metrics.Json

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array;  (* index = bucket, see bucket_of *)
}

type counter = int ref
type gauge = float ref
type histogram = hist

type cell = C of counter | G of gauge | H of hist

type entry = { e_name : string; e_labels : (string * string) list; e_cell : cell }

type t = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t ?(labels = []) name make same =
  let rec find = function
    | [] -> None
    | e :: rest ->
      if e.e_name = name && e.e_labels = labels then Some e else find rest
  in
  match find t.entries with
  | Some e -> (
    match same e.e_cell with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Registry: %S already registered as a %s" name
           (kind_name e.e_cell)))
  | None ->
    let cell, v = make () in
    t.entries <- { e_name = name; e_labels = labels; e_cell = cell } :: t.entries;
    v

let counter t ?labels name =
  register t ?labels name
    (fun () -> let r = ref 0 in (C r, r))
    (function C r -> Some r | _ -> None)

let gauge t ?labels name =
  register t ?labels name
    (fun () -> let r = ref 0.0 in (G r, r))
    (function G r -> Some r | _ -> None)

(* 63 buckets cover every positive OCaml int (bucket = bit length). *)
let n_buckets = 64

let histogram t ?labels name =
  register t ?labels name
    (fun () ->
      let h = { h_count = 0; h_sum = 0; h_buckets = Array.make n_buckets 0 } in
      (H h, h))
    (function H h -> Some h | _ -> None)

let incr c = incr c
let add c n = c := !c + n
let set_counter c n = c := n
let value c = !c

let set g v = g := v
let set_int g n = g := float_of_int n
let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits acc n = if n = 0 then acc else bits (acc + 1) (n lsr 1) in
    bits 0 v

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let absorb h ~count ~sum ~buckets =
  h.h_count <- h.h_count + count;
  h.h_sum <- h.h_sum + sum;
  List.iter
    (fun (b, n) ->
      if b < 0 || b >= n_buckets then
        invalid_arg "Registry.absorb: bucket out of range";
      h.h_buckets.(b) <- h.h_buckets.(b) + n)
    buckets

(* Interpolated quantile over log2 buckets: bucket [b >= 1] covers
   [2^(b-1), 2^b), bucket 0 is the point value 0. The target rank is
   located by cumulative count and positioned linearly within its
   bucket's range — exact to within the bucket's resolution (a factor
   of 2), which is the deal log-bucketing makes. *)
let quantile_of_buckets ~count buckets q =
  if count <= 0 then None
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = q *. float_of_int count in
    let rec go cum = function
      | [] -> None
      | (b, n) :: rest ->
        let cum' = cum +. float_of_int n in
        if cum' >= rank && n > 0 then
          if b = 0 then Some 0.0
          else begin
            let lo = float_of_int (1 lsl (b - 1)) in
            let hi = float_of_int (1 lsl b) in
            let frac = (rank -. cum) /. float_of_int n in
            Some (lo +. ((hi -. lo) *. frac))
          end
        else go cum' rest
    in
    go 0.0 buckets
  end

type metric_value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : int; buckets : (int * int) list }

type metric = {
  name : string;
  labels : (string * string) list;
  value : metric_value;
}

let metric_of_entry e =
  let value =
    match e.e_cell with
    | C r -> Counter !r
    | G r -> Gauge !r
    | H h ->
      let buckets = ref [] in
      for b = n_buckets - 1 downto 0 do
        if h.h_buckets.(b) <> 0 then buckets := (b, h.h_buckets.(b)) :: !buckets
      done;
      Histogram { count = h.h_count; sum = h.h_sum; buckets = !buckets }
  in
  { name = e.e_name; labels = e.e_labels; value }

let estimate_quantile v q =
  match v with
  | Counter _ | Gauge _ -> None
  | Histogram { count; buckets; _ } -> quantile_of_buckets ~count buckets q

let snapshot t = List.rev_map metric_of_entry t.entries

let find t ?(labels = []) name =
  let rec go = function
    | [] -> None
    | e :: rest ->
      if e.e_name = name && e.e_labels = labels then Some (metric_of_entry e)
      else go rest
  in
  go t.entries

let metric_to_json m =
  let labels =
    match m.labels with
    | [] -> []
    | ls ->
      [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls)) ]
  in
  let value =
    match m.value with
    | Counter n -> [ ("type", Json.String "counter"); ("value", Json.Int n) ]
    | Gauge v -> [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
    | Histogram { count; sum; buckets } ->
      (* Quantiles are derived, not stored: recomputable from the
         buckets, so the decode round-trip ignores them. *)
      let qs =
        if count = 0 then []
        else
          List.filter_map
            (fun (key, q) ->
              Option.map
                (fun v -> (key, Json.Float v))
                (quantile_of_buckets ~count buckets q))
            [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]
      in
      [ ("type", Json.String "histogram"); ("count", Json.Int count);
        ("sum", Json.Int sum) ]
      @ qs
      @ [ ( "buckets",
            Json.List
              (List.map
                 (fun (b, n) -> Json.List [ Json.Int b; Json.Int n ])
                 buckets) ) ]
  in
  Json.Obj ((("name", Json.String m.name) :: labels) @ value)

let to_json t =
  Json.Obj
    [ ("schema_version", Json.Int 1);
      ("metrics", Json.List (List.map metric_to_json (snapshot t))) ]

let ( let* ) r f = Result.bind r f

let req what = function Some v -> Ok v | None -> Error ("registry json: " ^ what)

let metric_of_json j =
  let* name = req "metric name" Json.(Option.bind (member "name" j) to_str) in
  let labels =
    match Json.member "labels" j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
        kvs
    | _ -> []
  in
  let* ty = req "metric type" Json.(Option.bind (member "type" j) to_str) in
  let* value =
    match ty with
    | "counter" ->
      let* n = req "counter value" Json.(Option.bind (member "value" j) to_int) in
      Ok (Counter n)
    | "gauge" ->
      let* v = req "gauge value" Json.(Option.bind (member "value" j) to_float) in
      Ok (Gauge v)
    | "histogram" ->
      let* count = req "histogram count" Json.(Option.bind (member "count" j) to_int) in
      let* sum = req "histogram sum" Json.(Option.bind (member "sum" j) to_int) in
      let* bs = req "histogram buckets" Json.(Option.bind (member "buckets" j) to_list) in
      let* buckets =
        List.fold_left
          (fun acc b ->
            let* acc = acc in
            match b with
            | Json.List [ Json.Int i; Json.Int n ] -> Ok ((i, n) :: acc)
            | _ -> Error "registry json: bad histogram bucket")
          (Ok []) bs
      in
      Ok (Histogram { count; sum; buckets = List.rev buckets })
    | other -> Error ("registry json: unknown metric type " ^ other)
  in
  Ok { name; labels; value }

let metrics_of_json j =
  let* ms = req "metrics list" Json.(Option.bind (member "metrics" j) to_list) in
  List.fold_left
    (fun acc m ->
      let* acc = acc in
      let* m = metric_of_json m in
      Ok (m :: acc))
    (Ok []) ms
  |> Result.map List.rev

let to_string t = Json.to_string (to_json t) ^ "\n"
let write ~file t = Era_metrics.Fsutil.write_file ~file (to_string t)

let pp fmt t =
  let pp_labels fmt = function
    | [] -> ()
    | ls ->
      Fmt.pf fmt "{%a}"
        (Fmt.list ~sep:Fmt.comma (fun fmt (k, v) -> Fmt.pf fmt "%s=%s" k v))
        ls
  in
  List.iter
    (fun m ->
      match m.value with
      | Counter n -> Fmt.pf fmt "%s%a %d@." m.name pp_labels m.labels n
      | Gauge v -> Fmt.pf fmt "%s%a %g@." m.name pp_labels m.labels v
      | Histogram { count; sum; _ } ->
        Fmt.pf fmt "%s%a count=%d sum=%d@." m.name pp_labels m.labels count sum)
    (snapshot t)
