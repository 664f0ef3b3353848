type t =
  | Unallocated
  | Local of int
  | Shared
  | Retired

let is_active = function
  | Local _ | Shared -> true
  | Unallocated | Retired -> false

let pp fmt = function
  | Unallocated -> Fmt.string fmt "unallocated"
  | Local tid -> Fmt.pf fmt "local(T%d)" tid
  | Shared -> Fmt.string fmt "shared"
  | Retired -> Fmt.string fmt "retired"

let check_transition ~from ~to_ =
  match from, to_ with
  | Unallocated, Local _ -> Ok ()
  | Local _, Shared -> Ok ()
  | Local _, Retired -> Ok ()  (* a node may die without ever being shared *)
  | Shared, Retired -> Ok ()
  | Retired, Unallocated -> Ok ()
  | _ ->
    Error
      (Fmt.str "illegal life-cycle transition: %a -> %a" pp from pp to_)
