type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len

let grow t v =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let ndata = Array.make ncap v in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let push t v =
  if t.len = Array.length t.data then grow t v;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: out of bounds";
  t.data.(i) <- v

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.data.(i) :: acc) in
  build (t.len - 1) []

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let find_last p t =
  let rec loop i =
    if i < 0 then None
    else if p t.data.(i) then Some t.data.(i)
    else loop (i - 1)
  in
  loop (t.len - 1)
