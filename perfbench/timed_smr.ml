(* A timing wrapper over a native reclamation scheme: [Make (S)] is
   itself an [Nsmr.S], so a data structure built over it runs the same
   code with every SMR call counted and a fixed sample of them timed.

   Every call is counted. A clock read costs more than an amortized
   [begin_op] or a [read_link], so only every [stride]-th call of each
   kind is timed, and the time of a kind is estimated as its call count
   times the mean sampled duration (less the clock's own cost). Counters
   are per domain, so the wrapper adds no cross-domain traffic. *)

module Nsmr = Era_native.Nsmr

type kind = Begin_op | End_op | Alloc | Retire | Read_link

let kinds = [ Begin_op; End_op; Alloc; Retire; Read_link ]

(* Per-domain slots: from a kind's base, calls, sampled ns, sampled
   calls. *)
let b_begin = 0
let b_end = 3
let b_alloc = 6
let b_retire = 9
let b_read = 12
let slots = 15

let base = function
  | Begin_op -> b_begin
  | End_op -> b_end
  | Alloc -> b_alloc
  | Retire -> b_retire
  | Read_link -> b_read
let stride = 16

module Make (S : Nsmr.S) = struct
  let name = S.name

  type t = { g : S.t; ctrs : int array array }
  type tctx = { s : S.tctx; c : int array }

  (* The domains' counter arrays are allocated back to back, so each is
     padded by two cache lines: without it every counted call bounces a
     line shared with the other domain's counters. *)
  let create ~ndomains =
    { g = S.create ~ndomains;
      ctrs = Array.init ndomains (fun _ -> Array.make (slots + 16) 0) }

  let inner t = t.g
  let thread t d = { s = S.thread t.g d; c = t.ctrs.(d) }

  (* Count the call; true when this call is one of the timed sample. *)
  let[@inline] tick c i =
    let n = c.(i) + 1 in
    c.(i) <- n;
    n land (stride - 1) = 0

  let[@inline] record c i t0 =
    c.(i + 1) <- c.(i + 1) + (Stat.now_ns () - t0);
    c.(i + 2) <- c.(i + 2) + 1

  let begin_op x =
    if tick x.c b_begin then begin
      let t0 = Stat.now_ns () in
      S.begin_op x.s;
      record x.c b_begin t0
    end
    else S.begin_op x.s

  let end_op x =
    if tick x.c b_end then begin
      let t0 = Stat.now_ns () in
      S.end_op x.s;
      record x.c b_end t0
    end
    else S.end_op x.s

  let alloc x key =
    if tick x.c b_alloc then begin
      let t0 = Stat.now_ns () in
      let n = S.alloc x.s key in
      record x.c b_alloc t0;
      n
    end
    else S.alloc x.s key

  let retire x n =
    if tick x.c b_retire then begin
      let t0 = Stat.now_ns () in
      S.retire x.s n;
      record x.c b_retire t0
    end
    else S.retire x.s n

  (* A neutralizing scheme raises out of [read_link]; the sample is then
     simply not recorded (the call is still counted). *)
  let read_link x n =
    if tick x.c b_read then begin
      let t0 = Stat.now_ns () in
      let l = S.read_link x.s n in
      record x.c b_read t0;
      l
    end
    else S.read_link x.s n

  let backlog t = S.backlog t.g
  let max_backlog t = S.max_backlog t.g
  let reclaimed t = S.reclaimed t.g
  let stats t = S.stats t.g
  let attach_flight t f = S.attach_flight t.g f
  let domain_backlog t d = S.domain_backlog t.g d
  let domain_lag t d = S.domain_lag t.g d

  let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 t.ctrs

  (* Calls of one kind, over every domain. Read after the workers have
     been joined. *)
  let calls t k = sum t (fun c -> c.(base k))

  (* Estimated nanoseconds spent inside calls of one kind. *)
  let est_ns t k =
    let i = base k in
    let sampled = sum t (fun c -> c.(i + 2)) in
    if sampled = 0 then 0.
    else
      let mean =
        (float_of_int (sum t (fun c -> c.(i + 1))) /. float_of_int sampled)
        -. Lazy.force Stat.clock_overhead_ns
      in
      float_of_int (calls t k) *. Float.max 0. mean
end
