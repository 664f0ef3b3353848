(* Clocks, order statistics and process memory for the benchmark. *)

let now = Unix.gettimeofday
let now_ns = Era_obs.Flight.now_ns

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolation quantile (the "inclusive" method), so the
   median of an even sample is the mean of its two middle values. *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = sorted xs in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Smallest value; [nan] for an empty sample, like [quantile]. *)
let min = function [] -> nan | x :: xs -> List.fold_left Float.min x xs

(* Cost of one [now_ns] pair, subtracted from every sampled interval so
   that a timed call much cheaper than the clock is not reported as the
   clock's own cost. Median of many back-to-back pairs. *)
let clock_overhead_ns =
  lazy
    (let n = 2001 in
     let d =
       List.init n (fun _ ->
           let t0 = now_ns () in
           float_of_int (now_ns () - t0))
     in
     median d)

(* Peak resident set (VmHWM) of a process, in MiB; [nan] if /proc is
   unreadable. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

(* Remove a directory tree (the serve leg's per-daemon scratch). *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
