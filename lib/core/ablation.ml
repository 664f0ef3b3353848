type hp_row = {
  threshold : int;
  slots : int;
  max_backlog : int;
  steps : int;
}

type ibr_row = {
  allocs_per_epoch : int;
  figure1 : string;
  figure2 : string;
  size_backlog : int;
}

let hp_sweep ?(thresholds = [ 2; 8; 32; 128 ]) ?(slots = 3) ?(size = 128) ()
    =
  List.map
    (fun threshold ->
      let module H =
        Era_smr.Hp.Make (struct
          let slots_per_thread = slots
          let scan_threshold = threshold
        end)
      in
      let max_backlog, steps =
        Robustness.stalled_reader_run (module H) Applicability.Michael ~size
      in
      { threshold; slots; max_backlog; steps })
    thresholds

let outcome_name1 (r : Figure1.result) =
  match r.Figure1.outcome with
  | Figure1.Robustness_violated _ -> "robustness-violated"
  | Figure1.Safety_violated _ -> "safety-violated"
  | Figure1.Survived _ -> "survived"

let outcome_name2 (r : Figure2.result) =
  match r.Figure2.outcome with
  | Figure2.Unsafe _ -> "unsafe"
  | Figure2.Safe_completion _ -> "safe"

let ibr_sweep ?(rates = [ 1; 4; 16; 64 ]) () =
  List.map
    (fun rate ->
      let module I =
        Era_smr.Ibr.Make (struct
          let allocs_per_epoch = rate
          let scan_threshold = 8
        end)
      in
      let f1 = Figure1.run ~rounds:512 (module I) in
      let f2 = Figure2.run (module I) in
      let size_backlog =
        Robustness.size_sweep_point (module I) ~size:128
      in
      {
        allocs_per_epoch = rate;
        figure1 = outcome_name1 f1;
        figure2 = outcome_name2 f2;
        size_backlog;
      })
    rates

let pp_hp_row fmt r =
  Fmt.pf fmt "threshold=%-4d slots=%d | max backlog %-4d | steps %d"
    r.threshold r.slots r.max_backlog r.steps

let pp_ibr_row fmt r =
  Fmt.pf fmt "epoch every %-3d allocs | figure1 %-20s | figure2 %-7s | \
              stalled-reader backlog %d"
    r.allocs_per_epoch r.figure1 r.figure2 r.size_backlog
