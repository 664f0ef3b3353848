(* ERA_TEST_SHUFFLE=<seed> permutes a suite's groups and the cases
   within each group, enforcing that no case leans on state left behind
   by an earlier one (CI runs one shuffled leg). Unset or empty: the
   suite runs in its written order. *)
let maybe_shuffle suites =
  match Sys.getenv_opt "ERA_TEST_SHUFFLE" with
  | None | Some "" -> suites
  | Some seed_s ->
    let seed = Option.value ~default:1 (int_of_string_opt seed_s) in
    let st = Random.State.make [| seed |] in
    let shuffle l =
      let a = Array.of_list l in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      Array.to_list a
    in
    shuffle (List.map (fun (g, cases) -> (g, shuffle cases)) suites)
