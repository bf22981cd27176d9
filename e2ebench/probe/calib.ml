(* calib — the benchmark's reference work, a yardstick for the speed of
   the host (see ../README.md, "Host speed").

     calib REPS

   REPS times: the transitive closure of a 200-node chain in hash
   tables, one frontier per round, and its 19,900 rows sorted and
   formatted into a buffer. Prints the total bytes formatted. The work
   is fixed and shares no code with the repository's libraries, so a
   change to the program never moves it; only the host's speed does. *)

let chain = 200

let closure_bytes () =
  let succ = Hashtbl.create 256 in
  for i = 0 to chain - 2 do
    Hashtbl.add succ i (i + 1)
  done;
  let anc = Hashtbl.create 1024 in
  let frontier = ref [] in
  Hashtbl.iter
    (fun x y ->
      Hashtbl.replace anc (x, y) ();
      frontier := (x, y) :: !frontier)
    succ;
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun (x, z) ->
        List.iter
          (fun y ->
            if not (Hashtbl.mem anc (x, y)) then begin
              Hashtbl.replace anc (x, y) ();
              next := (x, y) :: !next
            end)
          (Hashtbl.find_all succ z))
      !frontier;
    frontier := !next
  done;
  let rows = Hashtbl.fold (fun k () acc -> k :: acc) anc [] |> List.sort compare in
  let b = Buffer.create 65536 in
  List.iter (fun (x, y) -> Printf.bprintf b "  anc(%d, %d)\n" x y) rows;
  Buffer.length b

let () =
  let reps = try int_of_string Sys.argv.(1) with _ -> 1 in
  let total = ref 0 in
  for _ = 1 to reps do
    total := !total + closure_bytes ()
  done;
  Printf.printf "%d\n" !total
