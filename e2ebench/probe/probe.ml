(* probe — the compiled half of the end-to-end benchmark (see
   ../README.md). Two subcommands, both driven by ../run.py:

     probe serve --datalogd EXE --calib EXE --calib-reps N --dir D
                 --seconds S --setups K --ops FILE
       Untraced closed-loop datalogd load: K timed set-ups, then two
       client threads for S seconds in whole passes of the plan, each
       pass with the share of the machine's CPU time stolen during it.
       The host's speed (calib N, see calib.ml) is taken after every
       set-up and pass. Prints one JSON object; writes every
       operation's pass, latency and reply summary to FILE.

     probe trace --datalogp EXE --datalogd EXE --calib EXE
                 --calib-reps N --dir D --seconds S --setups K --reps R
                 --ops FILE --session-ops FILE --trace FILE
       The traced run: R in-process replays of each executor's layers
       over the batch inputs, one in-process session replay of the
       plan per dataset, then the same daemon load as [serve] with a
       span per request. Writes the Chrome trace to FILE at exit and
       prints the per-layer medians as JSON.

   D holds the generated inputs: batch_prog.dl, batch_facts.dl,
   linear.dl, nonlinear.dl, serve_facts.dl and plan.tsv. *)

let usage () =
  prerr_endline "usage: probe (serve|trace) --key value ...";
  exit 2

let parse_args args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  fun key ->
    match List.assoc_opt key kv with
    | Some v -> v
    | None ->
      prerr_endline ("probe: missing --" ^ key);
      exit 2

let serve arg =
  let dir = arg "dir" in
  let plan = Serve_load.read_plan (Filename.concat dir "plan.tsv") in
  let o =
    Serve_load.run ~datalogd:(arg "datalogd") ~calib:(arg "calib")
      ~calib_reps:(int_of_string (arg "calib-reps")) ~dir ~plan
      ~seconds:(float_of_string (arg "seconds"))
      ~setups:(int_of_string (arg "setups"))
  in
  Serve_load.write_ops (arg "ops") o.Serve_load.clients;
  o

let trace arg =
  Spans.enabled := true;
  let dir = arg "dir" in
  let f = Filename.concat dir in
  let reps = int_of_string (arg "reps") in
  let replay exe =
    for _ = 1 to reps do
      Layers.replay_executor ~datalogp:(arg "datalogp")
        ~prog_path:(f "batch_prog.dl") ~facts_path:(f "batch_facts.dl") exe
    done
  in
  (* The net coordinator runs before any domain exists in this
     process, so its worker spawning never meets a multi-domain
     runtime. *)
  List.iter replay [ "net"; "seq"; "sim"; "domains" ];
  let plan = Serve_load.read_plan (f "plan.tsv") in
  Out_channel.with_open_bin (arg "session-ops") (fun out ->
      Layers.replay_session ~dir ~plan ~out "s0" "linear.dl";
      Layers.replay_session ~dir ~plan ~out "s1" "nonlinear.dl");
  let o = serve arg in
  Spans.write_chrome (arg "trace");
  Printf.printf "{\"layers\":%s,\"answers\":%s,\"serve\":%s}\n"
    (Layers.metrics_json ()) (Layers.answers_json ())
    (Serve_load.outcome_json o)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest ->
    print_endline (Serve_load.outcome_json (serve (parse_args rest)))
  | _ :: "trace" :: rest -> trace (parse_args rest)
  | _ -> usage ()
