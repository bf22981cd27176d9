(* The traced in-process replay: the same generated files the shipped
   executables read, fed through each layer's public functions, with a
   span and a timer around every call. Nothing inside lib/ is
   instrumented; every figure here is measured from outside the call. *)

open Datalog
open Pardatalog

let now = Unix.gettimeofday

let read_file path = In_channel.with_open_bin path In_channel.input_all

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Named measurements of one run: times (list, reported as medians)
   and counts (last value wins — counts repeat exactly across reps). *)
let times : (string, float list) Hashtbl.t = Hashtbl.create 64
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let add_time name v =
  Hashtbl.replace times name
    (v :: Option.value (Hashtbl.find_opt times name) ~default:[])

let set_count name v = Hashtbl.replace counts name v

(* Time [f] into [name] (seconds, or milliseconds with [~ms]) under a
   span of the same name. *)
let timed ?(ms = false) ~parent name f =
  Spans.with_span ~parent name (fun _ ->
      let t0 = now () in
      let r = f () in
      let dt = now () -. t0 in
      add_time name (if ms then dt *. 1000. else dt);
      r)

let parse_program ~parent path =
  let text = read_file path in
  match timed ~parent "parser.program_s" (fun () -> Parser.program text) with
  | Ok p -> (text, p)
  | Error e -> failwith (Format.asprintf "%s: %a" path Parser.pp_error e)

(* Parse the fact file and insert it into a fresh EDB, as the CLI's
   --edb loading does. *)
let load_facts ~parent path =
  let text = read_file path in
  timed ~parent "parser.facts_s" (fun () ->
      match Parser.tuples text with
      | Ok facts ->
        let db = Database.create () in
        List.iter (fun (pred, t) -> ignore (Database.add_fact db pred t)) facts;
        db
      | Error e -> failwith (Format.asprintf "%s: %a" path Parser.pp_error e))

let row_strings db =
  match Database.find db "anc" with
  | None -> []
  | Some rel ->
    List.map
      (fun t -> Format.asprintf "anc%a" Tuple.pp t)
      (Relation.sorted_elements rel)

(* Answer text exactly as [datalogp] prints it: header, then one
   [Tuple.pp] line per row of [Relation.sorted_elements]. *)
let format_answers ~parent db =
  timed ~parent "format.answers_s" (fun () ->
      let buf = Buffer.create (1 lsl 20) in
      let ppf = Format.formatter_of_buffer buf in
      (match Database.find db "anc" with
       | Some rel ->
         Format.fprintf ppf "%s/%d (%d tuples):@." "anc" (Relation.arity rel)
           (Relation.cardinal rel);
         List.iter
           (fun t -> Format.fprintf ppf "  %s%a@." "anc" Tuple.pp t)
           (Relation.sorted_elements rel)
       | None -> Format.fprintf ppf "anc: (empty)@.");
      set_count "format.bytes" (float_of_int (Buffer.length buf)))

(* Per-executor answer check, reported to run.py: rows and digest. *)
let answers : (string * string) list ref = ref []

let record_answer exe db =
  if not (List.mem_assoc exe !answers) then begin
    let rows = row_strings db in
    answers :=
      (exe, Printf.sprintf "rows=%d md5=%s" (List.length rows)
              (Serve_load.rows_digest rows))
      :: !answers
  end

let phase_counts prefix (stats : Stats.t) =
  List.iter
    (fun ph ->
      let name = Obs.Trace.phase_name ph in
      let ns = Option.value (List.assoc_opt name stats.Stats.phase_ns) ~default:0 in
      add_time (Printf.sprintf "%s.phase.%s_s" prefix name) (float_of_int ns /. 1e9))
    Obs.Trace.[ Sending; Retransmission; Delivery; Receiving; Processing;
                Checkpointing; Termination_test ]

let rewrite ~parent program =
  match
    timed ~parent "strategy.rewrite_s" (fun () ->
        Strategy.general ~seed:0 ~nprocs:2 program)
  with
  | Ok rw -> rw
  | Error e -> failwith ("rewrite: " ^ e)

(* One executor, start to answer text, each layer in its own span. *)
let replay_executor ~datalogp ~prog_path ~facts_path exe =
  Spans.with_span ("replay." ^ exe) (fun parent ->
      let text, program = parse_program ~parent prog_path in
      let edb = load_facts ~parent facts_path in
      let answers_db =
        match exe with
        | "seq" ->
          let w0 = Gc.minor_words () in
          let db, engine =
            timed ~parent "seminaive.eval_s" (fun () ->
                let engine = Seminaive.create program ~edb in
                Seminaive.run_to_fixpoint engine;
                (Seminaive.database engine, engine))
          in
          let st = Seminaive.stats engine in
          set_count "seminaive.minor_words" (Gc.minor_words () -. w0);
          set_count "seminaive.iterations" (float_of_int st.Seminaive.iterations);
          set_count "seminaive.firings" (float_of_int st.Seminaive.firings);
          set_count "seminaive.duplicate_firings"
            (float_of_int st.Seminaive.duplicate_firings);
          set_count "seminaive.join_probes"
            (float_of_int (Seminaive.join_probes engine));
          db
        | "sim" ->
          let rw = rewrite ~parent program in
          let r =
            timed ~parent "sim_runtime.run_s" (fun () ->
                Sim_runtime.run ~config:Run_config.default rw ~edb)
          in
          let st = r.Sim_runtime.stats in
          set_count "sim_runtime.rounds" (float_of_int st.Stats.rounds);
          set_count "sim_runtime.messages" (float_of_int (Stats.total_messages st));
          phase_counts "sim_runtime" st;
          r.Sim_runtime.answers
        | "domains" ->
          let rw = rewrite ~parent program in
          let config = Run_config.(default |> with_domains (Some 2)) in
          let r =
            timed ~parent "domain_runtime.run_s" (fun () ->
                Domain_runtime.run ~config rw ~edb)
          in
          let st = r.Sim_runtime.stats in
          let c = st.Stats.comms in
          add_time "domain_runtime.local_rounds" (float_of_int st.Stats.rounds);
          add_time "domain_runtime.messages" (float_of_int (Stats.total_messages st));
          add_time "domain_runtime.duplicate_firings"
            (float_of_int (Stats.total_duplicate_firings st));
          add_time "domain_runtime.pooled_tuples" (float_of_int st.Stats.pooled_tuples);
          add_time "domain_runtime.bulk_pushes" (float_of_int c.Stats.bulk_pushes);
          add_time "domain_runtime.coalescing"
            (if c.Stats.bulk_pushes = 0 then 0.
             else float_of_int c.Stats.bulk_messages /. float_of_int c.Stats.bulk_pushes);
          phase_counts "domain_runtime" st;
          r.Sim_runtime.answers
        | "net" ->
          let rw = rewrite ~parent program in
          let r =
            timed ~parent "net_runtime.run_s" (fun () ->
                Net.Net_runtime.run ~config:Run_config.default ~program:text
                  ~spec:Net.Wire.Spec_general ~seed:0 ~procs:2
                  ~spawn:(Net.Net_runtime.Exec datalogp) rw ~edb)
          in
          let st = r.Sim_runtime.stats in
          let t = st.Stats.transport in
          add_time "net_runtime.messages" (float_of_int (Stats.total_messages st));
          add_time "net_runtime.bytes_sent" (float_of_int t.Stats.bytes_sent);
          add_time "net_runtime.bytes_received" (float_of_int t.Stats.bytes_received);
          add_time "net_runtime.heartbeat_misses" (float_of_int t.Stats.heartbeat_misses);
          add_time "net_runtime.worker_restarts" (float_of_int t.Stats.worker_restarts);
          add_time "net_runtime.wire_retransmits" (float_of_int t.Stats.wire_retransmits);
          r.Sim_runtime.answers
        | e -> invalid_arg ("unknown executor " ^ e)
      in
      format_answers ~parent answers_db;
      record_answer exe answers_db)

(* The live-serve session path without the daemon: open the resident
   session the server would open, then fold one pass of the plan into
   it, timing Session.apply / model / query. Results go to the same
   ops format as the daemon clients, under tenant names s0/s1. *)
let replay_session ~dir ~(plan : Serve_load.op list) ~out name prog_file =
  Spans.with_span ("session." ^ name) (fun parent ->
      let _, program = parse_program ~parent (Filename.concat dir prog_file) in
      let edb = load_facts ~parent (Filename.concat dir "serve_facts.dl") in
      let rw = rewrite ~parent program in
      let config = Run_config.default in
      let session =
        timed ~parent "session.open_s" (fun () ->
            Domain_runtime.open_session ~config rw ~edb)
      in
      let over = ref 0 and rederived = ref 0 and firings = ref 0 in
      let log idx kind ms summary =
        Printf.fprintf out "%s\t0\t%d\t%s\t%.4f\t%s\n" name idx kind ms summary
      in
      List.iter
        (fun (op : Serve_load.op) ->
             match op.Serve_load.kind with
             | "UPDATE" | "RETRACT" ->
               let default = if op.kind = "UPDATE" then Delta.Insert else Delta.Delete in
               let updates =
                 match Serve.Protocol.parse_updates ~default op.payload with
                 | Ok u -> u
                 | Error e -> failwith e
               in
               let t0 = now () in
               let oc =
                 timed ~ms:true ~parent "session.apply_ms" (fun () ->
                     Session.apply session (Update_batch.of_list updates))
               in
               let s = oc.Session.oc_summary in
               over := !over + s.Delta.s_overdeleted;
               rederived := !rederived + s.Delta.s_rederived;
               firings := !firings + s.Delta.s_firings;
               log op.index op.kind ((now () -. t0) *. 1000.)
                 (Printf.sprintf "added=%d removed=%d"
                    (List.length oc.Session.oc_added)
                    (List.length oc.Session.oc_removed))
             | "LIVE" ->
               let t0 = now () in
               ignore (timed ~ms:true ~parent "session.model_ms" (fun () ->
                   Session.model session));
               let ms = (now () -. t0) *. 1000. in
               let tuples =
                 timed ~ms:true ~parent "session.query_ms" (fun () ->
                     Session.query session "anc")
               in
               let rows = List.map (fun t -> Format.asprintf "anc%a" Tuple.pp t) tuples in
               log op.index op.kind ms
                 (Printf.sprintf "rows=%d md5=%s" (List.length rows)
                    (Serve_load.rows_digest rows))
             | "SCRATCH" ->
               (* The in-process cost of what a from-scratch QUERY runs:
                  a one-shot domain-runtime evaluation of the current
                  base facts. *)
               let base = Database.restrict (Session.model session) [ "par" ] in
               let t0 = now () in
               let r =
                 Spans.with_span ~parent "domain_runtime.scratch" (fun _ ->
                     Domain_runtime.run ~config rw ~edb:base)
               in
               let ms = (now () -. t0) *. 1000. in
               let rows = row_strings r.Sim_runtime.answers in
               log op.index op.kind ms
                 (Printf.sprintf "rows=%d md5=%s" (List.length rows)
                    (Serve_load.rows_digest rows))
             | k -> failwith ("unknown plan op " ^ k))
        plan;
      ignore (Session.close session);
      (* Both datasets add into one counter each. *)
      let add name v =
        set_count name
          (Option.value (Hashtbl.find_opt counts name) ~default:0.
           +. float_of_int v)
      in
      add "live.overdeleted" !over;
      add "live.rederived" !rederived;
      add "live.incr_firings" !firings)

let metrics_json () =
  let b = Buffer.create 1024 in
  let first = ref true in
  let add name v =
    if not !first then Buffer.add_char b ',';
    first := false;
    Printf.bprintf b "%s:%.9g" (Spans.json_string name) v
  in
  Buffer.add_char b '{';
  Hashtbl.iter (fun name l -> add name (median l)) times;
  Hashtbl.iter add counts;
  Buffer.add_char b '}';
  Buffer.contents b

let answers_json () =
  "{"
  ^ String.concat ","
      (List.map
         (fun (exe, s) -> Printf.sprintf "%s:%s" (Spans.json_string exe) (Spans.json_string s))
         !answers)
  ^ "}"
