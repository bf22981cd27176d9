(* Closed-loop datalogd load: launch the daemon with both client
   datasets preloaded, time set-up to the first live reads, then run
   two client threads through the operation plan until the deadline.

   Every reply is reduced to a summary ([added=N removed=N] for an
   update, [rows=N md5=HEX] for a query) and written with its latency
   to the ops file; the oracle in run.py checks the summaries. *)

open Serve

type op = { index : int; kind : string; payload : string }

(* The plan file holds one operation per line, [kind <TAB> payload],
   kind one of UPDATE, RETRACT, LIVE, SCRATCH; an operation's index is
   its line number from 0. *)
let read_plan path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.mapi (fun index line ->
         match String.split_on_char '\t' line with
         | [ kind; payload ] -> { index; kind; payload }
         | _ -> failwith ("bad plan line: " ^ line))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let rows_digest rows =
  let sorted = List.sort String.compare rows in
  Digest.to_hex (Digest.string (String.concat "\n" sorted))

let summary_of_reply (reply : Client.reply) =
  match reply.Client.head with
  | Protocol.Okay { kv; _ } ->
    let get k = Option.value (Protocol.find_kv kv k) ~default:"?" in
    Printf.sprintf "added=%s removed=%s" (get "added") (get "removed")
  | Protocol.Result_head { rows; partial = false; _ } ->
    Printf.sprintf "rows=%d md5=%s" rows (rows_digest reply.Client.rows)
  | _ ->
    "err=" ^ String.concat "|" (List.map String.escaped reply.Client.raw)

let request_line ~prog ~id op =
  match op.kind with
  | "UPDATE" -> (Printf.sprintf "UPDATE id=%s prog=%s" id prog, Some op.payload)
  | "RETRACT" -> (Printf.sprintf "RETRACT id=%s prog=%s" id prog, Some op.payload)
  | "LIVE" ->
    (Printf.sprintf "QUERY id=%s prog=%s goal=anc rows=true live=true" id prog,
     None)
  | "SCRATCH" ->
    (Printf.sprintf "QUERY id=%s prog=%s goal=anc rows=true" id prog, None)
  | k -> failwith ("unknown plan op " ^ k)

type client = {
  name : string;  (** Tenant and dataset name: c0 (linear), c1 (non-linear). *)
  conn : Client.t;
  mutable seq : int;
  mutable pass : int;  (** Plan passes completed; -1 during set-up. *)
  mutable log : (int * int * string * float * string) list;
      (** (pass, plan index, kind, latency ms, summary), newest first. *)
}

(* One request: send, await the whole reply, summarize. *)
let run_op ?(parent = 0) c op =
  c.seq <- c.seq + 1;
  let id = Printf.sprintf "%s-%d" c.name c.seq in
  let line, payload = request_line ~prog:c.name ~id op in
  let t0 = Unix.gettimeofday () in
  let summary =
    Spans.with_span ~parent ~rid:id ("client." ^ String.lowercase_ascii op.kind)
      (fun _ ->
        match Client.request c.conn ?payload line with
        | Ok reply -> summary_of_reply reply
        | Error e -> "err=" ^ String.escaped e)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  c.log <- (c.pass, op.index, op.kind, ms, summary) :: c.log;
  summary

type daemon = { pid : int; drain : Thread.t; sock : string }

(* Start datalogd and block until it reports [listening on], which it
   prints only after --load/--facts preloading, so no client can see a
   half-installed dataset. *)
let launch ~datalogd ~dir =
  let sock = Filename.concat dir "d.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; O_CLOEXEC ] 0 in
  let f name = Filename.concat dir name in
  let args =
    [| datalogd; "--socket"; sock; "-j"; "2"; "--runtime"; "domain";
       "--load"; "c0=" ^ f "linear.dl"; "--facts"; "c0=" ^ f "serve_facts.dl";
       "--load"; "c1=" ^ f "nonlinear.dl"; "--facts"; "c1=" ^ f "serve_facts.dl" |]
  in
  let pid = Unix.create_process datalogd args devnull devnull wr in
  Unix.close wr;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr rd in
  let rec wait_ready () =
    match input_line ic with
    | line ->
      if not (contains line "listening on") then wait_ready ()
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failwith "datalogd exited before listening"
  in
  wait_ready ();
  let drain =
    Thread.create
      (fun () ->
        (try
           while true do
             prerr_endline (input_line ic)
           done
         with End_of_file -> ());
        close_in ic)
      ()
  in
  { pid; drain; sock }

let connect d name =
  match Client.connect (Server.Unix_sock d.sock) with
  | Client.Conn conn -> (
    match Client.request conn ("HELLO tenant=" ^ name) with
    | Ok { Client.head = Protocol.Okay _; _ } ->
      { name; conn; seq = 0; pass = -1; log = [] }
    | _ -> failwith "HELLO refused")
  | Client.Conn_busy { reason; _ } -> failwith ("connect busy: " ^ reason)
  | Client.Conn_error e -> failwith ("connect: " ^ e)

(* Peak resident set of a live process, from the kernel's high-water
   mark. Read before the daemon is stopped. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> go ()
      | exception End_of_file -> 0
    in
    let v = go () in
    close_in ic;
    v

let stop d clients =
  List.iter
    (fun c ->
      ignore (Client.request c.conn "QUIT");
      Client.close c.conn)
    clients;
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  Thread.join d.drain

let live_op = { index = -1; kind = "LIVE"; payload = "" }

(* Launch to both datasets' resident sessions answering a live read. *)
let setup ~datalogd ~dir =
  let t0 = Unix.gettimeofday () in
  Spans.with_span "serve.setup" (fun sid ->
      let d = launch ~datalogd ~dir in
      let clients = [ connect d "c0"; connect d "c1" ] in
      List.iter (fun c -> ignore (run_op ~parent:sid c live_op)) clients;
      (d, clients, Unix.gettimeofday () -. t0))

(* Steal and total ticks of this machine, from /proc/stat: time the
   hypervisor gave the machine's virtual CPUs to someone else. *)
let cpu_ticks () =
  In_channel.with_open_bin "/proc/stat" (fun ic ->
      match In_channel.input_line ic with
      | Some line -> (
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | "cpu" :: fields ->
          let v = List.filteri (fun i _ -> i < 8) fields |> List.map int_of_string in
          (List.nth v 7, List.fold_left ( + ) 0 v)
        | _ -> (0, 0))
      | None -> (0, 0))

(* The host's speed: the makespan of [calib_procs] copies of the
   reference work run side by side, one per core of a 2-core machine,
   as CALIB_PROCS in run.py. run.py scales every latency by it
   (README.md, "Host speed"). *)
let calib_procs = 2

let calibrate ~calib ~reps =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; O_CLOEXEC ] 0 in
  let t0 = Unix.gettimeofday () in
  let pids =
    List.init calib_procs (fun _ ->
        Unix.create_process calib [| calib; string_of_int reps |] Unix.stdin devnull
          Unix.stderr)
  in
  let ok = List.for_all (fun pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0) pids in
  let dt = Unix.gettimeofday () -. t0 in
  Unix.close devnull;
  if not ok then failwith "calib failed";
  dt

type pass_record = { p_seconds : float; p_steal : float; p_calib : float }

type outcome = {
  setup_s : float list;
  setup_calib_s : float list;
  passes : pass_record list;
  hwm_kb : int;
  stats_json : string;
  clients : client list;
}

(* The daemon's memory is read when both clients have finished this
   many passes of the plan, so that the figure covers the same
   operations in every run. *)
let hwm_pass = 2

let run ~datalogd ~calib ~calib_reps ~dir ~plan ~seconds ~setups =
  let calibrate () = calibrate ~calib ~reps:calib_reps in
  (* Earlier set-ups are stopped; their clients' first reads are still
     checked, so they stay in the outcome. The host's speed is taken
     after each set-up, with the daemon idle. *)
  let rec setup_loop k acc cals retired =
    let d, clients, s = setup ~datalogd ~dir in
    let cals = calibrate () :: cals in
    if k <= 1 then (d, clients, List.rev (s :: acc), List.rev cals, retired)
    else begin
      stop d clients;
      setup_loop (k - 1) (s :: acc) cals (retired @ clients)
    end
  in
  let d, clients, setup_s, setup_calib_s, retired = setup_loop setups [] [] [] in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  (* Clients meet after every pass of the plan and go on together while
     time is left, so every run attempts whole passes, the same number
     for both datasets. Each pass records the share of the machine's
     CPU time stolen during it, and the host's speed is taken at the
     meeting, with both clients idle, outside every pass's time. *)
  let m = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 and passes = ref [] and go_on = ref true in
  let hwm_kb = ref 0 in
  let pass_start = ref (t0, cpu_ticks ()) in
  let barrier () =
    Mutex.lock m;
    let n = List.length !passes in
    incr arrived;
    if !arrived = List.length clients then begin
      arrived := 0;
      let now = Unix.gettimeofday () and (steal, total) = cpu_ticks () in
      let t, (steal0, total0) = !pass_start in
      let p_steal =
        if total > total0 then float_of_int (steal - steal0) /. float_of_int (total - total0)
        else 0.
      in
      let p_calib = calibrate () in
      passes := { p_seconds = now -. t; p_steal; p_calib } :: !passes;
      pass_start := (Unix.gettimeofday (), cpu_ticks ());
      let n = n + 1 in
      if n = hwm_pass then hwm_kb := vm_hwm_kb d.pid;
      go_on := n < hwm_pass || now < deadline;
      Condition.broadcast cv
    end
    else
      while List.length !passes = n do
        Condition.wait cv m
      done;
    let go = !go_on in
    Mutex.unlock m;
    go
  in
  let drive c =
    Spans.with_span ("client." ^ c.name) (fun root ->
        let rec pass k =
          c.pass <- k;
          List.iter (fun op -> ignore (run_op ~parent:root c op)) plan;
          if barrier () then pass (k + 1)
        in
        pass 0)
  in
  let threads = List.map (fun c -> Thread.create drive c) clients in
  List.iter Thread.join threads;
  let stats_json =
    match Client.request (List.hd clients).conn "STATS" with
    | Ok { Client.head = Protocol.Stats_reply j; _ } -> j
    | _ -> "{}"
  in
  stop d clients;
  { setup_s; setup_calib_s; passes = List.rev !passes; hwm_kb = !hwm_kb; stats_json;
    clients = retired @ clients }

let write_ops path clients =
  let oc = open_out path in
  List.iter
    (fun c ->
      List.iter
        (fun (pass, idx, kind, ms, summary) ->
          Printf.fprintf oc "%s\t%d\t%d\t%s\t%.4f\t%s\n" c.name pass idx kind ms summary)
        (List.rev c.log))
    clients;
  close_out oc

let outcome_json o =
  let floats l = String.concat "," (List.map (Printf.sprintf "%.6f") l) in
  Printf.sprintf
    "{\"setup_s\":[%s],\"setup_calib_s\":[%s],\"passes\":[%s],\"hwm_kb\":%d,\"stats\":%s}"
    (floats o.setup_s) (floats o.setup_calib_s)
    (String.concat ","
       (List.map
          (fun p ->
            Printf.sprintf "{\"seconds\":%.6f,\"steal\":%.6f,\"calib_s\":%.6f}" p.p_seconds
              p.p_steal p.p_calib)
          o.passes))
    o.hwm_kb o.stats_json
