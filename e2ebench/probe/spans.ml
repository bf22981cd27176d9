(* In-memory span recorder for the traced run.

   A span is a name, a start and an end, the id of the span that
   caused it (0 for a root) and an optional request id. Spans are kept
   in memory and written once, at exit, as a Chrome trace-event file
   that Perfetto loads. Client threads record concurrently, hence the
   lock. *)

type span = {
  id : int;
  parent : int;
  name : string;
  rid : string;
  tid : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0
let origin = Unix.gettimeofday ()

let fresh () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

(* [with_span ~parent name f] runs [f id] and records its interval
   when tracing is on; the span is recorded even if [f] raises. *)
let with_span ?(parent = 0) ?(rid = "") name f =
  if not !enabled then f 0
  else begin
    let id = fresh () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let s =
          { id; parent; name; rid; tid = Thread.id (Thread.self ()); t0;
            t1 = Unix.gettimeofday () }
        in
        Mutex.lock lock;
        recorded := s :: !recorded;
        Mutex.unlock lock)
      (fun () -> f id)
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%s}}"
        (json_string s.name) s.tid
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent (json_string s.rid))
    (List.rev !recorded);
  output_string oc "]}\n";
  close_out oc
