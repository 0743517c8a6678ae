type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;
  cat : string;
  ph : [ `Complete | `Instant ];
  ts_ns : float;
  dur_ns : float;
  tid : int;
  seq : int;
  args : (string * value) list;
}

let enabled_flag = Atomic.make false
let seq_ctr = Atomic.make 0
let buffer : event list ref = ref [] (* newest first *)
let lock = Mutex.create ()

let enabled () = Atomic.get enabled_flag

let clear () =
  Mutex.lock lock;
  buffer := [];
  Mutex.unlock lock

let start () =
  clear ();
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let events () =
  Mutex.lock lock;
  let es = !buffer in
  Mutex.unlock lock;
  List.rev es

let emit ev =
  Mutex.lock lock;
  buffer := ev :: !buffer;
  Mutex.unlock lock

let next_seq () = Atomic.fetch_and_add seq_ctr 1
let tid () = (Domain.self () :> int)

let force_args = function None -> [] | Some f -> f ()

(* -- ambient args -------------------------------------------------------- *)

(* Request-scoped context for spans recorded deep inside the engines:
   the job server's dispatcher sets the batch's trace id here before
   running the engine, and every pass/panel span opened while it is set
   carries the id — there is no lexical path from the dispatcher to the
   pass runners (they execute on pool worker domains). One batch
   executes at a time, so a single global cell suffices. *)
let ambient : (string * value) list Atomic.t = Atomic.make []

let set_ambient_args args = Atomic.set ambient args
let clear_ambient_args () = Atomic.set ambient []
let ambient_args () = Atomic.get ambient

let with_ambient_args args f =
  Atomic.set ambient args;
  Fun.protect f ~finally:(fun () -> Atomic.set ambient [])

(* -- trace ids ----------------------------------------------------------- *)

(* Fresh-per-process u32 ids. A Knuth multiplicative hash of a counter:
   unique within the process, and spread over the u32 space rather than
   clustered on small integers, so ids from different id spaces (a
   client numbering requests, a server numbering batches) are unlikely
   to collide by accident in a merged trace. *)
let trace_ctr = Atomic.make 1

let fresh_trace_id () =
  let n = Atomic.fetch_and_add trace_ctr 1 in
  (n * 2654435761) land 0xffff_ffff

let with_span ?(cat = "span") ?args name f =
  if not (enabled ()) then f ()
  else begin
    let seq = next_seq () in
    let ts_ns = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let dur_ns = Clock.now_ns () -. ts_ns in
        emit
          {
            name;
            cat;
            ph = `Complete;
            ts_ns;
            dur_ns;
            tid = tid ();
            seq;
            args = force_args args;
          })
  end

let instant ?(cat = "instant") ?args name =
  if enabled () then
    emit
      {
        name;
        cat;
        ph = `Instant;
        ts_ns = Clock.now_ns ();
        dur_ns = 0.0;
        tid = tid ();
        seq = next_seq ();
        args = force_args args;
      }

(* -- the per-pass entry point ------------------------------------------- *)

let m_passes = Metrics.(lazily counter "xpose.passes_total")
let m_pred = Metrics.(lazily counter "xpose.pred_touches_total")

let pass ~name ?(batch = 1) ?(block = 1) ~rows ~cols ~pred_touches
    ~scratch_elems f =
  Metrics.incr (m_passes ());
  Metrics.incr ~by:pred_touches (m_pred ());
  Metrics.incr (Metrics.counter ("pass." ^ name));
  Metrics.incr ~by:pred_touches (Metrics.counter ("pass." ^ name ^ ".touches"));
  if not (enabled ()) then f ()
  else begin
    let ambient = ambient_args () in
    with_span ~cat:"pass"
      ~args:(fun () ->
        [
          ("batch", Int batch);
          ("rows", Int rows);
          ("cols", Int cols);
          ("block", Int block);
          ("pred_touches", Int pred_touches);
          ("scratch_elems", Int scratch_elems);
        ]
        @ ambient)
      name f
  end

let m_panels = Metrics.(lazily counter "xpose.panels_total")

let panel ~name ~lo ~width ~rows ~pred_touches f =
  Metrics.incr (m_panels ());
  if not (enabled ()) then f ()
  else begin
    let ambient = ambient_args () in
    with_span ~cat:"panel"
      ~args:(fun () ->
        [
          ("lo", Int lo);
          ("width", Int width);
          ("rows", Int rows);
          ("pred_touches", Int pred_touches);
        ]
        @ ambient)
      name f
  end

(* -- sinks --------------------------------------------------------------- *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_json_float b x =
  if Float.is_finite x then
    (* shortest representation that still round-trips closely enough for
       microsecond timestamps *)
    Buffer.add_string b (Printf.sprintf "%.3f" x)
  else Buffer.add_string b "0"

let buf_add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> buf_add_json_float b f
  | Str s -> buf_add_json_string b s
  | Bool x -> Buffer.add_string b (if x then "true" else "false")

let buf_add_event b ev =
  Buffer.add_string b "{\"name\":";
  buf_add_json_string b ev.name;
  Buffer.add_string b ",\"cat\":";
  buf_add_json_string b ev.cat;
  Buffer.add_string b ",\"ph\":";
  (match ev.ph with
  | `Complete -> Buffer.add_string b "\"X\""
  | `Instant -> Buffer.add_string b "\"i\",\"s\":\"t\"");
  Buffer.add_string b ",\"ts\":";
  buf_add_json_float b (ev.ts_ns /. 1e3);
  (match ev.ph with
  | `Complete ->
      Buffer.add_string b ",\"dur\":";
      buf_add_json_float b (ev.dur_ns /. 1e3)
  | `Instant -> ());
  Buffer.add_string b ",\"pid\":1,\"tid\":";
  Buffer.add_string b (string_of_int ev.tid);
  Buffer.add_string b ",\"args\":{\"seq\":";
  Buffer.add_string b (string_of_int ev.seq);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    ev.args;
  Buffer.add_string b "}}"

let to_chrome_json_events evs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      buf_add_event b ev)
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let to_chrome_json () = to_chrome_json_events (events ())

(* -- the flush sink ------------------------------------------------------ *)

(* A registered sink receives a full snapshot of the buffer on every
   [flush]: flushing is idempotent (re-render everything, overwrite),
   so a server can flush mid-run for durability and again at shutdown
   without the application tracking deltas. *)
let sink : (event list -> unit) option Atomic.t = Atomic.make None

let set_sink s = Atomic.set sink s

let flush () =
  match Atomic.get sink with None -> () | Some f -> f (events ())

let pp_value = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool x -> string_of_bool x

let to_text () =
  let es =
    List.sort
      (fun a b ->
        match Float.compare a.ts_ns b.ts_ns with
        | 0 -> compare a.seq b.seq
        | c -> c)
      (events ())
  in
  let t0 = match es with [] -> 0.0 | e :: _ -> e.ts_ns in
  let b = Buffer.create 1024 in
  List.iter
    (fun ev ->
      Printf.bprintf b "%10.3fms %-6s %-24s" ((ev.ts_ns -. t0) /. 1e6) ev.cat
        ev.name;
      (match ev.ph with
      | `Complete -> Printf.bprintf b " %10.3fms" (ev.dur_ns /. 1e6)
      | `Instant -> Buffer.add_string b "           -");
      Printf.bprintf b " tid=%d" ev.tid;
      List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k (pp_value v)) ev.args;
      Buffer.add_char b '\n')
    es;
  Buffer.contents b
