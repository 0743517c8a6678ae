(* serve_pipelined: the job server in its own process on
   [Server.default_config], driven by one generator process over two
   connections. The loop is closed: each connection keeps [depth]
   [Protocol] frames in flight, pipelined and matched by id, and sends
   the next request only when a reply comes back.

   Time is read on the server process's CPU clock: a request's latency
   is the server CPU time spent between its send and its reply (its own
   work and the work queued ahead of it), and rates are per server CPU
   second. That clock stops while the host runs other guests, and while
   the server waits on the generator. Server CPU time is scaled to the
   reference speed by a [Refspeed] probe the generator takes every
   [probe_every] replies. *)

open Xpose_core
module P = Xpose_server.Protocol
module A1 = Bigarray.Array1
module S = Perfbench_core.Stats
module Sp = Perfbench_core.Spans
module J = Xpose_obs.Json_lite

let connections = 2

(* Frames in flight per connection. With 2 x 6 requests queued over a
   12-shape pool, same-shape jobs meet in the queue and the coalescer
   batches them. *)
let depth = 6

let max_busy_retries = 50
let probe_every = 48

(* -- the server process ------------------------------------------------ *)

let serve ~socket_path =
  let server = Xpose_server.Server.start (Xpose_server.Server.default_config ~socket_path) in
  let stop_rd, stop_wr = Unix.pipe () in
  let request_stop _ = try ignore (Unix.write stop_wr (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> () in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  let rec wait () =
    match Unix.select [ stop_rd ] [] [] (-1.0) with
    | [], _, _ -> wait ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Xpose_server.Server.stop server;
  exit 0

(* -- server lifecycle, seen from the generator -------------------------- *)

let live = ref []

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter stop_server !live)

let spawn_server ~socket_path =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; socket_path |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  live := pid :: !live;
  pid

let rec connect ~socket_path ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when Mono.now_s () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect ~socket_path ~deadline

(* -- traffic ------------------------------------------------------------- *)

type pool = { shapes : (int * int) array; payloads : P.buf array; bases : int array }

let make_pool ~seed =
  let shapes = Gen.serve_pool (Gen.rng ~seed 2) in
  let bases = Array.mapi (fun k _ -> k * 1_000_000) shapes in
  let payloads =
    Array.mapi
      (fun k (m, n) ->
        let b = A1.create Bigarray.float64 Bigarray.c_layout (m * n) in
        W_serial.fill b ~len:(m * n) ~base:bases.(k);
        b)
      shapes
  in
  { shapes; payloads; bases }

type pending = {
  shape : int;
  t0 : float;  (** send time, server CPU clock (ns) *)
  w0 : float;  (** send time, wall clock (ns) *)
  tries : int;
}

type phase = {
  lat_ms : float list;  (** server CPU clock, scaled *)
  wall_lat_ms : float list;
  ok : int;
  attempted : int;
  fails : S.failures;
  server_cpu_s : float;  (** scaled *)
  raw_server_cpu_s : float;
  wall_s : float;
  elems : int;
  sent : int;  (** frames, retries included *)
  busy : int;
  cpu_s : float;  (** the generator's own CPU time *)
  frame_bytes : float;  (** bytes of encoded requests *)
}

(* One timed phase of [requests] fresh requests (retries not counted);
   the last ones drain before it ends. [server_cpu_ns] reads the server
   process's CPU clock. *)
let run_phase ~seed ~requests ~tr ~server_cpu_ns ~pool fds =
  let sp name f = Sp.span tr name f in
  let next_shape = Gen.deck (Gen.rng ~seed 3) (Array.length pool.shapes) in
  let pend = Array.map (fun _ -> Hashtbl.create 16) fds in
  let next_id = ref 1 in
  let lat = ref [] and wall_lat = ref [] and ok = ref 0 and attempted = ref 0 and elems = ref 0 in
  let errors = ref 0 and wrong = ref 0 and busy_exhausted = ref 0 and exns = ref 0 in
  let sent = ref 0 and busy = ref 0 and frame_bytes = ref 0.0 in
  let plan_cache = Plan.Cache.create () in
  let send c p =
    let id = !next_id in
    incr next_id;
    let m, n = pool.shapes.(p.shape) in
    if tr <> None then
      sp "plan.get" (fun () -> ignore (Plan.Cache.get ~cache:plan_cache ~m:(max m n) ~n:(min m n) ()));
    let body =
      sp "protocol.encode_request" (fun () ->
          P.encode_request
            (P.Transpose
               { id; trace = 0; tenant = ""; priority = P.Normal; m; n; payload = pool.payloads.(p.shape) }))
    in
    sp "protocol.write_frame" (fun () -> P.write_frame fds.(c) body);
    frame_bytes := !frame_bytes +. float_of_int (Bytes.length body);
    incr sent;
    Hashtbl.replace pend.(c) id p
  in
  let fresh c =
    incr attempted;
    send c { shape = next_shape (); t0 = server_cpu_ns (); w0 = Mono.now_ns (); tries = 0 }
  in
  let cpu0 = Cpuclock.self_s () in
  let server0 = server_cpu_ns () in
  (* Server CPU time is scaled window by window: [scale] was probed when
     the current window opened, at server CPU time [window0]. *)
  let scale = ref (Refspeed.scale ()) and window0 = ref server0 in
  let scaled_ns = ref 0.0 and replies = ref 0 in
  let close_window () =
    let now = server_cpu_ns () in
    scaled_ns := !scaled_ns +. ((now -. !window0) *. !scale);
    window0 := now
  in
  let t_start = Mono.now_s () in
  let fill () =
    Array.iteri
      (fun c _ ->
        while Hashtbl.length pend.(c) < depth && !attempted < requests do
          fresh c
        done)
      fds
  in
  let receive c =
    match P.read_frame fds.(c) with
    | Error _ -> failwith "server closed the connection or broke framing"
    | Ok body -> (
        match sp "protocol.decode_response" (fun () -> P.decode_response body) with
        | Error e -> failwith ("undecodable reply: " ^ P.error_to_string e)
        | Ok resp -> (
            let id = P.response_id resp in
            let p = Hashtbl.find pend.(c) id in
            Hashtbl.remove pend.(c) id;
            incr replies;
            if !replies mod probe_every = 0 then begin
              close_window ();
              scale := Refspeed.scale ()
            end;
            match resp with
            | P.Result { m = rm; n = rn; payload; _ } ->
                let t1 = server_cpu_ns () and w1 = Mono.now_ns () in
                fill ();
                let m, n = pool.shapes.(p.shape) in
                if rm = n && rn = m && A1.dim payload = m * n
                   && W_serial.check_transposed payload ~m ~n ~base:pool.bases.(p.shape)
                then begin
                  incr ok;
                  elems := !elems + (m * n);
                  lat := ((t1 -. p.t0) *. 1e-6 *. !scale) :: !lat;
                  wall_lat := ((w1 -. p.w0) *. 1e-6) :: !wall_lat
                end
                else incr wrong
            | P.Busy _ ->
                incr busy;
                if p.tries >= max_busy_retries then begin
                  incr busy_exhausted;
                  fill ()
                end
                else begin
                  Unix.sleepf 0.001;
                  send c { p with tries = p.tries + 1 }
                end
            | P.Error_reply { message; _ } ->
                incr errors;
                Printf.eprintf "server error: %s\n%!" message;
                fill ()
            | P.Stats_reply _ ->
                incr errors;
                fill ()))
  in
  (try
     fill ();
     while Array.exists (fun h -> Hashtbl.length h > 0) pend do
       let waiting = List.filter (fun c -> Hashtbl.length pend.(c) > 0) (List.init connections Fun.id) in
       let ready, _, _ = Unix.select (List.map (fun c -> fds.(c)) waiting) [] [] 1.0 in
       List.iter (fun c -> if List.mem fds.(c) ready then receive c) waiting
     done
   with e ->
     Printf.eprintf "generator failed: %s\n%!" (Printexc.to_string e);
     (* every op still in flight is lost *)
     exns := !exns + max 1 (Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 pend));
  let wall_s = Mono.now_s () -. t_start in
  close_window ();
  {
    lat_ms = List.rev !lat;
    wall_lat_ms = List.rev !wall_lat;
    ok = !ok;
    attempted = !attempted;
    fails = { S.errors = !errors; wrong = !wrong; busy_exhausted = !busy_exhausted; exceptions = !exns };
    server_cpu_s = !scaled_ns *. 1e-9;
    raw_server_cpu_s = (server_cpu_ns () -. server0) *. 1e-9;
    wall_s;
    elems = !elems;
    sent = !sent;
    busy = !busy;
    cpu_s = Cpuclock.self_s () -. cpu0;
    frame_bytes = !frame_bytes;
  }

(* -- set-up: server start, first accept, traffic staging, warm-up ------- *)

(* One untimed request on the first shape, answered and verified. *)
let warm_up fd pool =
  let m, n = pool.shapes.(0) in
  P.write_frame fd
    (P.encode_request
       (P.Transpose { id = 0; trace = 0; tenant = ""; priority = P.Normal; m; n; payload = pool.payloads.(0) }));
  match Result.map P.decode_response (P.read_frame fd) with
  | Ok (Ok (P.Result { payload; _ })) -> W_serial.check_transposed payload ~m ~n ~base:pool.bases.(0)
  | _ -> false

type live_server = { pid : int; socket_path : string; fds : Unix.file_descr array; pool : pool }

(* Start the server, connect, stage the traffic, one untimed request. *)
let setup_once ~seed ~socket_path () =
  let pid = spawn_server ~socket_path in
  let deadline = Mono.now_s () +. 10.0 in
  let fds = Array.init connections (fun _ -> connect ~socket_path ~deadline) in
  let pool = make_pool ~seed in
  ({ pid; socket_path; fds; pool }, warm_up fds.(0) pool)

let close_server srv =
  Array.iter Unix.close srv.fds;
  stop_server srv.pid;
  try Sys.remove srv.socket_path with Sys_error _ -> ()

(* -- server counters ----------------------------------------------------- *)

let stats srv =
  let json = Xpose_server.Client.with_client ~socket_path:srv.socket_path Xpose_server.Client.stats in
  match J.parse json with Ok j -> j | Error e -> failwith ("stats reply: " ^ e)

let counter j name =
  Option.value ~default:0.0 (Option.bind (J.mem "counters" j) (J.num_field name))

let hist j name =
  let h = Option.bind (J.mem "histograms" j) (J.mem name) in
  let f k = Option.value ~default:0.0 (Option.bind h (J.num_field k)) in
  (f "count", f "sum")

(* Exact mean of a server histogram over a phase, from sum and count. *)
let hist_mean_ms j0 j1 name =
  let c0, s0 = hist j0 name and c1, s1 = hist j1 name in
  (s1 -. s0) /. (c1 -. c0) /. 1e6

let delta j0 j1 name = counter j1 name -. counter j0 name

let to_run ~setup_s ~setup_ok ~rss ph =
  {
    Report.setup_s;
    lat_ms = Array.of_list ph.lat_ms;
    ok = ph.ok;
    attempted = ph.attempted;
    fails = { ph.fails with errors = ph.fails.errors + (if setup_ok then 0 else 1) };
    timed_s = ph.server_cpu_s;
    cpu_s = ph.raw_server_cpu_s;
    wall_s = ph.wall_s;
    elems = ph.elems;
    peak_rss_mb = rss;
  }

(* Both halves of a traced run, for its correctness counts. *)
let merge a b =
  let sum f = f a + f b in
  {
    b with
    ok = sum (fun ph -> ph.ok);
    attempted = sum (fun ph -> ph.attempted);
    fails =
      {
        S.errors = sum (fun ph -> ph.fails.errors);
        wrong = sum (fun ph -> ph.fails.wrong);
        busy_exhausted = sum (fun ph -> ph.fails.busy_exhausted);
        exceptions = sum (fun ph -> ph.fails.exceptions);
      };
  }

let context_lines j0 j1 ph =
  [
    Printf.sprintf "closed loop: %d connections x depth %d; %d frames sent, %d busy replies" connections depth
      ph.sent ph.busy;
    Printf.sprintf "coalescer: %.0f jobs in %.0f batches; ooc routes %.0f; generator cpu share %.3f"
      (delta j0 j1 "server.batched_jobs") (delta j0 j1 "server.batches") (counter j1 "server.admit.ooc")
      (ph.cpu_s /. ph.wall_s);
  ]

(* Codec calls the server makes, replayed in the generator on the same
   payloads: decode each request body, encode each reply. *)
let replay_server_codec tr pool =
  Array.iteri
    (fun k (m, n) ->
      let body =
        P.encode_request
          (P.Transpose { id = k; trace = 0; tenant = ""; priority = P.Normal; m; n; payload = pool.payloads.(k) })
      in
      for _ = 1 to 20 do
        ignore (Sp.with_span tr "protocol.decode_request" (fun () -> P.decode_request body));
        ignore
          (Sp.with_span tr "protocol.encode_response" (fun () ->
               P.encode_response (P.Result { id = k; m = n; n = m; payload = pool.payloads.(k) })))
      done)
    pool.shapes

(* Typical request rate, per wall second, on a 2-core Xeon VM. *)
let nominal_ops_per_s = 160.0

(* Fresh requests in [seconds]: a fixed number of whole passes over the
   shape pool, so every run holds the same work and sample count
   however fast the host is. *)
let requests ~seconds =
  let pool = float_of_int Gen.serve_pool_len in
  Gen.serve_pool_len * max 1 (truncate ((seconds *. nominal_ops_per_s /. pool) +. 0.5))

let run ~seed ~seconds ~trace =
  Report.ensure_out_dir ();
  let socket_path = Printf.sprintf "%s/serve-%d.sock" Report.out_dir (Unix.getpid ()) in
  let (srv, setup_ok), setup_s =
    Report.repeat_setup
      ~child_cpu_s:(fun (srv, _) -> Cpuclock.pid_s srv.pid)
      ~release:(fun (srv, _) -> close_server srv)
      (setup_once ~seed ~socket_path)
  in
  let server_cpu_ns () = Cpuclock.pid_ns srv.pid in
  if not trace then begin
    let j0 = stats srv in
    let ph =
      run_phase ~seed ~requests:(requests ~seconds) ~tr:None ~server_cpu_ns ~pool:srv.pool srv.fds
    in
    let j1 = stats srv in
    let rss = Proc.peak_rss_mb (string_of_int srv.pid) in
    close_server srv;
    let run = to_run ~setup_s ~setup_ok ~rss ph in
    let lines, metrics = Report.e2e run in
    (run, context_lines j0 j1 ph @ lines, metrics)
  end
  else begin
    let half = requests ~seconds:(seconds /. 2.0) in
    let a = run_phase ~seed ~requests:half ~tr:None ~server_cpu_ns ~pool:srv.pool srv.fds in
    (* Wall clock, like the server's own latency histograms it is
       compared with in client.unattributed_ms. *)
    let tr = Sp.create ~now:Mono.now_ns in
    let j0 = stats srv in
    let b = run_phase ~seed ~requests:half ~tr:(Some tr) ~server_cpu_ns ~pool:srv.pool srv.fds in
    let j1 = stats srv in
    replay_server_codec tr srv.pool;
    let rss = Proc.peak_rss_mb (string_of_int srv.pid) in
    close_server srv;
    let spans = Sp.spans tr in
    let durs name = Array.of_list (List.map Sp.duration (Sp.named spans name)) in
    let med_us name = S.median (durs name) /. 1e3 in
    let mean_ms name = S.mean (durs name) /. 1e6 in
    let server_ms = hist_mean_ms j0 j1 "server.latency_ns" in
    let client_ms = S.mean (Array.of_list b.wall_lat_ms) in
    let rate ph = float_of_int ph.ok /. ph.server_cpu_s in
    let file = Report.write_trace ~workload:"serve_pipelined" ~seed spans in
    let m = Report.m in
    let replayed = "replayed in the generator on the same payloads" in
    let metrics =
      [
        m "plan.get_us" "us" (med_us "plan.get") ~note:"median, replayed in the generator: cache hits";
        m "plan_cache.hit_ratio" "1"
          (let h = delta j0 j1 "plan_cache.hits" and mi = delta j0 j1 "plan_cache.misses" in
           h /. (h +. mi))
          ~note:"server counters";
        m "protocol.encode_request_us" "us" (med_us "protocol.encode_request") ~note:"median";
        m "protocol.encode_mb_s" "MB/s"
          (b.frame_bytes /. (S.sum (durs "protocol.encode_request") /. 1e3))
          ~note:"request bytes / encode time";
        m "protocol.decode_response_us" "us" (med_us "protocol.decode_response") ~note:"median";
        m "protocol.write_frame_us" "us" (med_us "protocol.write_frame") ~note:"median";
        m "protocol.decode_request_us" "us" (med_us "protocol.decode_request") ~note:replayed;
        m "protocol.encode_response_us" "us" (med_us "protocol.encode_response") ~note:replayed;
        m "server.latency_ms" "ms" server_ms ~note:"exact mean from histogram sum/count";
        m "server.queue_wait_ms" "ms" (hist_mean_ms j0 j1 "server.queue_wait_ns") ~note:"exact mean";
        m "server.dequeue_to_dispatch_ms" "ms"
          (hist_mean_ms j0 j1 "server.coalesce_delay_ns")
          ~note:"server.coalesce_delay_ns: dispatch minus dequeue, exact mean";
        m "client.unattributed_ms" "ms"
          (client_ms -. server_ms -. mean_ms "protocol.encode_request" -. mean_ms "protocol.decode_response")
          ~note:"client mean - server mean - codec means";
        m "coalescer.jobs_per_batch" "count"
          (delta j0 j1 "server.batched_jobs" /. delta j0 j1 "server.batches");
        m "admission.busy_ratio" "1" (float_of_int b.busy /. float_of_int b.sent) ~note:"busy replies / frames";
        m "admission.ooc_routes" "count" (counter j1 "server.admit.ooc") ~note:"whole run, must be 0";
        m "loadgen.cpu_share" "1" (a.cpu_s /. a.wall_s) ~note:"generator cpu / wall, untraced half";
        m "trace.overhead" "1" ((rate b /. rate a) -. 1.0)
          ~note:(Printf.sprintf "traced %d ops vs untraced %d ops" b.ok a.ok);
      ]
    in
    ( to_run ~setup_s ~setup_ok ~rss (merge a b),
      context_lines j0 j1 b @ [ "spans written to " ^ file ],
      Report.complete Report.per_layer_names metrics )
  end
