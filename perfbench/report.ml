(* The benchmark's output: named metrics with units, printed one per
   line for people and then as the single JSON object the last line of
   standard output must hold. Values print with all their digits. *)

type metric = { name : string; unit_ : string; value : float; note : string }

let m ?(note = "") name unit_ value = { name; unit_; value; note }

(* The end-to-end metrics every workload reports with tracing off. *)
let e2e_names =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("eq37_gbps", "GB/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("peak_rss_mb", "MB");
    ("success_ratio", "1");
  ]

(* The per-layer metrics every traced run reports. A workload that does
   not exercise a layer reports 0 for it, marked "not exercised". *)
let per_layer_names =
  [
    ("plan.get_us", "us");
    ("plan_cache.hit_ratio", "1");
    ("fused.rotate.gbps", "GB/s");
    ("fused.rotate.share", "1");
    ("fused.rotate.roof_frac", "1");
    ("fused.col.gbps", "GB/s");
    ("fused.col.share", "1");
    ("fused.col.roof_frac", "1");
    ("fused.cycles_ms", "ms");
    ("kernels.row_shuffle.gbps", "GB/s");
    ("kernels.row_shuffle.share", "1");
    ("kernels.row_shuffle.roof_frac", "1");
    ("fused.unattributed_share", "1");
    ("protocol.encode_request_us", "us");
    ("protocol.encode_mb_s", "MB/s");
    ("protocol.decode_response_us", "us");
    ("protocol.write_frame_us", "us");
    ("protocol.decode_request_us", "us");
    ("protocol.encode_response_us", "us");
    ("server.latency_ms", "ms");
    ("server.queue_wait_ms", "ms");
    ("server.dequeue_to_dispatch_ms", "ms");
    ("client.unattributed_ms", "ms");
    ("coalescer.jobs_per_batch", "count");
    ("admission.busy_ratio", "1");
    ("admission.ooc_routes", "count");
    ("loadgen.cpu_share", "1");
    ("ooc.prefetch_hit_ratio", "1");
    ("ooc.map_amplification", "1");
    ("ooc.windows_per_call", "count");
    ("ooc.peak_over_window", "1");
    ("mmap.create_ms", "ms");
    ("permute.plan_us", "us");
    ("permute.pass.flat.gbps", "GB/s");
    ("permute.pass.batched.gbps", "GB/s");
    ("permute.pass.blocks.gbps", "GB/s");
    ("permute.pass.batched_blocks.gbps", "GB/s");
    ("permute.plan_regret", "1");
    ("permute.rank_agreement", "1");
    ("trace.overhead", "1");
  ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Complete [got] against [names]: every name appears once, in order,
   with the declared unit; a missing or non-finite value reads 0 with a
   note saying why. *)
let complete names got =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) got with
      | Some x when Float.is_finite x.value ->
          if x.unit_ <> unit_ then failwith (Printf.sprintf "unit of %s: %s <> %s" name x.unit_ unit_);
          x
      | Some x -> { x with value = 0.0; note = "no samples" }
      | None -> m ~note:"not exercised by this workload" name unit_ 0.0)
    names

let print ~correct ~attempted ~failed ~lines metrics =
  List.iter (fun l -> Printf.printf "# %s\n" l) lines;
  List.iter
    (fun x ->
      Printf.printf "%-34s %16s %-6s %s\n" x.name (number x.value) x.unit_
        (if x.note = "" then "" else "(" ^ x.note ^ ")"))
    metrics;
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (number x.value) x.unit_)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* Where a traced run leaves its spans (inside the checkout). *)
let out_dir = ".bench_out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let write_trace ~workload ~seed spans =
  ensure_out_dir ();
  let file = Printf.sprintf "%s/trace-%s-%d.json" out_dir workload seed in
  let oc = open_out file in
  output_string oc (Perfbench_core.Spans.to_chrome_json spans);
  close_out oc;
  file

(* One workload's end-to-end measurements with tracing off. Times are
   CPU time scaled to the reference speed (see [Refspeed]). *)
type run = {
  setup_s : float array;  (** one sample per set-up repetition *)
  lat_ms : float array;  (** per verified op *)
  ok : int;  (** verified ops *)
  attempted : int;
  fails : Perfbench_core.Stats.failures;
  timed_s : float;  (** the timed phase, scaled *)
  cpu_s : float;  (** the timed phase, unscaled CPU time *)
  wall_s : float;  (** the timed phase on the wall clock *)
  elems : int;  (** elements moved by verified ops *)
  peak_rss_mb : float;
}

(* Set-up runs this many times per run; [setup_s] is the median. *)
let setup_reps = 7

(* Time [once ()] [setup_reps] times on the CPU clock, scaled to the
   reference speed, handing every result but the last to [release].
   [child_cpu_s x] is the CPU time of processes [once] started, read
   before [x] is released. Returns the last result and the times. *)
let repeat_setup ?(child_cpu_s = fun _ -> 0.0) ~release once =
  let samples = Array.make setup_reps 0.0 in
  let rec go i =
    let t0 = Cpuclock.self_s () in
    let x = once () in
    let cpu = Cpuclock.self_s () -. t0 +. child_cpu_s x in
    samples.(i) <- cpu *. Refspeed.scale ();
    if i + 1 < setup_reps then begin
      release x;
      go (i + 1)
    end
    else x
  in
  let x = go 0 in
  (x, samples)

(* Rounds a run of [seconds] executes, for a workload whose round takes
   about [nominal_round_s]. A fixed amount of work per run (rather than
   "until the time is up") keeps the sample count, and with it the
   tail percentile the run reports, the same on a fast and a slow
   machine. *)
let rounds ~seconds ~nominal_round_s = max 1 (truncate ((seconds /. nominal_round_s) +. 0.5))

let e2e r =
  let module S = Perfbench_core.Stats in
  let tail = S.tail r.lat_ms in
  let fail_ratio = S.fail_ratio r.fails ~attempted:r.attempted in
  let lines =
    [
      Printf.sprintf "setup samples (s, scaled): %s"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.setup_s)));
      Printf.sprintf "timed phase: %d verified ops, %d elements; %.3f s scaled, %.3f CPU s, %.3f s wall"
        r.ok r.elems r.timed_s r.cpu_s r.wall_s;
      Printf.sprintf "latency samples: n=%d; tail = p%g%s" tail.n (100.0 *. tail.q)
        (if tail.exact then "" else " (fewer samples than the lowest tail rung needs)");
      String.concat ", "
        (List.map
           (fun q ->
             Printf.sprintf "p%g %.4g ms (%d beyond)" (100.0 *. q)
               (S.quantile r.lat_ms q)
               (S.beyond ~n:(Array.length r.lat_ms) q))
           S.tail_ladder);
      Printf.sprintf "fail_ratio = %d/%d = %g (errors %d, wrong %d, busy exhausted %d, exceptions %d)"
        (S.failed r.fails) r.attempted fail_ratio r.fails.errors r.fails.wrong
        r.fails.busy_exhausted r.fails.exceptions;
    ]
  in
  let scaled = "CPU time at reference speed" in
  let metrics =
    [
      m "setup_s" "s" (S.median r.setup_s) ~note:(scaled ^ ", median of set-up repetitions");
      m "ops_per_s" "1/s" (float_of_int r.ok /. r.timed_s) ~note:scaled;
      m "eq37_gbps" "GB/s" (S.eq37_gbps ~elems:r.elems ~elt_bytes:8 ~seconds:r.timed_s) ~note:scaled;
      m "latency_p50_ms" "ms" (S.median r.lat_ms) ~note:(Printf.sprintf "%s, n=%d" scaled tail.n);
      m "latency_tail_ms" "ms" tail.value
        ~note:(Printf.sprintf "%s, p%g, n=%d" scaled (100.0 *. tail.q) tail.n);
      m "peak_rss_mb" "MB" r.peak_rss_mb ~note:"VmHWM; median over ops on in-process workloads";
      m "success_ratio" "1" (1.0 -. fail_ratio) ~note:"1 - fail_ratio";
    ]
  in
  (lines, complete e2e_names metrics)
