open Xpose_obs

(* The load-bearing claim: counters are exact under concurrent bumps from
   pool workers (sharded cells, atomic increments), not merely
   approximate. *)
let test_counter_parallel () =
  let c = Metrics.counter "test.parallel_bumps" in
  let before = Metrics.counter_value c in
  let n = 100_000 in
  Xpose_cpu.Pool.with_pool ~workers:4 (fun pool ->
      Xpose_cpu.Pool.parallel_for pool ~lo:0 ~hi:n (fun _ -> Metrics.incr c));
  Alcotest.(check int) "exact total" n (Metrics.counter_value c - before)

let test_counter_by_parallel () =
  let c = Metrics.counter "test.parallel_by" in
  let before = Metrics.counter_value c in
  Xpose_cpu.Pool.with_pool ~workers:4 (fun pool ->
      Xpose_cpu.Pool.parallel_for pool ~lo:0 ~hi:1_000 (fun i ->
          Metrics.incr ~by:i c));
  Alcotest.(check int)
    "exact weighted total" (1000 * 999 / 2)
    (Metrics.counter_value c - before)

(* Registration on first use, forced by racing pool workers and then by
   connection-style systhreads. Each registration sleeps, so the first
   caller is still registering when the others arrive: a [lazy] value
   raises [CamlinternalLazy.Undefined] there, [Metrics.lazily] hands
   every caller the one registered metric. *)
let slowly register name =
  Thread.delay 0.02;
  register name

let test_lazy_counter_parallel () =
  let get = Metrics.lazily (slowly Metrics.counter) "test.lazy_parallel" in
  let n = 10_000 in
  Xpose_cpu.Pool.with_pool ~workers:4 (fun pool ->
      Xpose_cpu.Pool.parallel_for pool ~lo:0 ~hi:n (fun _ ->
          Metrics.incr (get ())));
  Alcotest.(check int) "exact total" n
    (Metrics.counter_value (Metrics.counter "test.lazy_parallel"));
  let gauge = Metrics.lazily (slowly Metrics.gauge) "test.lazy_threads_gauge" in
  let hist =
    Metrics.lazily (slowly Metrics.histogram) "test.lazy_threads_hist"
  in
  let threads = 8 and per_thread = 100 in
  let errors = Atomic.make 0 in
  let workers =
    List.init threads (fun t ->
        Thread.create
          (fun () ->
            try
              for i = 1 to per_thread do
                Metrics.set_gauge (gauge ()) (float_of_int t);
                Metrics.observe (hist ()) (float_of_int i)
              done
            with _ -> Atomic.incr errors)
          ())
  in
  List.iter Thread.join workers;
  Alcotest.(check int) "no thread failed" 0 (Atomic.get errors);
  Alcotest.(check int) "every observation on one histogram"
    (threads * per_thread)
    (Metrics.histogram_count (Metrics.histogram "test.lazy_threads_hist"));
  Alcotest.(check bool) "gauge holds a thread's write" true
    (let v = Metrics.gauge_value (Metrics.gauge "test.lazy_threads_gauge") in
     v >= 0.0 && v < float_of_int threads)

let test_shards_sum () =
  let c = Metrics.counter "test.shard_sum" in
  Xpose_cpu.Pool.with_pool ~workers:4 (fun pool ->
      Xpose_cpu.Pool.parallel_for pool ~lo:0 ~hi:10_000 (fun _ ->
          Metrics.incr c));
  let total = Array.fold_left ( + ) 0 (Metrics.shard_values c) in
  Alcotest.(check int) "shards sum to value" (Metrics.counter_value c) total

let test_registration_idempotent () =
  let a = Metrics.counter "test.same_name" in
  Metrics.incr a;
  let b = Metrics.counter "test.same_name" in
  Metrics.incr b;
  Alcotest.(check int) "one underlying counter" 2 (Metrics.counter_value a)

let test_type_mismatch () =
  ignore (Metrics.counter "test.typed");
  Alcotest.check_raises "gauge under a counter name"
    (Invalid_argument
       "Metrics: \"test.typed\" is already registered as another metric type")
    (fun () -> ignore (Metrics.gauge "test.typed"))

let test_gauge_histogram () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.set_gauge g 1.5;
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "last write wins" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 1007.0 (Metrics.histogram_sum h);
  let bucketed =
    Array.fold_left (fun a (_, c) -> a + c) 0 (Metrics.histogram_buckets h)
  in
  Alcotest.(check int) "every observation bucketed" 4 bucketed

let test_histogram_quantile () =
  let h = Metrics.histogram "test.quantile" in
  Alcotest.(check bool)
    "empty histogram yields nan" true
    (Float.is_nan (Metrics.histogram_quantile h 0.5));
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  (* Four observations, one per log2 bucket: rank q*4 walks the
     cumulative counts, interpolating inside the bucket it lands in. *)
  Alcotest.(check (float 1e-9))
    "p25 is bucket 0's upper bound" 1.0
    (Metrics.histogram_quantile h 0.25);
  Alcotest.(check (float 1e-9))
    "p50 is bucket 1's upper bound" 2.0
    (Metrics.histogram_quantile h 0.50);
  Alcotest.(check (float 1e-9))
    "p100 is bucket 3's upper bound" 8.0
    (Metrics.histogram_quantile h 1.0);
  (* Out-of-range q clamps rather than extrapolating. *)
  Alcotest.(check (float 1e-9))
    "q > 1 clamps to the max" 8.0
    (Metrics.histogram_quantile h 2.0);
  Alcotest.(check bool)
    "q <= 0 clamps to a finite value" true
    (Float.is_finite (Metrics.histogram_quantile h (-1.0)));
  Alcotest.(check bool)
    "NaN q yields nan" true
    (Float.is_nan (Metrics.histogram_quantile h Float.nan))

let test_dump_sorted () =
  (* Exposition and diffing rely on a deterministic dump order; register
     in reverse-alphabetical order and assert the snapshot is sorted. *)
  ignore (Metrics.counter "test.sorted.z");
  ignore (Metrics.counter "test.sorted.a");
  ignore (Metrics.counter "test.sorted.m");
  let names = List.map fst (Metrics.dump ()) in
  Alcotest.(check (list string))
    "dump is sorted by name"
    (List.sort String.compare names)
    names;
  let all_names = List.map fst (Metrics.all ()) in
  Alcotest.(check (list string))
    "all () is sorted by name"
    (List.sort String.compare all_names)
    all_names

let test_dump_and_render () =
  let c = Metrics.counter "test.dumped" in
  Metrics.incr ~by:7 c;
  (match List.assoc_opt "test.dumped" (Metrics.dump ()) with
  | Some (Metrics.Counter 7) -> ()
  | _ -> Alcotest.fail "dump missing test.dumped = 7");
  let rendered = Metrics.render () in
  let has_line =
    String.split_on_char '\n' rendered
    |> List.exists (fun l ->
           let has s sub =
             let n = String.length sub in
             let rec go i =
               i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
             in
             go 0
           in
           has l "test.dumped" && has l "7")
  in
  Alcotest.(check bool) "rendered line present" true has_line

let test_render_json () =
  let c = Metrics.counter "test.json.counter" in
  Metrics.incr ~by:3 c;
  Metrics.set_gauge (Metrics.gauge "test.json.gauge") 2.5;
  let h = Metrics.histogram "test.json.hist" in
  Metrics.observe h 1.0;
  Metrics.observe h 2.0;
  let json = Metrics.render_json () in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true (has sub))
    [
      "\"counters\"";
      "\"gauges\"";
      "\"histograms\"";
      "\"test.json.counter\": 3";
      "\"test.json.gauge\": 2.5";
      (* p50 of [1.0; 2.0] interpolates to bucket 0's upper bound,
         exactly 1.0; p90/p99 land mid-bucket so only their presence is
         pinned (their rendering tracks float interpolation). *)
      "\"test.json.hist\": {\"count\": 2, \"sum\": 3.0, \"p50\": 1.0";
      "\"p90\": ";
      "\"p99\": ";
    ];
  (* integral gauges render with a decimal point so consumers parse a
     stable number type *)
  Metrics.set_gauge (Metrics.gauge "test.json.gauge") 4.0;
  Alcotest.(check bool) "integral floats keep a decimal point" true
    (let json = Metrics.render_json () in
     let n = String.length "\"test.json.gauge\": 4.0" in
     let sub = "\"test.json.gauge\": 4.0" in
     let rec go i =
       i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
     in
     go 0)

let test_render_json_non_finite () =
  (* A degenerate computation can park NaN or infinity in a gauge (or
     overflow a histogram sum); the snapshot must stay parseable JSON
     rather than emit bare [nan]/[inf] tokens. *)
  Metrics.set_gauge (Metrics.gauge "test.json.nan_gauge") nan;
  Metrics.set_gauge (Metrics.gauge "test.json.inf_gauge") infinity;
  let h = Metrics.histogram "test.json.inf_hist" in
  Metrics.observe h infinity;
  let json = Metrics.render_json () in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true (has sub))
    [
      "\"test.json.nan_gauge\": null";
      "\"test.json.inf_gauge\": null";
      "\"sum\": null";
    ];
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "no bare %s token" sub)
        false (has sub))
    [ ": nan"; ": inf"; ": -inf" ];
  (* Leave finite values behind so later tests see a sane registry. *)
  Metrics.set_gauge (Metrics.gauge "test.json.nan_gauge") 0.0;
  Metrics.set_gauge (Metrics.gauge "test.json.inf_gauge") 0.0

let tests =
  [
    Alcotest.test_case "parallel counter is exact" `Quick test_counter_parallel;
    Alcotest.test_case "parallel incr ~by is exact" `Quick
      test_counter_by_parallel;
    Alcotest.test_case "lazy counter forced by racing workers" `Quick
      test_lazy_counter_parallel;
    Alcotest.test_case "shard values sum to the total" `Quick test_shards_sum;
    Alcotest.test_case "registration is idempotent by name" `Quick
      test_registration_idempotent;
    Alcotest.test_case "name/type mismatch raises" `Quick test_type_mismatch;
    Alcotest.test_case "gauges and histograms" `Quick test_gauge_histogram;
    Alcotest.test_case "histogram_quantile" `Quick test_histogram_quantile;
    Alcotest.test_case "dump is sorted by name" `Quick test_dump_sorted;
    Alcotest.test_case "dump and render" `Quick test_dump_and_render;
    Alcotest.test_case "render_json" `Quick test_render_json;
    Alcotest.test_case "render_json stays valid on non-finite floats" `Quick
      test_render_json_non_finite;
  ]
