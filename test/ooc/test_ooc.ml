open Xpose_ooc

let temp_path () = Filename.temp_file "xpose_ooc" ".mat"

let with_file ~elements f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xpose_mmap.File_matrix.create ~path ~elements;
      Xpose_mmap.File_matrix.with_map ~path (fun buf ->
          Xpose_core.Storage.fill_iota (module Xpose_core.Storage.Float64) buf);
      f path)

let check_transposed ~m ~n path =
  Xpose_mmap.File_matrix.with_map ~write:false ~path (fun buf ->
      let ok = ref true in
      for l = 0 to (m * n) - 1 do
        let expected = float_of_int ((n * (l mod m)) + (l / m)) in
        if Bigarray.Array1.get buf l <> expected then ok := false
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d matches the in-RAM oracle bit-for-bit" m n)
        true !ok)

(* -- window geometry ------------------------------------------------------- *)

let test_window_split () =
  let ws = Window.split ~total:10 ~per:3 in
  Alcotest.(check (list (pair int int)))
    "split 10 by 3"
    [ (0, 3); (3, 6); (6, 9); (9, 10) ]
    (List.map (fun w -> (w.Window.lo, w.Window.hi)) ws);
  Alcotest.(check int) "clamped per" 7
    (List.length (Window.split ~total:7 ~per:0));
  Alcotest.(check (list (pair int int))) "empty range" []
    (List.map (fun w -> (w.Window.lo, w.Window.hi)) (Window.split ~total:0 ~per:4));
  (* exact disjoint cover, for a spread of totals and windows *)
  List.iter
    (fun (total, per) ->
      let ws = Window.split ~total ~per in
      let covered = ref 0 in
      List.iter
        (fun w ->
          Alcotest.(check int) "windows are adjacent" !covered w.Window.lo;
          Alcotest.(check bool) "window is non-empty" true (w.Window.hi > w.Window.lo);
          covered := w.Window.hi)
        ws;
      Alcotest.(check int) "windows cover the range" total !covered)
    [ (1, 1); (1, 100); (17, 4); (64, 64); (65, 64); (1000, 7) ]

let test_overlapping_split () =
  let ws = Window.overlapping_split ~total:10 ~per:4 in
  Alcotest.(check (list (pair int int)))
    "every window but the last grabs one extra unit"
    [ (0, 5); (4, 9); (8, 10) ]
    (List.map (fun w -> (w.Window.lo, w.Window.hi)) ws)

let test_window_sizing () =
  Alcotest.(check int) "budget_elems" 2048 (Window.budget_elems ~window_bytes:16384);
  Alcotest.(check int) "budget floor" 1 (Window.budget_elems ~window_bytes:3);
  Alcotest.(check int) "row_rows double-buffers" 12
    (Window.row_rows ~budget_elems:2048 ~n:80);
  Alcotest.(check int) "row_rows floor" 1 (Window.row_rows ~budget_elems:10 ~n:80);
  Alcotest.(check int) "panel_cols quarters the budget" 5
    (Window.panel_cols ~budget_elems:2048 ~m:96);
  Alcotest.(check int) "stripe_rows" 6 (Window.stripe_rows ~budget_elems:2048 ~n:80)

(* -- the I/O domain -------------------------------------------------------- *)

let test_io_domain_order () =
  Io_domain.with_io (fun io ->
      let log = ref [] in
      let jobs =
        List.map
          (fun k -> Io_domain.async io (fun () -> log := k :: !log))
          [ 1; 2; 3; 4 ]
      in
      List.iter (fun j -> ignore (Io_domain.await j)) jobs;
      Alcotest.(check (list int)) "jobs ran in submission order" [ 4; 3; 2; 1 ] !log)

let test_io_domain_hit_detection () =
  Io_domain.with_io (fun io ->
      let slow = Io_domain.async io (fun () -> Unix.sleepf 0.2) in
      Alcotest.(check bool) "a running job is a prefetch miss" false
        (Io_domain.await slow);
      let fast = Io_domain.async io (fun () -> ()) in
      Unix.sleepf 0.1;
      Alcotest.(check bool) "a finished job is a prefetch hit" true
        (Io_domain.await fast))

let test_io_domain_exception () =
  Io_domain.with_io (fun io ->
      let job = Io_domain.async io (fun () -> failwith "boom") in
      Alcotest.check_raises "job exceptions surface at await" (Failure "boom")
        (fun () -> ignore (Io_domain.await job));
      (* the domain survives a failed job *)
      let ok = Io_domain.async io (fun () -> ()) in
      ignore (Io_domain.await ok))

(* Stop while a job is in flight and more are queued: the draining stop
   must run everything (no lost scatter-backs), not deadlock, and stay
   idempotent. The in-flight job is gated so the stop provably overlaps
   it. *)
let test_io_domain_drain_stop () =
  let io = Io_domain.create () in
  let started = Atomic.make false and gate = Atomic.make false in
  let count = Atomic.make 0 in
  let j1 =
    Io_domain.async io (fun () ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        Atomic.incr count)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let queued =
    List.init 8 (fun _ -> Io_domain.async io (fun () -> Atomic.incr count))
  in
  (* stop joins the worker, so issue it while j1 is still blocked and
     release the gate afterwards — if stop dropped queued jobs or
     deadlocked, the join below would hang or the count would fall
     short. *)
  let stopper = Thread.create (fun () -> Io_domain.stop io) () in
  Atomic.set gate true;
  Thread.join stopper;
  Alcotest.(check int) "in-flight and queued jobs all ran" 9
    (Atomic.get count);
  ignore (Io_domain.await j1);
  List.iter (fun j -> ignore (Io_domain.await j)) queued;
  (* idempotent: a second stop (and a cancelling one) return at once *)
  Io_domain.stop io;
  Io_domain.stop ~drain:false io;
  Alcotest.check_raises "async after stop is refused"
    (Invalid_argument "Io_domain.async: domain was shut down") (fun () ->
      ignore (Io_domain.async io (fun () -> ())))

(* Cancelling stop: queued-but-unstarted jobs are discarded and their
   awaiters raise [Cancelled_job]; the job the worker is executing still
   completes. Deterministic: the worker is pinned inside j1 until the
   cancellation has been observed, so j2/j3 cannot have started. *)
let test_io_domain_cancel_stop () =
  let io = Io_domain.create () in
  let started = Atomic.make false and release = Atomic.make false in
  let ran = Atomic.make 0 in
  let j1 =
    Io_domain.async io (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let j2 = Io_domain.async io (fun () -> Atomic.incr ran) in
  let j3 = Io_domain.async io (fun () -> Atomic.incr ran) in
  let stopper = Thread.create (fun () -> Io_domain.stop ~drain:false io) () in
  Alcotest.check_raises "first queued job cancelled" Io_domain.Cancelled_job
    (fun () -> ignore (Io_domain.await j2));
  Alcotest.check_raises "second queued job cancelled" Io_domain.Cancelled_job
    (fun () -> ignore (Io_domain.await j3));
  Atomic.set release true;
  Thread.join stopper;
  Alcotest.(check bool) "in-flight job ran to completion" true
    (Io_domain.await j1);
  Alcotest.(check int) "cancelled jobs never executed" 0 (Atomic.get ran);
  Io_domain.stop ~drain:false io (* idempotent *)

(* -- out-of-core transposition vs the in-RAM oracle ------------------------ *)

(* Shapes covering every structural regime: degenerate (identity),
   coprime and non-coprime on both C2R and R2C sides, prime x prime, and
   panel/window counts that are not multiples of the worker count. *)
let oracle_shapes =
  (* >= 4 windows whenever any pass runs at all *)
  List.map
    (fun (m, n) -> (m, n, max 8 (m * n * 8 / 5)))
    [ (1, 64); (64, 1); (29, 31); (31, 29); (32, 48); (48, 36); (97, 89); (16, 33) ]

let run_oracle ?(shapes = oracle_shapes) ~prefetch ~workers () =
  List.iter
    (fun (m, n, window_bytes) ->
      with_file ~elements:(m * n) (fun path ->
          let go pool =
            Ooc_f64.transpose_file ~pool ~window_bytes ~prefetch ~path ~m ~n ()
          in
          (if workers = 1 then go Xpose_cpu.Pool.sequential
           else Xpose_cpu.Pool.with_pool ~workers go);
          check_transposed ~m ~n path))
    shapes

(* Shapes whose last column panel is narrower than the rest, so the
   hand-off that gathers it scatters a wider panel out of the same
   staging: C2R (60 x 42) and R2C (42 x 60) with gcd 6 and a 2-column
   last panel, and C2R (50 x 36, gcd 2) with a 1-column last panel. *)
let narrow_last_panel = [ (60, 42, 9600); (42, 60, 9600); (50, 36, 8000) ]

let test_narrow_last_panel () =
  List.iter
    (fun (m, n, window_bytes) ->
      let per =
        Window.panel_cols
          ~budget_elems:(Window.budget_elems ~window_bytes)
          ~m:(max m n)
      in
      let pn = min m n in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d: last panel narrower than %d" m n per)
        true
        (pn mod per <> 0 && pn > per && m * n * 8 > window_bytes))
    narrow_last_panel;
  List.iter
    (fun (prefetch, workers) ->
      run_oracle ~shapes:narrow_last_panel ~prefetch ~workers ())
    [ (true, 1); (false, 1); (true, 2); (false, 2); (true, 3); (false, 3) ]

let test_fits_in_window () =
  List.iter
    (fun (m, n) ->
      with_file ~elements:(m * n) (fun path ->
          Ooc_f64.transpose_file ~path ~m ~n ();
          check_transposed ~m ~n path))
    [ (32, 48); (29, 31) ]

let test_col_major_order () =
  let m = 36 and n = 48 in
  with_file ~elements:(m * n) (fun path ->
      (* col-major m x n is row-major n x m over the same bytes *)
      let window_bytes = m * n * 8 / 5 in
      Ooc_f64.transpose_file ~order:Xpose_core.Layout.Col_major ~window_bytes
        ~path ~m ~n ();
      check_transposed ~m:n ~n:m path)

(* -- residency and prefetch accounting ------------------------------------- *)

let test_bounded_residency () =
  Xpose_obs.Metrics.reset ();
  let m = 96 and n = 80 in
  let window_bytes = 16384 in
  with_file ~elements:(m * n) (fun path ->
      Xpose_cpu.Pool.with_pool ~workers:3 (fun pool ->
          Ooc_f64.transpose_file ~pool ~window_bytes ~path ~m ~n ());
      check_transposed ~m ~n path);
  let peak =
    Xpose_obs.Metrics.gauge_value (Xpose_obs.Metrics.gauge "ooc.window_peak_bytes")
  in
  Alcotest.(check bool) "peak resident bytes are recorded" true (peak > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "peak %.0f stays within the %d-byte budget" peak window_bytes)
    true
    (peak <= float_of_int window_bytes);
  let counter name =
    Xpose_obs.Metrics.counter_value (Xpose_obs.Metrics.counter name)
  in
  Alcotest.(check bool) "file is 4x the budget => several windows" true
    (counter "ooc.windows" > 4);
  Alcotest.(check bool) "bytes_mapped counts total window traffic" true
    (counter "ooc.bytes_mapped" > m * n * 8);
  Alcotest.(check bool) "every window was either a hit or a wait" true
    (counter "ooc.prefetch_hits" + counter "ooc.prefetch_waits" > 0)

(* Exact mapping count for 96 x 80 (C2R, gcd 16) at a 16 KiB window,
   2048 elements: 8 row windows of 12 rows; two column passes
   (rotate_pre, fused_col) of 16 panels of 5 columns, each stripe sweep
   mapping 16 stripes of 6 rows. Without prefetch a pass hands off in
   16 + 1 sweeps (first gather, then one exchange per panel); with it,
   in 16 + 2 (the second panel is gathered on its own, the last panel
   scattered on its own). Separate gathers and scatters would map
   2 * 16 sweeps per pass. *)
let test_window_count () =
  let m = 96 and n = 80 and window_bytes = 16384 in
  let budget = Window.budget_elems ~window_bytes in
  let count ws ~per = List.length (Window.split ~total:ws ~per) in
  let rows = count m ~per:(Window.row_rows ~budget_elems:budget ~n) in
  let panels = count n ~per:(Window.panel_cols ~budget_elems:budget ~m) in
  let stripes = count m ~per:(Window.stripe_rows ~budget_elems:budget ~n) in
  Alcotest.(check (list int)) "geometry" [ 8; 16; 16 ] [ rows; panels; stripes ];
  List.iter
    (fun (prefetch, sweeps, expected) ->
      Alcotest.(check int) "windows from the geometry" expected
        (rows + (2 * sweeps * stripes));
      Xpose_obs.Metrics.reset ();
      with_file ~elements:(m * n) (fun path ->
          Ooc_f64.transpose_file ~window_bytes ~prefetch ~path ~m ~n ();
          check_transposed ~m ~n path);
      Alcotest.(check int)
        (Printf.sprintf "ooc.windows, prefetch %b" prefetch)
        expected
        (Xpose_obs.Metrics.counter_value (Xpose_obs.Metrics.counter "ooc.windows")))
    [ (true, panels + 2, 584); (false, panels + 1, 552) ]

(* Every mapping is released before [transpose_file] returns, with no
   collection forced: /proc/self/maps lists none of the file. A line is
   the file's when both its inode and its file name match, so neither a
   symlinked temp directory nor an unrelated file with the same inode
   number on another device can confuse the count. *)
let maps_of_file path =
  let ino = string_of_int (Unix.stat path).Unix.st_ino in
  let base = Filename.basename path in
  In_channel.with_open_bin "/proc/self/maps" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | _ :: _ :: _ :: _ :: inode :: file :: _ ->
             inode = ino && Filename.basename file = base
         | _ -> false)
  |> List.length

let test_no_mapping_survives () =
  (match In_channel.with_open_bin "/proc/self/maps" In_channel.input_line with
  | Some _ -> ()
  | None | (exception Sys_error _) -> Alcotest.skip ());
  let m = 96 and n = 80 in
  List.iter
    (fun (prefetch, workers) ->
      with_file ~elements:(m * n) (fun path ->
          Xpose_cpu.Pool.with_pool ~workers (fun pool ->
              Ooc_f64.transpose_file ~pool ~window_bytes:16384 ~prefetch ~path
                ~m ~n ());
          Alcotest.(check int)
            (Printf.sprintf "mappings left (prefetch %b, %d workers)" prefetch
               workers)
            0 (maps_of_file path);
          check_transposed ~m ~n path))
    [ (true, 1); (false, 1); (true, 3) ]

let test_no_prefetch_counters () =
  Xpose_obs.Metrics.reset ();
  let m = 48 and n = 36 in
  with_file ~elements:(m * n) (fun path ->
      Ooc_f64.transpose_file ~window_bytes:(m * n * 8 / 4) ~prefetch:false ~path
        ~m ~n ();
      check_transposed ~m ~n path);
  let counter name =
    Xpose_obs.Metrics.counter_value (Xpose_obs.Metrics.counter name)
  in
  Alcotest.(check int) "no prefetch, no hits" 0 (counter "ooc.prefetch_hits");
  Alcotest.(check int) "no prefetch, no waits" 0 (counter "ooc.prefetch_waits")

(* -- error paths ----------------------------------------------------------- *)

let test_errors () =
  with_file ~elements:12 (fun path ->
      Alcotest.check_raises "length mismatch"
        (Invalid_argument "Ooc_f64.transpose_file: file does not hold m*n elements")
        (fun () -> Ooc_f64.transpose_file ~path ~m:5 ~n:3 ());
      Alcotest.check_raises "bad dimensions"
        (Invalid_argument "Ooc_f64.transpose_file: dimensions must be positive")
        (fun () -> Ooc_f64.transpose_file ~path ~m:0 ~n:12 ());
      Alcotest.check_raises "bad window budget"
        (Invalid_argument "Ooc_f64.transpose_file: window_bytes must be at least 8")
        (fun () -> Ooc_f64.transpose_file ~window_bytes:7 ~path ~m:4 ~n:3 ()))

let () =
  Alcotest.run "xpose_ooc"
    [
      ( "window",
        [
          Alcotest.test_case "split" `Quick test_window_split;
          Alcotest.test_case "overlapping split (seeded)" `Quick
            test_overlapping_split;
          Alcotest.test_case "budget sizing" `Quick test_window_sizing;
        ] );
      ( "io_domain",
        [
          Alcotest.test_case "submission order" `Quick test_io_domain_order;
          Alcotest.test_case "hit detection" `Quick test_io_domain_hit_detection;
          Alcotest.test_case "exception propagation" `Quick
            test_io_domain_exception;
          Alcotest.test_case "draining stop with in-flight job" `Quick
            test_io_domain_drain_stop;
          Alcotest.test_case "cancelling stop" `Quick
            test_io_domain_cancel_stop;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "sequential, prefetch" `Quick
            (run_oracle ~prefetch:true ~workers:1);
          Alcotest.test_case "sequential, no prefetch" `Quick
            (run_oracle ~prefetch:false ~workers:1);
          Alcotest.test_case "3 workers, prefetch" `Quick
            (run_oracle ~prefetch:true ~workers:3);
          Alcotest.test_case "3 workers, no prefetch" `Quick
            (run_oracle ~prefetch:false ~workers:3);
          Alcotest.test_case "narrower last panel" `Quick
            test_narrow_last_panel;
          Alcotest.test_case "fits in one window" `Quick test_fits_in_window;
          Alcotest.test_case "column-major order" `Quick test_col_major_order;
        ] );
      ( "residency",
        [
          Alcotest.test_case "bounded residency" `Quick test_bounded_residency;
          Alcotest.test_case "no-prefetch counters" `Quick
            test_no_prefetch_counters;
          Alcotest.test_case "exact window count" `Quick test_window_count;
          Alcotest.test_case "no mapping survives the call" `Quick
            test_no_mapping_survives;
        ] );
      ("errors", [ Alcotest.test_case "invalid arguments" `Quick test_errors ]);
    ]
