(* ooc_window: [Ooc_f64.transpose_file] with its defaults (sequential
   pool, prefetch on) and the server's default 4 MiB tenant window, on
   files at least four times that window, so every transpose streams
   row windows and staged column panels. The files are written once
   and stay in the page cache: this measures windowing and mapping,
   not the disk. *)

module S = Perfbench_core.Stats
module Sp = Perfbench_core.Spans
module M = Xpose_obs.Metrics

let window_bytes = Gen.ooc_window_bytes
let chunk_elems = 65536

(* A file holds an r x c matrix with element (i, j) = i * c + j + base,
   or its c x r transpose when [transposed]. *)
type file = { path : string; r : int; c : int; base : int; mutable transposed : bool }

let dims f = if f.transposed then (f.c, f.r) else (f.r, f.c)

(* Write the untransposed contents in fixed-size chunks, so staging
   does not raise the process's resident set. *)
let write_contents f =
  let buf = Bytes.create (8 * chunk_elems) in
  Xpose_mmap.File_matrix.with_fd ~path:f.path (fun fd ->
      let total = f.r * f.c in
      let pos = ref 0 in
      while !pos < total do
        let len = min chunk_elems (total - !pos) in
        for k = 0 to len - 1 do
          Bytes.set_int64_le buf (8 * k) (Int64.bits_of_float (float_of_int (!pos + k + f.base)))
        done;
        let rec put off rem =
          if rem > 0 then
            let w = Unix.write fd buf off rem in
            put (off + w) (rem - w)
        in
        put 0 (8 * len);
        pos := !pos + len
      done)

(* Read the file back in chunks and compare every element with the
   value the current orientation puts there. *)
let verify f =
  let buf = Bytes.create (8 * chunk_elems) in
  let rows, cols = dims f in
  let ok = ref true in
  Xpose_mmap.File_matrix.with_fd ~write:false ~path:f.path (fun fd ->
      (* (row, col) of the next element in the current orientation *)
      let row = ref 0 and col = ref 0 in
      let total = rows * cols in
      let pos = ref 0 in
      while !pos < total do
        let len = min chunk_elems (total - !pos) in
        let rec get off rem =
          if rem > 0 then begin
            let got = Unix.read fd buf off rem in
            if got = 0 then failwith "short file";
            get (off + got) (rem - got)
          end
        in
        get 0 (8 * len);
        for k = 0 to len - 1 do
          let v = Int64.float_of_bits (Bytes.get_int64_le buf (8 * k)) in
          let src = if f.transposed then (!col * f.c) + !row else (!row * f.c) + !col in
          if v <> float_of_int (src + f.base) then ok := false;
          incr col;
          if !col = cols then begin
            col := 0;
            incr row
          end
        done;
        pos := !pos + len
      done);
  !ok

let transpose f =
  let m, n = dims f in
  Xpose_ooc.Ooc_f64.transpose_file ~window_bytes ~path:f.path ~m ~n ();
  f.transposed <- not f.transposed

(* Stage every file (create, write), then one untimed warm-up transpose. *)
let setup_once ~seed ~tr () =
  Report.ensure_out_dir ();
  let files =
    Array.mapi
      (fun k (r, c) ->
        let f =
          {
            path = Printf.sprintf "%s/ooc-%d-%d.bin" Report.out_dir (Unix.getpid ()) k;
            r;
            c;
            base = k * 10_000_000;
            transposed = false;
          }
        in
        Sp.span tr "mmap.create" (fun () ->
            Xpose_mmap.File_matrix.create ~path:f.path ~elements:(r * c));
        write_contents f;
        f)
      (Gen.ooc_shapes (Gen.rng ~seed 4))
  in
  transpose files.(0);
  (files, verify files.(0))

let remove files = Array.iter (fun f -> try Sys.remove f.path with Sys_error _ -> ()) files

(* Typical wall time of one round, verification included, on a 2-core
   Xeon VM. *)
let nominal_round_s = 2.8

(* A fixed number of whole rounds, one transpose of every file each. *)
let run_phase ~seconds ~tr files =
  let t = Tally.create () in
  for _ = 1 to Report.rounds ~seconds ~nominal_round_s do
    Array.iter
      (fun f ->
        ignore
          (Tally.op t ~what:f.path ~elems:(f.r * f.c)
             (fun op -> Sp.span tr ~op "ooc.transpose_file" (fun () -> transpose f))
             (fun () -> verify f));
        (* A mapped window is released only when the collector frees its
           bigarray, and no collection is forced inside a call. Collecting
           between calls (untimed) makes every call start with nothing
           mapped, so peak_rss_mb reads the residency of one call instead
           of however many calls the collector happened to lag behind. *)
        Gc.full_major ())
      files
  done;
  t

let counter name = float_of_int (M.counter_value (M.counter name))

let run ~seed ~seconds ~trace =
  let tr = if trace then Some (Sp.create ~now:Cpuclock.self_ns) else None in
  let (files, setup_ok), setup_s =
    Report.repeat_setup ~release:(fun (files, _) -> remove files) (setup_once ~seed ~tr)
  in
  Fun.protect
    ~finally:(fun () -> remove files)
    (fun () ->
      match tr with
      | None ->
          let t = run_phase ~seconds ~tr:None files in
          let run = Tally.to_run t ~setup_s ~setup_ok in
          let lines, metrics = Report.e2e run in
          (run, Printf.sprintf "window %d bytes" window_bytes :: lines, metrics)
      | Some tr ->
          let names =
            [
              "ooc.windows";
              "ooc.bytes_mapped";
              "ooc.prefetch_hits";
              "ooc.prefetch_waits";
              "plan_cache.hits";
              "plan_cache.misses";
            ]
          in
          let c0 = List.map counter names in
          let a = run_phase ~seconds:(seconds /. 2.0) ~tr:None files in
          let d = List.map2 (fun n v -> (n, counter n -. v)) names c0 in
          let get n = List.assoc n d in
          let b = run_phase ~seconds:(seconds /. 2.0) ~tr:(Some tr) files in
          let peak = M.gauge_value (M.gauge "ooc.window_peak_bytes") in
          let spans = Sp.spans tr in
          let durs name = Array.of_list (List.map Sp.duration (Sp.named spans name)) in
          let file = Report.write_trace ~workload:"ooc_window" ~seed spans in
          let m = Report.m in
          let metrics =
            [
              m "plan_cache.hit_ratio" "1"
                (get "plan_cache.hits" /. (get "plan_cache.hits" +. get "plan_cache.misses"))
                ~note:"untraced half";
              m "ooc.prefetch_hit_ratio" "1"
                (get "ooc.prefetch_hits" /. (get "ooc.prefetch_hits" +. get "ooc.prefetch_waits"))
                ~note:"hits / (hits + waits), untraced half";
              m "ooc.map_amplification" "1"
                (get "ooc.bytes_mapped" /. (8.0 *. float_of_int a.elems))
                ~note:"bytes mapped / file bytes transposed, untraced half";
              m "ooc.windows_per_call" "count" (get "ooc.windows" /. float_of_int a.attempted);
              m "ooc.peak_over_window" "1"
                (peak /. float_of_int window_bytes)
                ~note:"ooc.window_peak_bytes / window_bytes";
              m "mmap.create_ms" "ms"
                (S.median (durs "mmap.create") /. 1e6)
                ~note:"median File_matrix.create, set-up";
              m "trace.overhead" "1"
                ((Tally.rate b /. Tally.rate a) -. 1.0)
                ~note:(Printf.sprintf "traced %d ops vs untraced %d ops" b.ok a.ok);
            ]
          in
          ( Tally.to_run (Tally.merge a b) ~setup_s ~setup_ok,
            [ "spans written to " ^ file ],
            Report.complete Report.per_layer_names metrics ))
