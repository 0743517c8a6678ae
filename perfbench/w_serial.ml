(* transpose_serial: single-domain in-place f64 transposes through
   [Fused_f64.transpose ~m ~n buf], the call a library user makes. Every
   shape is distinct, so every plan lookup misses [Plan.Cache]. *)

open Xpose_core
module F = Xpose_cpu.Fused_f64
module A1 = Bigarray.Array1
module S = Perfbench_core.Stats
module Sp = Perfbench_core.Spans

type buf = Storage.Float64.t

(* Element k of a fresh m x n input holds [k + base]; [base] differs per
   op so a stale buffer cannot pass the check. *)
let fill (b : buf) ~len ~base =
  for k = 0 to len - 1 do
    A1.unsafe_set b k (float_of_int (k + base))
  done

(* After the transpose, row r of the n x m result holds column r of the
   source: element (r, c) must be source element c * n + r. *)
let check_transposed (b : buf) ~m ~n ~base =
  let ok = ref true in
  for r = 0 to n - 1 do
    let row = r * m in
    for c = 0 to m - 1 do
      if A1.unsafe_get b (row + c) <> float_of_int ((c * n) + r + base) then ok := false
    done
  done;
  !ok

(* The buffer holds the largest shape the range allows; each op runs on a
   prefix view of it, so peak RSS does not depend on allocator timing. *)
let max_elems = Gen.serial_hi * Gen.serial_hi

(* Typical wall time of one round, verification included, on a 2-core
   Xeon VM. *)
let nominal_round_s = 4.0

(* Allocate and touch the buffer, then one untimed warm-up transpose. *)
let setup_once () =
  let big = A1.create Bigarray.float64 Bigarray.c_layout max_elems in
  fill big ~len:max_elems ~base:0;
  let m, n = Gen.warmup_shape in
  let v = A1.sub big 0 (m * n) in
  fill v ~len:(m * n) ~base:1;
  F.transpose ~m ~n v;
  (big, check_transposed v ~m ~n ~base:1)

(* The decomposition [Fused_f64.transpose] runs, called layer by layer
   so each call gets a span. Same plan key, same pass order. *)
let composed tr ~op ~m ~n (buf : buf) =
  let module K = Kernels_f64.Phases in
  let sp name f = Sp.with_span tr ~op name f in
  let ws = F.Ws.create () in
  if m > n then begin
    let p = sp "plan.get" (fun () -> Plan.Cache.get ~m ~n ()) in
    if not (Plan.coprime p) then
      sp "fused.rotate" (fun () -> F.rotate_columns ~ws p buf ~amount:(Plan.rotate_amount p));
    sp "kernels.row_shuffle" (fun () ->
        K.row_shuffle_gather p buf ~tmp:(F.Ws.tmp ws (Plan.scratch_elements p)) ~lo:0 ~hi:p.m);
    let cycles = sp "fused.cycles" (fun () -> F.cycles ~m:p.m ~index:(Plan.q p)) in
    sp "fused.col" (fun () -> F.c2r_cols ~ws p buf ~cycles);
    p
  end
  else begin
    let p = sp "plan.get" (fun () -> Plan.Cache.get ~m:n ~n:m ()) in
    let cycles = sp "fused.cycles" (fun () -> F.cycles ~m:p.m ~index:(Plan.q_inv p)) in
    sp "fused.col" (fun () -> F.r2c_cols ~ws p buf ~cycles);
    sp "kernels.row_shuffle" (fun () ->
        K.row_shuffle_ungather p buf ~tmp:(F.Ws.tmp ws (Plan.scratch_elements p)) ~lo:0 ~hi:p.m);
    if not (Plan.coprime p) then
      sp "fused.rotate" (fun () ->
          F.rotate_columns ~ws p buf ~amount:(fun j -> -Plan.rotate_amount p j));
    p
  end

(* Bytes each pass moves, computed from the Pass_cost touch model (8
   bytes per touch), not measured. *)
let pass_bytes (p : Plan.t) =
  [
    ( "fused.rotate",
      if Plan.coprime p then 0
      else Pass_cost.panel_rotate p ~width:F.default_width ~amount:(Plan.rotate_amount p) );
    ("kernels.row_shuffle", Pass_cost.shuffle p);
    ("fused.col", Pass_cost.fused_col p);
  ]
  |> List.map (fun (name, touches) -> (name, 8.0 *. float_of_int touches))

(* A fixed number of whole rounds. Traced ([tr] given), each op runs
   [composed] under spans and is followed, untimed, by the engine on the
   same shape for the unattributed share; [bytes] sums [pass_bytes]. *)
let run_phase ~seed ~seconds ~tr ~bytes big =
  let t = Tally.create () in
  let st = Gen.rng ~seed 1 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to Report.rounds ~seconds ~nominal_round_s do
    Array.iter
      (fun (m, n) ->
        if not (Hashtbl.mem seen (m, n)) then begin
          Hashtbl.add seen (m, n) ();
          let base = 1 + (t.attempted mod 1024) in
          let v = A1.sub big 0 (m * n) in
          fill v ~len:(m * n) ~base;
          let plan = ref None in
          let run op =
            match tr with
            | None -> F.transpose ~m ~n v
            | Some tr -> plan := Some (Sp.with_span tr ~op "op" (fun () -> composed tr ~op ~m ~n v))
          in
          let what = Printf.sprintf "%dx%d" m n in
          let verified = Tally.op t ~what ~elems:(m * n) run (fun () -> check_transposed v ~m ~n ~base) in
          match (tr, !plan) with
          | Some tr, Some p when verified ->
              List.iter
                (fun (name, b) ->
                  Hashtbl.replace bytes name (b +. Option.value (Hashtbl.find_opt bytes name) ~default:0.0))
                (pass_bytes p);
              fill v ~len:(m * n) ~base;
              Sp.with_span tr "engine" (fun () -> F.transpose ~m ~n v);
              if not (check_transposed v ~m ~n ~base) then t.wrong <- t.wrong + 1
          | _ -> ()
        end)
      (Gen.serial_round st)
  done;
  t

let counter name = Xpose_obs.Metrics.counter_value (Xpose_obs.Metrics.counter name)

let run ~seed ~seconds ~trace =
  let (big, setup_ok), setup_s =
    Report.repeat_setup ~release:(fun _ -> Gc.full_major ()) setup_once
  in
  let no_bytes = Hashtbl.create 1 in
  if not trace then begin
    let t = run_phase ~seed ~seconds ~tr:None ~bytes:no_bytes big in
    let run = Tally.to_run t ~setup_s ~setup_ok in
    let lines, metrics = Report.e2e run in
    (run, lines, metrics)
  end
  else begin
    (* Untraced half first (also the plan-cache ratio: the real
       workload's lookups), then the same rounds traced. *)
    let h0 = counter "plan_cache.hits" and m0 = counter "plan_cache.misses" in
    let a = run_phase ~seed ~seconds:(seconds /. 2.0) ~tr:None ~bytes:no_bytes big in
    let hits = counter "plan_cache.hits" - h0 and misses = counter "plan_cache.misses" - m0 in
    Plan.Cache.clear Plan.Cache.default;
    let tr = Sp.create ~now:Cpuclock.self_ns in
    let bytes = Hashtbl.create 8 in
    let b = run_phase ~seed ~seconds:(seconds /. 2.0) ~tr:(Some tr) ~bytes big in
    let cal = Xpose_obs.Calibrate.run () in
    let spans = Sp.spans tr in
    let self = Sp.self_times spans in
    let sum_self name =
      List.fold_left (fun acc s -> acc +. Hashtbl.find self s.Sp.id) 0.0 (Sp.named spans name)
    in
    let durs name = Array.of_list (List.map Sp.duration (Sp.named spans name)) in
    let op_ns = S.sum (durs "op") in
    let bytes_of name = Option.value (Hashtbl.find_opt bytes name) ~default:0.0 in
    let gbps name = Xpose_obs.Roofline.achieved_gbps ~bytes:(bytes_of name) ~dur_ns:(sum_self name) in
    (* Roofs are picked by the engine's own pass names. *)
    let roof name engine_pass =
      Xpose_obs.Roofline.fraction cal
        (Xpose_obs.Roofline.kind_of_pass engine_pass)
        ~bytes:(bytes_of name) ~dur_ns:(sum_self name)
    in
    let passes_ns =
      sum_self "fused.rotate" +. sum_self "kernels.row_shuffle" +. sum_self "fused.cycles"
      +. sum_self "fused.col"
    in
    let file = Report.write_trace ~workload:"transpose_serial" ~seed spans in
    let m = Report.m in
    let computed = "bytes computed from Pass_cost touches" in
    let metrics =
      [
        m "plan.get_us" "us" (S.median (durs "plan.get") /. 1e3) ~note:"median, cache misses";
        m "plan_cache.hit_ratio" "1"
          (float_of_int hits /. float_of_int (max 1 (hits + misses)))
          ~note:(Printf.sprintf "%d hits / %d lookups, untraced half" hits (hits + misses));
        m "fused.rotate.gbps" "GB/s" (gbps "fused.rotate") ~note:computed;
        m "fused.rotate.share" "1" (sum_self "fused.rotate" /. op_ns);
        m "fused.rotate.roof_frac" "1" (roof "fused.rotate" "rotate_pre") ~note:"scatter roof";
        m "fused.col.gbps" "GB/s" (gbps "fused.col") ~note:computed;
        m "fused.col.share" "1" (sum_self "fused.col" /. op_ns);
        m "fused.col.roof_frac" "1" (roof "fused.col" "fused_col") ~note:"gather roof";
        m "fused.cycles_ms" "ms" (S.median (durs "fused.cycles") /. 1e6) ~note:"median";
        m "kernels.row_shuffle.gbps" "GB/s" (gbps "kernels.row_shuffle") ~note:computed;
        m "kernels.row_shuffle.share" "1" (sum_self "kernels.row_shuffle" /. op_ns);
        m "kernels.row_shuffle.roof_frac" "1"
          (roof "kernels.row_shuffle" "row_shuffle")
          ~note:"permute roof";
        m "fused.unattributed_share" "1"
          (1.0 -. (passes_ns /. S.sum (durs "engine")))
          ~note:"1 - sum of pass time / engine time, same shapes";
        m "trace.overhead" "1"
          ((Tally.rate b /. Tally.rate a) -. 1.0)
          ~note:(Printf.sprintf "traced %d ops vs untraced %d ops" b.ok a.ok);
      ]
    in
    ( Tally.to_run (Tally.merge a b) ~setup_s ~setup_ok,
      [ "spans written to " ^ file ],
      Report.complete Report.per_layer_names metrics )
  end
