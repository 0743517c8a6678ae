open Xpose_core

(* Property tests for the calibrated pricing:
   [Pass_cost.rates_of_calibration] must hand back exactly the per-byte
   costs the probes measured, and the width-scaled rates must respond to
   a perturbed calibration monotonically — otherwise any ranking of
   candidate passes by predicted cost is garbage. *)

let probe gbps = { Xpose_obs.Calibrate.gbps; ns_per_byte = 1.0 /. gbps }

let cal_of ~stream ~gather ~scatter ~permute =
  {
    Xpose_obs.Calibrate.elems = 1 lsl 16;
    repeats = 3;
    panel_width = 16;
    stream = probe stream;
    gather = probe gather;
    scatter = probe scatter;
    permute = probe permute;
    ghz = None;
  }

(* gbps quadruple with every strided roof at or below the stream roof
   (what real machines measure), so the width-scaling excess is
   non-negative and the stream floor never engages mid-property. *)
let gen_cal =
  QCheck2.Gen.(
    bind (float_range 20.0 60.0) (fun stream ->
        map
          (fun (g, (sc, p)) ->
            cal_of ~stream ~gather:(stream *. g) ~scatter:(stream *. sc)
              ~permute:(stream *. p))
          (pair (float_range 0.05 1.0)
             (pair (float_range 0.05 1.0) (float_range 0.05 1.0)))))

let close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let prop_rates_reproduce_probes =
  QCheck2.Test.make ~name:"rates_of_calibration reproduces the probe costs"
    ~count:200 gen_cal (fun cal ->
      let r = Pass_cost.rates_of_calibration cal in
      let open Xpose_obs.Calibrate in
      close r.Pass_cost.stream_ns_per_byte cal.stream.ns_per_byte
      && close r.Pass_cost.gather_ns_per_byte cal.gather.ns_per_byte
      && close r.Pass_cost.scatter_ns_per_byte cal.scatter.ns_per_byte
      && close r.Pass_cost.permute_ns_per_byte cal.permute.ns_per_byte
      (* and at the calibrated width the scaled rate is the probe rate
         itself (floored at the stream roof) *)
      && List.for_all
           (fun (kind, probe_rate) ->
             close
               (Pass_cost.rate_at_width r kind ~calibrated_width:16 ~width:16)
               (Float.max cal.stream.ns_per_byte probe_rate))
           [
             (Xpose_obs.Roofline.Gather, cal.gather.ns_per_byte);
             (Scatter, cal.scatter.ns_per_byte);
             (Permute, cal.permute.ns_per_byte);
           ])

let widths = [ 8; 16; 32; 64 ]

let prop_rate_monotone_in_width =
  QCheck2.Test.make
    ~name:"rate_at_width: non-increasing in width, floored at stream"
    ~count:200 gen_cal (fun cal ->
      let r = Pass_cost.rates_of_calibration cal in
      List.for_all
        (fun kind ->
          let rates =
            List.map
              (fun w ->
                Pass_cost.rate_at_width r kind ~calibrated_width:16 ~width:w)
              widths
          in
          List.for_all (fun x -> x >= r.Pass_cost.stream_ns_per_byte) rates
          && fst
               (List.fold_left
                  (fun (ok, prev) x -> (ok && x <= prev +. 1e-12, x))
                  (true, Float.infinity) rates))
        [ Xpose_obs.Roofline.Gather; Scatter; Permute ])

(* Perturbing one strided roof shifts candidate *ranking*
   monotonically: pricing candidate A (strided traffic sA plus
   streaming) against B (strided sB), slowing the strided probe by a
   growing factor moves the price gap A - B in the direction of
   sign (sA - sB) and never back. A flip can therefore only happen
   once, toward the candidate with less strided traffic — a
   model-ordered ranking degrades gracefully as a calibration goes
   stale. *)
let prop_perturbation_shifts_ranking_monotonically =
  QCheck2.Test.make
    ~name:"perturbed calibration shifts candidate ranking monotonically"
    ~count:200
    QCheck2.Gen.(
      pair gen_cal
        (pair
           (pair (int_range 0 4000) (int_range 0 4000))
           (pair (int_range 0 4000) (int_range 0 4000))))
    (fun (cal, (((sa, ta), (sb, tb)) : (int * int) * (int * int))) ->
      let price cal ~strided ~streamed =
        let r = Pass_cost.rates_of_calibration cal in
        Pass_cost.predicted_ns_at_width r ~kind:Xpose_obs.Roofline.Scatter
          ~calibrated_width:16 ~width:16 ~touches:strided
        +. Pass_cost.predicted_ns r ~kind:Xpose_obs.Roofline.Stream
             ~touches:streamed
      in
      let slow factor =
        let open Xpose_obs.Calibrate in
        let p = cal.scatter in
        {
          cal with
          scatter =
            {
              gbps = p.gbps /. factor;
              ns_per_byte = p.ns_per_byte *. factor;
            };
        }
      in
      let gap factor =
        let cal = slow factor in
        price cal ~strided:sa ~streamed:ta -. price cal ~strided:sb ~streamed:tb
      in
      let g1 = gap 1.0 and g2 = gap 1.5 and g3 = gap 2.5 in
      if sa > sb then g1 <= g2 +. 1e-9 && g2 <= g3 +. 1e-9
      else if sa < sb then g1 >= g2 -. 1e-9 && g2 >= g3 -. 1e-9
      else close g1 g2 && close g2 g3)

let test_rates_exact () =
  (* The synthetic calibration's costs come straight back out. *)
  let cal = cal_of ~stream:40.0 ~gather:16.0 ~scatter:10.0 ~permute:8.0 in
  let r = Pass_cost.rates_of_calibration cal in
  Alcotest.(check (float 1e-12))
    "stream" (1.0 /. 40.0) r.Pass_cost.stream_ns_per_byte;
  Alcotest.(check (float 1e-12))
    "gather" (1.0 /. 16.0) r.Pass_cost.gather_ns_per_byte;
  Alcotest.(check (float 1e-12))
    "scatter" (1.0 /. 10.0) r.Pass_cost.scatter_ns_per_byte;
  Alcotest.(check (float 1e-12))
    "permute" (1.0 /. 8.0) r.Pass_cost.permute_ns_per_byte;
  (* Widening past the calibrated width amortizes toward (and is
     floored at) the stream rate; narrowing pays more per byte. *)
  let rate w =
    Pass_cost.rate_at_width r Xpose_obs.Roofline.Scatter ~calibrated_width:16
      ~width:w
  in
  Alcotest.(check (float 1e-12)) "calibrated width is the probe" 0.1 (rate 16);
  Alcotest.(check bool) "narrower costs more" true (rate 8 > rate 16);
  Alcotest.(check bool) "wider costs less" true (rate 64 < rate 16);
  Alcotest.(check bool)
    "never beats a stream" true
    (rate 4096 >= r.Pass_cost.stream_ns_per_byte)

let tests =
  [
    Alcotest.test_case "rates round-trip a synthetic calibration" `Quick
      test_rates_exact;
    QCheck_alcotest.to_alcotest prop_rates_reproduce_probes;
    QCheck_alcotest.to_alcotest prop_rate_monotone_in_width;
    QCheck_alcotest.to_alcotest prop_perturbation_shifts_ranking_monotonically;
  ]
