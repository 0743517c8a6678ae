(* The specialized float64 kernels must be behaviourally identical to
   the element-generic functor. *)

open Xpose_core
module S = Storage.Float64
module A = Instances.F64

(* XPOSE_CHECKED=1 reruns this suite through the checked-access shadow
   kernels: identical semantics, every access bounds-verified. *)
module K =
  (val if Sys.getenv_opt "XPOSE_CHECKED" <> None then
         (module Kernels_f64.Checked : Kernels_f64.ENGINE)
       else (module Kernels_f64 : Kernels_f64.ENGINE))

let iota_buf len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let buf_to_list buf = List.init (S.length buf) (S.get buf)

let reference variant m n =
  let p = Plan.make ~m ~n in
  let buf = iota_buf (m * n) in
  let tmp = S.create (Plan.scratch_elements p) in
  A.c2r ~variant p buf ~tmp;
  buf_to_list buf

let test_c2r_matches_generic () =
  List.iter
    (fun (m, n) ->
      List.iter
        (fun variant ->
          let p = Plan.make ~m ~n in
          let buf = iota_buf (m * n) in
          let tmp = S.create (Plan.scratch_elements p) in
          K.c2r ~variant p buf ~tmp;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "kernels c2r %dx%d" m n)
            (reference variant m n) (buf_to_list buf);
          K.r2c p buf ~tmp;
          Alcotest.(check (list (float 0.0)))
            "kernels r2c inverts"
            (List.init (m * n) float_of_int)
            (buf_to_list buf))
        [ Algo.C2r_scatter; Algo.C2r_gather; Algo.C2r_decomposed ])
    [ (1, 1); (3, 8); (4, 8); (37, 18); (64, 48); (1, 20); (20, 1); (97, 89) ]

let test_r2c_variants () =
  let m = 24 and n = 36 in
  let p = Plan.make ~m ~n in
  List.iter
    (fun variant ->
      let buf = iota_buf (m * n) in
      let tmp = S.create (Plan.scratch_elements p) in
      K.c2r p buf ~tmp;
      K.r2c ~variant p buf ~tmp;
      Alcotest.(check (list (float 0.0)))
        "r2c variant"
        (List.init (m * n) float_of_int)
        (buf_to_list buf))
    [ Algo.R2c_fused; Algo.R2c_decomposed ]

let test_transpose_dispatch () =
  List.iter
    (fun (m, n, order) ->
      let buf = iota_buf (m * n) in
      let original = A.copy buf in
      K.transpose ~order ~m ~n buf;
      Alcotest.(check bool)
        (Printf.sprintf "dispatch %dx%d" m n)
        true
        (A.is_transpose_of ~order ~m ~n ~original buf))
    [
      (30, 7, Layout.Row_major);
      (7, 30, Layout.Row_major);
      (30, 7, Layout.Col_major);
      (12, 12, Layout.Row_major);
    ]

let test_errors () =
  let p = Plan.make ~m:4 ~n:6 in
  let buf = iota_buf 23 in
  let tmp = S.create 6 in
  Alcotest.check_raises "size"
    (Invalid_argument "Kernels_f64: buffer size does not match plan")
    (fun () -> K.c2r p buf ~tmp);
  let buf = iota_buf 24 in
  let tiny = S.create 5 in
  Alcotest.check_raises "scratch"
    (Invalid_argument "Kernels_f64: scratch too small") (fun () ->
      K.r2c p buf ~tmp:tiny)

let prop_kernels_equal_generic =
  QCheck2.Test.make ~name:"Kernels_f64 = Algo functor on random dims"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 70) (int_range 1 70))
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      let tmp = S.create (Plan.scratch_elements p) in
      K.c2r p buf ~tmp;
      buf_to_list buf = reference Algo.C2r_gather m n)

let tests =
  [
    Alcotest.test_case "c2r matches generic (all variants)" `Quick
      test_c2r_matches_generic;
    Alcotest.test_case "r2c variants" `Quick test_r2c_variants;
    Alcotest.test_case "transpose dispatch" `Quick test_transpose_dispatch;
    Alcotest.test_case "argument validation" `Quick test_errors;
    QCheck_alcotest.to_alcotest prop_kernels_equal_generic;
  ]
