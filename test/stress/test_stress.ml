(* Exhaustive cross-implementation agreement over every shape with
   m, n <= LIMIT: the long-tail complement to the per-module suites and
   the randomized fuzzer. *)

open Xpose_core
module S = Storage.Int_elt
module A = Instances.I
module Fused = Xpose_cpu.Fused.Make (S)
module Cycle = Xpose_baselines.Cycle_follow.Make (S)
module Gus = Xpose_baselines.Gustavson.Make (S)
module SungI = Xpose_baselines.Sung.Make (S)

let limit = 26

let iota len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let equal_expected ~m ~n buf =
  let ok = ref true in
  for l = 0 to (m * n) - 1 do
    if S.get buf l <> (n * (l mod m)) + (l / m) then ok := false
  done;
  !ok

let check name ~m ~n run =
  let buf = iota (m * n) in
  run buf;
  if not (equal_expected ~m ~n buf) then
    Alcotest.failf "%s diverges at m=%d n=%d" name m n

let test_exhaustive_c2r_variants () =
  for m = 1 to limit do
    for n = 1 to limit do
      let p = Plan.make ~m ~n in
      let tmp = S.create (Plan.scratch_elements p) in
      check "gather" ~m ~n (fun b -> A.c2r ~variant:Algo.C2r_gather p b ~tmp);
      check "scatter" ~m ~n (fun b -> A.c2r ~variant:Algo.C2r_scatter p b ~tmp);
      check "decomposed" ~m ~n (fun b ->
          A.c2r ~variant:Algo.C2r_decomposed p b ~tmp)
    done
  done

let test_exhaustive_r2c_roundtrip () =
  for m = 1 to limit do
    for n = 1 to limit do
      let p = Plan.make ~m ~n in
      let tmp = S.create (Plan.scratch_elements p) in
      let buf = iota (m * n) in
      A.c2r p buf ~tmp;
      A.r2c ~variant:Algo.R2c_fused p buf ~tmp;
      A.c2r p buf ~tmp;
      A.r2c ~variant:Algo.R2c_decomposed p buf ~tmp;
      for l = 0 to (m * n) - 1 do
        if S.get buf l <> l then
          Alcotest.failf "r2c roundtrip diverges at m=%d n=%d" m n
      done
    done
  done

let test_exhaustive_cache_aware () =
  for m = 1 to limit do
    for n = 1 to limit do
      let p = Plan.make ~m ~n in
      check "cache-aware" ~m ~n (fun b -> Fused.c2r ~panel_width:5 p b)
    done
  done

let test_exhaustive_baselines () =
  for m = 1 to limit do
    for n = 1 to limit do
      check "cycle-bitvec" ~m ~n (fun b -> Cycle.transpose_bitvec ~m ~n b);
      check "gustavson" ~m ~n (fun b -> Gus.transpose ~m ~n b);
      check "sung" ~m ~n (fun b -> SungI.transpose ~m ~n b)
    done
  done

let test_exhaustive_f64_kernels () =
  let module F = Storage.Float64 in
  for m = 1 to limit do
    for n = 1 to limit do
      let buf = F.create (m * n) in
      Storage.fill_iota (module F) buf;
      Kernels_f64.transpose ~m ~n buf;
      for l = 0 to (m * n) - 1 do
        if F.get buf l <> float_of_int ((n * (l mod m)) + (l / m)) then
          Alcotest.failf "kernels_f64 diverges at m=%d n=%d" m n
      done
    done
  done

let test_exhaustive_tensor_flat_cases () =
  let module T = Tensor3.Make (S) in
  for d0 = 1 to 9 do
    for d1 = 1 to 9 do
      for d2 = 1 to 9 do
        let buf = iota (d0 * d1 * d2) in
        T.permute ~dims:(d0, d1, d2) ~perm:(2, 1, 0) buf;
        (* spot-check via the index spec *)
        let ok = ref true in
        for i0 = 0 to d0 - 1 do
          for i1 = 0 to d1 - 1 do
            for i2 = 0 to d2 - 1 do
              let src = (((i0 * d1) + i1) * d2) + i2 in
              let dst =
                T.permuted_index ~dims:(d0, d1, d2) ~perm:(2, 1, 0)
                  (i0, i1, i2)
              in
              if S.get buf dst <> src then ok := false
            done
          done
        done;
        if not !ok then
          Alcotest.failf "tensor (2,1,0) diverges at %d %d %d" d0 d1 d2
      done
    done
  done

let () =
  Alcotest.run "xpose_stress"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "c2r variants, all shapes <= 26" `Slow
            test_exhaustive_c2r_variants;
          Alcotest.test_case "r2c roundtrips, all shapes <= 26" `Slow
            test_exhaustive_r2c_roundtrip;
          Alcotest.test_case "cache-aware, all shapes <= 26" `Slow
            test_exhaustive_cache_aware;
          Alcotest.test_case "baselines, all shapes <= 26" `Slow
            test_exhaustive_baselines;
          Alcotest.test_case "f64 kernels, all shapes <= 26" `Slow
            test_exhaustive_f64_kernels;
          Alcotest.test_case "tensor (2,1,0), all shapes <= 9^3" `Slow
            test_exhaustive_tensor_flat_cases;
        ] );
    ]
