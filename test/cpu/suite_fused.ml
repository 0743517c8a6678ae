(* The pass-fused engines (generic functor and float64 fast path) must be
   behaviourally identical to the element-generic Algo oracle: fusing the
   column rotation and row permutation into one panel visit is a pure
   locality transformation. *)

open Xpose_core
open Xpose_cpu
module S = Storage.Float64
module A = Instances.F64
module FI = Fused.Make (Storage.Int_elt)
module AI = Instances.I

(* XPOSE_CHECKED=1 reruns this suite through the checked-access shadow
   engine: identical semantics, every access bounds-verified. *)
module F =
  (val if Sys.getenv_opt "XPOSE_CHECKED" <> None then
         (module Fused_f64.Checked : Fused_f64.ENGINE)
       else (module Fused_f64 : Fused_f64.ENGINE))

let iota_buf len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let buf_to_list buf = List.init (S.length buf) (S.get buf)

(* Coprime, non-coprime, prime, skinny, square, and panel-boundary shapes
   (n not a multiple of the default width 16). *)
let shapes =
  [
    (1, 1);
    (3, 8);
    (37, 18);
    (48, 36);
    (97, 89);
    (1, 9);
    (9, 1);
    (40, 23);
    (23, 40);
    (96, 72);
    (17, 17);
    (64, 48);
  ]

let oracle_c2r m n =
  let p = Plan.make ~m ~n in
  let buf = iota_buf (m * n) in
  let tmp = S.create (Plan.scratch_elements p) in
  A.c2r p buf ~tmp;
  buf_to_list buf

let test_c2r_matches_oracle () =
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let expected = oracle_c2r m n in
      let buf = iota_buf (m * n) in
      F.c2r p buf;
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "fused c2r %dx%d" m n)
        expected (buf_to_list buf);
      F.r2c p buf;
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "fused r2c inverts %dx%d" m n)
        (List.init (m * n) float_of_int)
        (buf_to_list buf))
    shapes

let test_workspace_reuse_across_shapes () =
  (* One workspace driven through growing and shrinking shapes: the
     grow-only scratch must never leak state between calls. *)
  let ws = Workspace.F64.create () in
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      F.c2r ~ws p buf;
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "shared-ws c2r %dx%d" m n)
        (oracle_c2r m n) (buf_to_list buf))
    (shapes @ List.rev shapes)

let prop_fused_equals_oracle =
  QCheck2.Test.make ~name:"fused f64 c2r = generic c2r" ~count:120
    QCheck2.Gen.(
      quad (int_range 1 80) (int_range 1 80) (int_range 1 24) (int_range 1 80))
    (fun (m, n, width, block_rows) ->
      let p = Plan.make ~m ~n in
      let expected =
        let buf = iota_buf (m * n) in
        let tmp = S.create (Plan.scratch_elements p) in
        A.c2r p buf ~tmp;
        buf_to_list buf
      in
      let buf = iota_buf (m * n) in
      F.c2r ~panel_width:width ~block_rows p buf;
      buf_to_list buf = expected)

let prop_r2c_inverts =
  QCheck2.Test.make ~name:"fused f64 r2c inverts c2r" ~count:120
    QCheck2.Gen.(triple (int_range 1 80) (int_range 1 80) (int_range 1 24))
    (fun (m, n, width) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      F.c2r ~panel_width:width p buf;
      F.r2c ~panel_width:width p buf;
      buf_to_list buf = List.init (m * n) float_of_int)

let test_generic_fused_matches_oracle () =
  (* The functorized twin over int storage, exercising fused visits,
     unfused sweeps, and the full engine. *)
  let module SI = Storage.Int_elt in
  let iota len =
    let buf = SI.create len in
    Storage.fill_iota (module SI) buf;
    buf
  in
  let to_list buf = List.init (SI.length buf) (SI.get buf) in
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let expected =
        let buf = iota (m * n) in
        let tmp = SI.create (Plan.scratch_elements p) in
        AI.c2r p buf ~tmp;
        to_list buf
      in
      let buf = iota (m * n) in
      FI.c2r p buf;
      Alcotest.(check (list int))
        (Printf.sprintf "generic fused c2r %dx%d" m n)
        expected (to_list buf);
      FI.r2c p buf;
      Alcotest.(check (list int))
        "generic fused r2c inverts"
        (List.init (m * n) Fun.id)
        (to_list buf))
    shapes

let test_cols_match_sweeps () =
  (* A fused panel visit over any sub-range equals the two sweeps over
     that range — the fusion claim itself, at the primitive level. *)
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      let cycles = Fused_f64.cycles ~m ~index:(Plan.q p) in
      List.iter
        (fun (lo, hi) ->
          let expected =
            let buf = iota_buf (m * n) in
            F.rotate_columns ~lo ~hi p buf ~amount:(fun j -> j);
            F.permute_cols ~lo ~hi p buf ~cycles;
            buf_to_list buf
          in
          let buf = iota_buf (m * n) in
          F.c2r_cols ~lo ~hi p buf ~cycles;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "c2r_cols %dx%d [%d,%d)" m n lo hi)
            expected (buf_to_list buf))
        [ (0, n); (0, n / 2); (n / 2, n); (3, min n 21) ])
    [ (48, 36); (37, 18); (40, 23) ]

let test_transpose_routes_and_caches () =
  let cache = Plan.Cache.create ~capacity:4 () in
  List.iter
    (fun (m, n) ->
      let buf = iota_buf (m * n) in
      F.transpose ~cache ~m ~n buf;
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          if S.get buf ((j * m) + i) <> float_of_int ((i * n) + j) then
            ok := false
        done
      done;
      Alcotest.(check bool)
        (Printf.sprintf "transpose %dx%d" m n)
        true !ok)
    [ (48, 36); (36, 48); (5, 120); (120, 5) ];
  Alcotest.(check bool) "cache hit on repeat" true
    (let before = Plan.Cache.hits cache in
     let buf = iota_buf (48 * 36) in
     F.transpose ~cache ~m:48 ~n:36 buf;
     Plan.Cache.hits cache > before)

let with_pool workers f =
  let pool = Pool.create ~workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_engines () =
  with_pool 4 (fun pool ->
      List.iter
        (fun (m, n) ->
          let p = Plan.make ~m ~n in
          let expected = oracle_c2r m n in
          let buf = iota_buf (m * n) in
          F.c2r_pool pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "pooled fused c2r %dx%d" m n)
            expected (buf_to_list buf);
          F.r2c_pool pool p buf;
          Alcotest.(check (list (float 0.0)))
            "pooled fused r2c inverts"
            (List.init (m * n) float_of_int)
            (buf_to_list buf))
        shapes)

let check_batch pool ~batch ~m ~n =
  let bufs = Array.init batch (fun _ -> iota_buf (m * n)) in
  F.transpose_batch pool ~m ~n bufs;
  let expected =
    let buf = iota_buf (m * n) in
    F.transpose ~m ~n buf;
    buf_to_list buf
  in
  Array.iteri
    (fun b buf ->
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "batch[%d] %dx%d (batch=%d)" b m n batch)
        expected (buf_to_list buf))
    bufs

let test_transpose_batch () =
  with_pool 4 (fun pool ->
      (* batch >= lanes: matrix-parallel branch *)
      check_batch pool ~batch:9 ~m:48 ~n:36;
      check_batch pool ~batch:4 ~m:37 ~n:18;
      (* batch < lanes: panel-parallel branch *)
      check_batch pool ~batch:2 ~m:96 ~n:72;
      check_batch pool ~batch:1 ~m:23 ~n:40;
      (* degenerate shapes and empty batch *)
      check_batch pool ~batch:3 ~m:1 ~n:17;
      F.transpose_batch pool ~m:4 ~n:4 [||]);
  (* sequential pool exercises the lanes = 1 path *)
  check_batch Pool.sequential ~batch:3 ~m:48 ~n:36

let test_pool_workspace_reuse_across_shapes () =
  (* Per-lane workspaces handed to the pool drivers and reused across
     successive different shapes on the same pool (grow, shrink, grow
     again): a stale-capacity bug — scratch still sized or sliced for a
     previous shape — would corrupt results. *)
  with_pool 3 (fun pool ->
      let workspaces = Array.init 3 (fun _ -> Workspace.F64.create ()) in
      List.iter
        (fun (m, n) ->
          let p = Plan.make ~m ~n in
          let buf = iota_buf (m * n) in
          F.c2r_pool ~workspaces pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "pooled shared-ws c2r %dx%d" m n)
            (oracle_c2r m n) (buf_to_list buf);
          F.r2c_pool ~workspaces pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "pooled shared-ws r2c %dx%d" m n)
            (List.init (m * n) float_of_int)
            (buf_to_list buf))
        (shapes @ List.rev shapes))

let test_batch_workspace_reuse_across_shapes () =
  (* The batched driver reuses one workspace per lane across the matrices
     of a batch; drive the same pool through successive batches of very
     different shapes, alternating the matrix-parallel (batch >= lanes)
     and panel-parallel (batch < lanes) regimes. *)
  with_pool 3 (fun pool ->
      List.iter
        (fun (batch, m, n) -> check_batch pool ~batch ~m ~n)
        [
          (5, 96, 72);
          (5, 3, 8);
          (2, 48, 36);
          (4, 97, 89);
          (1, 9, 1);
          (6, 40, 23);
        ])

let test_batch_validates_before_moving () =
  with_pool 2 (fun pool ->
      let good = iota_buf (6 * 4) in
      let bad = iota_buf 5 in
      Alcotest.check_raises "size mismatch"
        (Invalid_argument
           "Fused_f64.transpose_batch: buffer size does not match shape")
        (fun () -> F.transpose_batch pool ~m:6 ~n:4 [| good; bad |]);
      Alcotest.(check (list (float 0.0)))
        "no element moved" (List.init 24 float_of_int) (buf_to_list good))

(* The element-generic fused engine over float64: the same panel
   schedule as [F] with the plain blit/scalar inner loops, so agreement
   with it isolates the micro-kernel movers. *)
module FG = Fused.Make (Storage.Float64)

let generic_c2r ~panel_width ~block_rows m n =
  let buf = iota_buf (m * n) in
  FG.c2r ~panel_width ~block_rows (Plan.make ~m ~n) buf;
  buf_to_list buf

let test_width_grid_matches_oracle () =
  (* The panel width is a pure locality knob: results must be
     bit-identical to the Algo oracle and to Fused.Make on every shape.
     The micro-kernel fine phase runs at every width, so the grid adds
     widths below the 8-row tile edge and widths that leave a ragged
     last panel ([n mod width <> 0]) to the supported ones; the shapes
     add m < 8 (the guarded tail only) and degenerate m=1/n=1. *)
  List.iter
    (fun panel_width ->
      List.iter
        (fun (m, n) ->
          let p = Plan.make ~m ~n in
          let expected = oracle_c2r m n in
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "Fused.Make w%d c2r %dx%d" panel_width m n)
            expected
            (generic_c2r ~panel_width ~block_rows:Fused_f64.default_block_rows
               m n);
          let buf = iota_buf (m * n) in
          F.c2r ~panel_width p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "w%d c2r %dx%d" panel_width m n)
            expected (buf_to_list buf);
          F.r2c ~panel_width p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "w%d r2c inverts %dx%d" panel_width m n)
            (List.init (m * n) float_of_int)
            (buf_to_list buf);
          F.transpose ~panel_width ~m ~n buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "w%d transpose %dx%d" panel_width m n)
            expected (buf_to_list buf))
        shapes)
    ([ 1; 2; 3; 5; 7; 12; 24 ] @ Fused_f64.supported_widths)

let test_batch_split_policies_match_oracle () =
  (* The batch driver picks its split from the batch size: at least one
     matrix per lane runs matrix-parallel, fewer matrices than lanes run
     panel-parallel. Both sides of the switch must match the
     single-matrix transpose. *)
  with_pool 3 (fun pool ->
      List.iter
        (fun panel_width ->
          List.iter
            (fun (batch, m, n) ->
              let bufs = Array.init batch (fun _ -> iota_buf (m * n)) in
              F.transpose_batch ~panel_width pool ~m ~n bufs;
              let expected =
                let buf = iota_buf (m * n) in
                F.transpose ~m ~n buf;
                buf_to_list buf
              in
              Array.iteri
                (fun b buf ->
                  Alcotest.(check (list (float 0.0)))
                    (Printf.sprintf "w%d batch%d[%d] %dx%d" panel_width batch
                       b m n)
                    expected (buf_to_list buf))
                bufs)
            [ (5, 48, 36); (2, 40, 23) ])
        [ 8; 32 ])

let test_tier_grid_matches_oracle () =
  (* The micro-kernel tier is the only inner loop: at every width x
     block_rows pair it must be bit-identical to the oracle on every
     shape. Row blocks of 1, 3 and 12 split the 8-row tiles differently
     from the default, so full tiles and the guarded tail meet at
     different rows. *)
  List.iter
    (fun block_rows ->
      List.iter
        (fun panel_width ->
          List.iter
            (fun (m, n) ->
              let p = Plan.make ~m ~n in
              let expected = oracle_c2r m n in
              let buf = iota_buf (m * n) in
              F.c2r ~panel_width ~block_rows p buf;
              Alcotest.(check (list (float 0.0)))
                (Printf.sprintf "b%d w%d c2r %dx%d" block_rows panel_width m n)
                expected (buf_to_list buf);
              F.r2c ~panel_width ~block_rows p buf;
              Alcotest.(check (list (float 0.0)))
                (Printf.sprintf "b%d w%d r2c inverts %dx%d" block_rows
                   panel_width m n)
                (List.init (m * n) float_of_int)
                (buf_to_list buf);
              F.transpose ~panel_width ~block_rows ~m ~n buf;
              Alcotest.(check (list (float 0.0)))
                (Printf.sprintf "b%d w%d transpose %dx%d" block_rows
                   panel_width m n)
                expected (buf_to_list buf))
            shapes)
        [ 8; 16; 24 ])
    [ 1; 3; 12; Fused_f64.default_block_rows ]

let test_tier_pool_and_batch_match_oracle () =
  (* The parallel drivers run the same micro-kernel movers: the pooled
     engine and both sides of the batch driver's switch (fewer matrices
     than lanes goes panel-parallel, at least one per lane goes
     matrix-parallel) agree with the oracle at narrow, ragged and
     default widths. *)
  with_pool 3 (fun pool ->
      List.iter
        (fun panel_width ->
          List.iter
            (fun (m, n) ->
              let expected = oracle_c2r m n in
              let buf = iota_buf (m * n) in
              F.transpose_pool ~panel_width pool ~m ~n buf;
              Alcotest.(check (list (float 0.0)))
                (Printf.sprintf "w%d pool %dx%d" panel_width m n)
                expected (buf_to_list buf);
              List.iter
                (fun batch ->
                  let bufs = Array.init batch (fun _ -> iota_buf (m * n)) in
                  F.transpose_batch ~panel_width pool ~m ~n bufs;
                  Array.iteri
                    (fun b buf ->
                      Alcotest.(check (list (float 0.0)))
                        (Printf.sprintf "w%d batch%d[%d] %dx%d" panel_width
                           batch b m n)
                        expected (buf_to_list buf))
                    bufs)
                [ 2; 5 ])
            [ (97, 89); (48, 36); (40, 23) ])
        [ 3; 7; 16 ])

let prop_mk8_agrees_with_generic =
  QCheck2.Test.make ~name:"fused f64 = Fused.Make at any width" ~count:120
    QCheck2.Gen.(
      quad (int_range 1 80) (int_range 1 80) (int_range 1 24) (int_range 1 40))
    (fun (m, n, width, block_rows) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      F.c2r ~panel_width:width ~block_rows p buf;
      let c2r_ok =
        buf_to_list buf = generic_c2r ~panel_width:width ~block_rows m n
      in
      let expected_r2c =
        let g = iota_buf (m * n) in
        FG.r2c ~panel_width:width ~block_rows p g;
        buf_to_list g
      in
      let buf = iota_buf (m * n) in
      F.r2c ~panel_width:width ~block_rows p buf;
      c2r_ok && buf_to_list buf = expected_r2c)

(* -- the cache-aware column operations (§4.6 rotation, §4.7 row
   permutation) as Fused_f64 sweeps, against the Algo phases ----------- *)

let oracle_phase m n phase =
  let p = Plan.make ~m ~n in
  let buf = iota_buf (m * n) in
  let tmp = S.create (Plan.scratch_elements p) in
  phase p buf ~tmp;
  buf_to_list buf

let check_rotate ~width m n amount =
  let p = Plan.make ~m ~n in
  let expected =
    oracle_phase m n (fun p buf ~tmp ->
        A.Phases.rotate_columns p buf ~tmp ~amount ~lo:0 ~hi:n)
  in
  let buf = iota_buf (m * n) in
  F.rotate_columns ~panel_width:width p buf ~amount;
  Alcotest.(check (list (float 0.0)))
    (Printf.sprintf "rotate %dx%d w=%d" m n width)
    expected (buf_to_list buf)

let test_rotate_families () =
  (* The two amount families the algorithm uses (§4.6), plus inverses. *)
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      List.iter
        (fun width ->
          check_rotate ~width m n (Plan.rotate_amount p);
          check_rotate ~width m n (fun j -> j);
          check_rotate ~width m n (fun j -> -j);
          check_rotate ~width m n (fun j -> -Plan.rotate_amount p j))
        [ 1; 3; 16; 64 ])
    [ (12, 18); (7, 7); (30, 8); (8, 30); (64, 48) ]

let test_rotate_wild_amounts () =
  (* Residuals not bounded by the panel width: the per-column fallback
     must still be exact. *)
  check_rotate ~width:8 20 24 (fun j -> (j * 7) + 3);
  check_rotate ~width:8 20 24 (fun j -> j * j)

let test_rotate_zero () = check_rotate ~width:16 9 14 (fun _ -> 0)

let check_permute ~width m n index =
  let p = Plan.make ~m ~n in
  let expected =
    oracle_phase m n (fun p buf ~tmp ->
        A.Phases.permute_rows p buf ~tmp ~index ~lo:0 ~hi:n)
  in
  let buf = iota_buf (m * n) in
  F.permute_cols ~panel_width:width p buf
    ~cycles:(Fused_f64.cycles ~m ~index);
  Alcotest.(check (list (float 0.0)))
    (Printf.sprintf "permute %dx%d w=%d" m n width)
    expected (buf_to_list buf)

let test_permute_q_family () =
  List.iter
    (fun (m, n) ->
      let p = Plan.make ~m ~n in
      List.iter
        (fun width ->
          check_permute ~width m n (Plan.q p);
          check_permute ~width m n (Plan.q_inv p);
          check_permute ~width m n Fun.id;
          check_permute ~width m n (fun i -> m - 1 - i))
        [ 1; 5; 16 ])
    [ (12, 18); (16, 10); (31, 9) ]

let test_permute_rejects_non_permutation () =
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Fused_f64: index is not a permutation") (fun () ->
      ignore (Fused_f64.cycles ~m:6 ~index:(fun i -> if i = 0 then 1 else i)));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Fused_f64: index out of range") (fun () ->
      ignore (Fused_f64.cycles ~m:6 ~index:(fun i -> i + 1)))

let test_bad_column_range () =
  let p = Plan.make ~m:6 ~n:4 in
  let buf = iota_buf 24 in
  let cycles = Fused_f64.cycles ~m:6 ~index:(Plan.q p) in
  List.iter
    (fun (lo, hi) ->
      let raises op run =
        Alcotest.check_raises
          (Printf.sprintf "%s [%d,%d)" op lo hi)
          (Invalid_argument ("Fused_f64." ^ op ^ ": bad column range"))
          run
      in
      raises "rotate_columns" (fun () ->
          F.rotate_columns ~lo ~hi p buf ~amount:(fun j -> j));
      raises "permute_cols" (fun () -> F.permute_cols ~lo ~hi p buf ~cycles);
      raises "c2r_cols" (fun () -> F.c2r_cols ~lo ~hi p buf ~cycles);
      raises "r2c_cols" (fun () -> F.r2c_cols ~lo ~hi p buf ~cycles))
    [ (-1, 4); (0, 5); (3, 2) ];
  Alcotest.(check (list (float 0.0)))
    "rejected ranges move nothing"
    (List.init 24 float_of_int)
    (buf_to_list buf)

let test_ragged_panel_widths () =
  (* Widths that leave a narrow last panel, or exceed n. *)
  let m = 40 and n = 56 in
  let p = Plan.make ~m ~n in
  let expected = oracle_c2r m n in
  List.iter
    (fun width ->
      let buf = iota_buf (m * n) in
      F.c2r ~panel_width:width p buf;
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "serial width %d" width)
        expected (buf_to_list buf))
    [ 3; 5; 13; 200 ]

let test_c2r_r2c_widths () =
  List.iter
    (fun (m, n) ->
      let expected = oracle_c2r m n in
      let p = Plan.make ~m ~n in
      List.iter
        (fun width ->
          let buf = iota_buf (m * n) in
          F.c2r ~panel_width:width p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "cache-aware c2r %dx%d w=%d" m n width)
            expected (buf_to_list buf);
          F.r2c ~panel_width:width p buf;
          Alcotest.(check (list (float 0.0)))
            "cache-aware r2c inverts"
            (List.init (m * n) float_of_int)
            (buf_to_list buf))
        [ 4; 16; 32 ])
    [ (3, 8); (4, 8); (48, 36); (36, 48); (55, 50); (1, 9); (9, 1) ]

let prop_cache_aware_equals_plain =
  QCheck2.Test.make ~name:"cache-aware c2r = plain c2r" ~count:80
    QCheck2.Gen.(triple (int_range 1 64) (int_range 1 64) (int_range 1 24))
    (fun (m, n, width) ->
      let p = Plan.make ~m ~n in
      let buf = iota_buf (m * n) in
      F.c2r ~panel_width:width p buf;
      buf_to_list buf = oracle_c2r m n)

(* -- the same column operations driven across a domain pool ---------- *)

let test_pool_matches_plain () =
  with_pool 3 (fun pool ->
      List.iter
        (fun (m, n) ->
          let p = Plan.make ~m ~n in
          let buf = iota_buf (m * n) in
          F.c2r_pool pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "par cache-aware c2r %dx%d" m n)
            (oracle_c2r m n) (buf_to_list buf);
          F.r2c_pool pool p buf;
          Alcotest.(check (list (float 0.0)))
            "r2c inverts"
            (List.init (m * n) float_of_int)
            (buf_to_list buf))
        [ (1, 1); (3, 8); (4, 8); (48, 36); (36, 48); (97, 55); (16, 100) ])

let test_pool_widths () =
  (* Widths that leave a narrow last panel, or exceed n. *)
  let m = 40 and n = 56 in
  let p = Plan.make ~m ~n in
  let expected = oracle_c2r m n in
  with_pool 2 (fun pool ->
      List.iter
        (fun width ->
          let buf = iota_buf (m * n) in
          F.c2r_pool ~panel_width:width pool p buf;
          Alcotest.(check (list (float 0.0)))
            (Printf.sprintf "pool width %d" width)
            expected (buf_to_list buf))
        [ 1; 3; 5; 13; 16; 64; 200 ])

let test_pool_order_dispatch () =
  with_pool 2 (fun pool ->
      List.iter
        (fun (m, n, order) ->
          let buf = iota_buf (m * n) in
          let original = A.copy buf in
          F.transpose_pool ~order pool ~m ~n buf;
          Alcotest.(check bool)
            (Printf.sprintf "dispatch %dx%d" m n)
            true
            (A.is_transpose_of ~order ~m ~n ~original buf))
        [ (33, 12, Layout.Row_major); (12, 33, Layout.Col_major) ])

let tests =
  [
    Alcotest.test_case "fused f64 c2r/r2c vs oracle" `Quick
      test_c2r_matches_oracle;
    Alcotest.test_case "workspace reuse across shapes" `Quick
      test_workspace_reuse_across_shapes;
    Alcotest.test_case "generic fused functor vs oracle" `Quick
      test_generic_fused_matches_oracle;
    Alcotest.test_case "fused visit = two sweeps" `Quick test_cols_match_sweeps;
    Alcotest.test_case "transpose routing + plan cache" `Quick
      test_transpose_routes_and_caches;
    Alcotest.test_case "pooled fused engines" `Quick test_pool_engines;
    Alcotest.test_case "transpose_batch" `Quick test_transpose_batch;
    Alcotest.test_case "pool workspace reuse across shapes" `Quick
      test_pool_workspace_reuse_across_shapes;
    Alcotest.test_case "batch workspace reuse across shapes" `Quick
      test_batch_workspace_reuse_across_shapes;
    Alcotest.test_case "batch validates before moving" `Quick
      test_batch_validates_before_moving;
    Alcotest.test_case "panel width grid vs oracle" `Quick
      test_width_grid_matches_oracle;
    Alcotest.test_case "batch split policies vs oracle" `Quick
      test_batch_split_policies_match_oracle;
    Alcotest.test_case "kernel tier grid vs oracle" `Quick
      test_tier_grid_matches_oracle;
    Alcotest.test_case "kernel tiers on pool and batch paths" `Quick
      test_tier_pool_and_batch_match_oracle;
    QCheck_alcotest.to_alcotest prop_fused_equals_oracle;
    QCheck_alcotest.to_alcotest prop_r2c_inverts;
    QCheck_alcotest.to_alcotest prop_mk8_agrees_with_generic;
  ]

let cache_aware_tests =
  [
    Alcotest.test_case "rotate amount families" `Quick test_rotate_families;
    Alcotest.test_case "rotate fallback for wild amounts" `Quick
      test_rotate_wild_amounts;
    Alcotest.test_case "rotate by zero" `Quick test_rotate_zero;
    Alcotest.test_case "permute q family" `Quick test_permute_q_family;
    Alcotest.test_case "permute rejects non-permutations" `Quick
      test_permute_rejects_non_permutation;
    Alcotest.test_case "bad column range rejected" `Quick test_bad_column_range;
    Alcotest.test_case "panel width not dividing n" `Quick
      test_ragged_panel_widths;
    Alcotest.test_case "cache-aware c2r/r2c" `Quick test_c2r_r2c_widths;
    QCheck_alcotest.to_alcotest prop_cache_aware_equals_plain;
  ]

let prop_pool_random =
  QCheck2.Test.make ~name:"par cache-aware = plain over random shapes"
    ~count:50
    QCheck2.Gen.(triple (int_range 1 48) (int_range 1 48) (int_range 1 4))
    (fun (m, n, workers) ->
      with_pool workers (fun pool ->
          let p = Plan.make ~m ~n in
          let buf = iota_buf (m * n) in
          F.c2r_pool pool p buf;
          buf_to_list buf = oracle_c2r m n))

let par_cache_aware_tests =
  [
    Alcotest.test_case "matches plain" `Quick test_pool_matches_plain;
    Alcotest.test_case "group widths" `Quick test_pool_widths;
    Alcotest.test_case "dispatch" `Quick test_pool_order_dispatch;
    QCheck_alcotest.to_alcotest prop_pool_random;
  ]
