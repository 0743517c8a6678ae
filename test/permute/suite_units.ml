(* The strided unit kernel ([Tensor_nd.Make.transpose_units]) that runs
   every batched and blocked permute pass, serial and pool-parallel,
   checked against the [Shape.permuted_index] specification and the
   hand-factored [Tensor3.permute_direct] oracle over several storage
   instances. *)

open Xpose_permute
module Core = Xpose_core
module Storage = Core.Storage

(* (rows, cols): coprime and gcd > 1, in both orientations *)
let matrices = [ (5, 3); (3, 5); (6, 4); (4, 6); (2, 7); (9, 6) ]
let blocks = [ 1; 2; 3; 8; 83 ]
let batches = [ 1; 3 ]

(* The pass [batch x rows x cols x block] -> [batch x cols x rows x
   block] is the rank-4 permutation (0, 2, 1, 3). *)
let pass_dims ~batch ~rows ~cols ~block = [| batch; rows; cols; block |]
let pass_perm = [| 0; 2; 1; 3 |]

module Check (S : Storage.S) = struct
  module Nd = Core.Tensor_nd.Make (S)
  module T3 = Core.Tensor3.Make (S)

  let iota len =
    let buf = S.create len in
    Storage.fill_iota (module S) buf;
    buf

  let describe ~batch ~rows ~cols ~block =
    Printf.sprintf "%s batch %d %dx%d block %d" S.name batch rows cols block

  (* slot [permuted_index (multi_index l)] must hold element [l] *)
  let against_shape ~msg ~dims ~perm buf =
    for l = 0 to Shape.nelems dims - 1 do
      let at = Shape.permuted_index ~dims ~perm (Shape.multi_index ~dims l) in
      if not (S.equal (S.get buf at) (S.of_int l)) then
        Alcotest.failf "%s: slot %d holds %d, want %d" msg at
          (S.to_int (S.get buf at)) l
    done

  let same ~msg a b =
    for i = 0 to S.length a - 1 do
      if not (S.equal (S.get a i) (S.get b i)) then
        Alcotest.failf "%s: slot %d differs (%d vs %d)" msg i
          (S.to_int (S.get a i)) (S.to_int (S.get b i))
    done

  (* A pass with batch = 1 or block = 1 is a rank-3 permutation that
     [permute_direct] factors by hand. *)
  let direct ~batch ~rows ~cols ~block =
    if batch = 1 then Some ((rows, cols, block), (1, 0, 2))
    else if block = 1 then Some ((batch, rows, cols), (0, 2, 1))
    else None

  let grid () =
    List.iter
      (fun (rows, cols) ->
        List.iter
          (fun block ->
            List.iter
              (fun batch ->
                let msg = describe ~batch ~rows ~cols ~block in
                let dims = pass_dims ~batch ~rows ~cols ~block in
                let buf = iota (Shape.nelems dims) in
                Nd.transpose ~batch ~rows ~cols ~block buf;
                against_shape ~msg ~dims ~perm:pass_perm buf;
                match direct ~batch ~rows ~cols ~block with
                | None -> ()
                | Some (dims3, perm3) ->
                    let want = iota (Shape.nelems dims) in
                    T3.permute_direct ~dims:dims3 ~perm:perm3 want;
                    same ~msg:(msg ^ " vs permute_direct") buf want)
              batches)
          blocks)
      matrices

  (* Two disjoint sub-ranges of every block, transposed one after the
     other, equal the whole-block transpose; the first leaves the
     other range's slots untouched. *)
  let split_ranges () =
    List.iter
      (fun (rows, cols) ->
        List.iter
          (fun (block, cut) ->
            let len = rows * cols * block in
            let p, dir = Core.Tensor_nd.orient ~rows ~cols in
            let buf = iota len in
            Nd.transpose_units p dir ~batch:1 ~off:0 ~stride:block ~width:cut
              buf;
            for l = 0 to len - 1 do
              if l mod block >= cut && S.to_int (S.get buf l) <> l then
                Alcotest.failf "%dx%d block %d: slot %d outside [0, %d) moved"
                  rows cols block l cut
            done;
            Nd.transpose_units p dir ~batch:1 ~off:cut ~stride:block
              ~width:(block - cut) buf;
            let want = iota len in
            Nd.transpose ~batch:1 ~rows ~cols ~block want;
            same ~msg:(Printf.sprintf "%dx%d block %d cut %d" rows cols block cut)
              buf want)
          [ (2, 1); (8, 3); (83, 40) ])
      matrices

  let tests =
    [
      Alcotest.test_case (S.name ^ " unit kernel grid vs oracles") `Quick grid;
      Alcotest.test_case (S.name ^ " block sub-ranges compose") `Quick
        split_ranges;
    ]
end

module F64 = Check (Storage.Float64)
module I = Check (Storage.Int_elt)
module Poly = Storage.Poly ()
module P = Check (Poly)

module Blob5 = Storage.Blob (struct
  let elt_bytes = 5
end)

module B = Check (Blob5)

(* Every unit move through the checked float64 storage: an index or blit
   range outside the buffer raises [Checked_access.Violation]. *)
module C = Check (Core.Checked_access.F64)

let test_geometry_errors () =
  let module Nd = Core.Tensor_nd.Make (Storage.Float64) in
  let p, dir = Core.Tensor_nd.orient ~rows:3 ~cols:2 in
  let buf = Storage.Float64.create (3 * 2 * 4) in
  Alcotest.check_raises "last unit overruns"
    (Invalid_argument "Tensor_nd.transpose_units: range out of bounds")
    (fun () -> Nd.transpose_units p dir ~batch:1 ~off:1 ~stride:4 ~width:4 buf);
  Alcotest.check_raises "width wider than stride"
    (Invalid_argument "Tensor_nd.transpose_units: invalid geometry") (fun () ->
      Nd.transpose_units p dir ~batch:1 ~off:0 ~stride:2 ~width:3 buf)

(* Par_permute splits a single wide block transpose along the block
   axis; block sizes not divisible by the lane count give uneven chunks
   (and empty ones when block < lanes). *)
let test_par_block_split () =
  let module Par = Xpose_cpu.Par_permute.Make (Storage.Int_elt) in
  List.iter
    (fun lanes ->
      Xpose_cpu.Pool.with_pool ~workers:lanes (fun pool ->
          List.iter
            (fun (rows, cols) ->
              List.iter
                (fun block ->
                  let dims = pass_dims ~batch:1 ~rows ~cols ~block in
                  let buf = I.iota (Shape.nelems dims) in
                  Par.transpose pool ~batch:1 ~rows ~cols ~block buf;
                  I.against_shape
                    ~msg:
                      (Printf.sprintf "%d lanes: %s" lanes
                         (I.describe ~batch:1 ~rows ~cols ~block))
                    ~dims ~perm:pass_perm buf)
                [ 2; 5; 7; 83 ])
            matrices))
    [ 1; 2; 3 ]

let tests =
  F64.tests @ I.tests @ P.tests @ B.tests @ C.tests
  @ [
      Alcotest.test_case "unit geometry errors" `Quick test_geometry_errors;
      Alcotest.test_case "Par_permute block split, 1-3 lanes" `Quick
        test_par_block_split;
    ]
