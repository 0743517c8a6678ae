open Xpose_core

module Make (S : Storage.S) = struct
  type buf = S.t

  module Nd = Tensor_nd.Make (S)
  module ParT = Par_transpose.Make (S)

  let transpose pool ~batch ~rows ~cols ~block buf =
    if batch < 1 || rows < 1 || cols < 1 || block < 1 then
      invalid_arg "Par_permute.transpose: sizes must be positive";
    if S.length buf <> batch * rows * cols * block then
      invalid_arg "Par_permute.transpose: buffer size";
    if rows > 1 && cols > 1 then begin
      let p, dir = Tensor_nd.orient ~rows ~cols in
      if batch = 1 && block = 1 then
        match dir with `C2r -> ParT.c2r pool p buf | `R2c -> ParT.r2c pool p buf
      else if batch > 1 then
        (* independent slices: chunk the batch *)
        let len = rows * cols * block in
        Pool.parallel_chunks pool ~lo:0 ~hi:batch (fun ~chunk:_ ~lo ~hi ->
            Nd.transpose_units p dir ~batch:(hi - lo) ~off:(lo * len)
              ~stride:block ~width:block buf)
      else
        (* one wide block transpose: split the block axis — every worker
           permutes its own strided sub-range of each block *)
        Pool.parallel_chunks pool ~lo:0 ~hi:block (fun ~chunk:_ ~lo ~hi ->
            if lo < hi then
              Nd.transpose_units p dir ~batch:1 ~off:lo ~stride:block
                ~width:(hi - lo) buf)
    end

  let execute pool (plan : Xpose_permute.Permute.plan) buf =
    if S.length buf <> Xpose_permute.Shape.nelems plan.Xpose_permute.Permute.dims
    then invalid_arg "Par_permute.execute: buffer size";
    let module E = Xpose_permute.Exec.Make (struct
      type nonrec buf = buf

      let length = S.length
      let transpose = transpose pool
    end) in
    E.run_passes (Xpose_permute.Permute.passes plan) buf

  let permute pool ~dims ~perm buf =
    Xpose_permute.Shape.validate ~dims ~perm;
    if S.length buf <> Xpose_permute.Shape.nelems dims then
      invalid_arg "Par_permute.permute: buffer size";
    execute pool (Tensor_nd.plan ~dims ~perm) buf
end
