module P = Xpose_permute

let plan_arith =
  let transpose_touches ~m ~n =
    if m <= 1 || n <= 1 then 0
    else begin
      let p = Plan.make ~m ~n in
      (* columns with rotation amount zero (the first [b] of them) are
         not touched by the pre-rotation; the row and column shuffles
         each read and write every element once *)
      let rotate = if Plan.coprime p then 0 else 2 * m * (n - p.Plan.b) in
      rotate + (4 * m * n)
    end
  in
  let transpose_scratch ~m ~n =
    if m <= 1 || n <= 1 then 0
    else Plan.scratch_elements (Plan.make ~m ~n)
  in
  { P.Cost.transpose_touches; transpose_scratch }

let plan ~dims ~perm = P.Permute.plan ~arith:plan_arith ~dims ~perm ()
let candidates ~dims ~perm = P.Permute.candidates ~arith:plan_arith ~dims ~perm ()

let orient ~rows ~cols =
  let p = Plan.make ~m:(max rows cols) ~n:(min rows cols) in
  (p, if rows > cols then `C2r else `R2c)

module Make (S : Storage.S) = struct
  type buf = S.t

  module Algo_plain = Algo.Make (S)

  (* Algo's default phase bodies (gather C2R, fused R2C) with each
     element a unit of [width] slots: unit [u] of matrix [b] starts at
     slot [off + (b*m*n + u) * stride]. A unit moves with one [S.blit],
     or one [S.get]/[S.set] when [width = 1]; the scratch holds
     [max m n] units back to back. *)
  let transpose_units (p : Plan.t) dir ~batch ~off ~stride ~width buf =
    let m = p.m and n = p.n in
    let mn = m * n in
    if batch < 0 || off < 0 || width < 1 || stride < width then
      invalid_arg "Tensor_nd.transpose_units: invalid geometry";
    if batch > 0 && off + ((((batch * mn) - 1) * stride) + width) > S.length buf
    then invalid_arg "Tensor_nd.transpose_units: range out of bounds";
    if m > 1 && n > 1 && batch > 0 then begin
      let scratch = Plan.scratch_elements p in
      let tmp = S.create (scratch * width) in
      let base = ref off in
      (* unit [u] -> scratch slot [i], and back *)
      let load u i =
        let at = !base + (u * stride) in
        if width = 1 then S.set tmp i (S.get buf at)
        else S.blit buf at tmp (i * width) width
      in
      let store i u =
        let at = !base + (u * stride) in
        if width = 1 then S.set buf at (S.get tmp i)
        else S.blit tmp (i * width) buf at width
      in
      (* column [j] gathers its row [src i] into slot [i], then is
         written back in order *)
      let gather_col j src =
        for i = 0 to m - 1 do
          load ((src i * n) + j) i
        done;
        for i = 0 to m - 1 do
          store i ((i * n) + j)
        done
      in
      (* row [i] gathers its column [src j] into slot [j]; contiguous
         units go back with one blit *)
      let gather_row i src =
        let row = i * n in
        for j = 0 to n - 1 do
          load (row + src j) j
        done;
        if stride = width then
          S.blit tmp 0 buf (!base + (row * stride)) (n * width)
        else
          for j = 0 to n - 1 do
            store j (row + j)
          done
      in
      let rotate amount =
        for j = 0 to n - 1 do
          let k = Intmath.emod (amount j) m in
          if k <> 0 then
            gather_col j (fun i -> if i + k < m then i + k else i + k - m)
        done
      in
      let phase name ~pred f =
        Xpose_obs.Tracer.pass ~name ~block:width ~rows:m ~cols:n
          ~pred_touches:(pred * width) ~scratch_elems:(scratch * width) f
      in
      let shuffle = Pass_cost.shuffle p in
      let rotated = not (Plan.coprime p) in
      let pre = Plan.rotate_amount p in
      let post j = -pre j in
      (* the pre- and post-rotation touch the same columns *)
      let rotation = if rotated then Pass_cost.rotate p ~amount:pre else 0 in
      for b = 0 to batch - 1 do
        base := off + (b * mn * stride);
        match dir with
        | `C2r ->
            if rotated then
              phase "rotate_pre" ~pred:rotation (fun () -> rotate pre);
            phase "row_shuffle" ~pred:shuffle (fun () ->
                for i = 0 to m - 1 do
                  gather_row i (Plan.d'_inv p ~i)
                done);
            phase "col_shuffle" ~pred:shuffle (fun () ->
                for j = 0 to n - 1 do
                  gather_col j (Plan.s' p ~j)
                done)
        | `R2c ->
            phase "col_unshuffle" ~pred:shuffle (fun () ->
                for j = 0 to n - 1 do
                  gather_col j (Plan.s'_inv p ~j)
                done);
            phase "row_unshuffle" ~pred:shuffle (fun () ->
                for i = 0 to m - 1 do
                  gather_row i (Plan.d' p ~i)
                done);
            if rotated then
              phase "rotate_post" ~pred:rotation (fun () -> rotate post)
      done
    end

  let transpose ~batch ~rows ~cols ~block buf =
    if batch < 1 || rows < 1 || cols < 1 || block < 1 then
      invalid_arg "Tensor_nd.transpose: sizes must be positive";
    if S.length buf <> batch * rows * cols * block then
      invalid_arg "Tensor_nd.transpose: buffer size";
    if rows > 1 && cols > 1 then begin
      let p, dir = orient ~rows ~cols in
      if batch = 1 && block = 1 then begin
        let tmp = S.create p.m in
        match dir with
        | `C2r -> Algo_plain.c2r p buf ~tmp
        | `R2c -> Algo_plain.r2c p buf ~tmp
      end
      else transpose_units p dir ~batch ~off:0 ~stride:block ~width:block buf
    end

  module Exec = P.Exec.Make (struct
    type nonrec buf = buf

    let length = S.length
    let transpose = transpose
  end)

  let execute (plan : P.Permute.plan) buf =
    if S.length buf <> P.Shape.nelems plan.P.Permute.dims then
      invalid_arg "Tensor_nd.execute: buffer size";
    Exec.run_passes (P.Permute.passes plan) buf

  let permute ~dims ~perm buf =
    P.Shape.validate ~dims ~perm;
    if S.length buf <> P.Shape.nelems dims then
      invalid_arg "Tensor_nd.permute: buffer size";
    execute (plan ~dims ~perm) buf

  let permuted_dims = P.Shape.permuted_dims
  let permuted_index = P.Shape.permuted_index
end
