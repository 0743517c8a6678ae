open Xpose_core
open Xpose_simd_machine

type algorithm = [ `C2r | `R2c ]

type report = {
  algorithm : algorithm;
  m : int;
  n : int;
  elt_bytes : int;
  gbps : float;
  time_ns : float;
  stats : Memory.stats;
  onchip_row_shuffle : bool;
}

(* Lines one sub-row of [w] elements touches: its aligned span, plus one
   when the surrounding row geometry does not keep sub-rows line-aligned
   ("may span two cache-lines if it is not aligned", §4.6). *)
let subrow_lines cfg ~row_elems ~w ~s =
  let line = cfg.Config.line_bytes in
  let aligned = Intmath.ceil_div (w * s) line in
  if row_elems * s mod line = 0 && w * s mod line = 0 then aligned
  else aligned + 1

(* Column rotation over the full [rows x cols] view with per-column
   [amount], grouped in sub-rows of [w] columns exactly as the panel
   sweeps of Xpose_cpu.Fused do: a coarse cycle-following pass for groups
   with a nonzero shared amount, then a fine blocked pass for groups with
   nonzero residuals. *)
let charge_rotate cfg mem ~rows ~cols ~s ~amount =
  let w = max 1 (cfg.Config.coalesce_bytes / s) in
  let g = ref 0 in
  let coarse_moves = ref 0 and fine_groups_elems = ref 0 in
  while !g < cols do
    let lo = !g in
    let gw = min w (cols - lo) in
    let k0 = Intmath.emod (amount lo) rows in
    let k1 = Intmath.emod (amount (lo + gw - 1)) rows in
    let residual_for k j = Intmath.emod (amount j - k) rows in
    let max_res k =
      let r = ref 0 in
      for j = lo to lo + gw - 1 do
        let v = residual_for k j in
        if v > !r then r := v
      done;
      !r
    in
    let k, maxres =
      let r0 = max_res k0 in
      if r0 < gw then (k0, r0) else (k1, max_res k1)
    in
    if maxres < gw && maxres < rows then begin
      if k <> 0 then coarse_moves := !coarse_moves + rows;
      if maxres > 0 then fine_groups_elems := !fine_groups_elems + (rows * gw)
    end
    else
      (* per-column fallback: element-granular gather + write *)
      fine_groups_elems := !fine_groups_elems + (2 * rows * gw);
    g := lo + gw
  done;
  let spl = subrow_lines cfg ~row_elems:cols ~w ~s in
  if !coarse_moves > 0 then begin
    let lines = !coarse_moves * spl in
    let useful = !coarse_moves * w * s in
    Memory.charge_lines mem Load ~lines ~useful_bytes:useful;
    Memory.charge_lines mem Store ~lines ~useful_bytes:useful
  end;
  if !fine_groups_elems > 0 then begin
    let moves = Intmath.ceil_div !fine_groups_elems w in
    let lines = moves * spl in
    let useful = !fine_groups_elems * s in
    Memory.charge_lines mem Load ~lines ~useful_bytes:useful;
    Memory.charge_lines mem Store ~lines ~useful_bytes:useful
  end

(* Row permutation (identical in every column, §4.7): cycle-following
   sub-row moves; rows on 1-cycles do not move. *)
let charge_permute_rows cfg mem ~rows ~cols ~s ~index =
  let moving = ref 0 in
  for i = 0 to rows - 1 do
    if index i <> i then incr moving
  done;
  if !moving > 0 then begin
    let w = max 1 (cfg.Config.coalesce_bytes / s) in
    let spl = subrow_lines cfg ~row_elems:cols ~w ~s in
    let moves = !moving * Intmath.ceil_div cols w in
    let useful = !moving * cols * s in
    Memory.charge_lines mem Load ~lines:(moves * spl) ~useful_bytes:useful;
    Memory.charge_lines mem Store ~lines:(moves * spl) ~useful_bytes:useful
  end

(* Row shuffle over rows of [cols] elements. On chip (§4.5): one coalesced
   read and write per element. Otherwise (Algorithm 1): a gathered read
   (lines counted from the actual indices, warp by warp, on a sample of
   rows), a coalesced write to the scratch vector, and a coalesced copy
   back. *)
let charge_row_shuffle cfg mem ~rows ~cols ~s ~budget_elements ~sample_rows
    ~gather_index =
  let bytes = rows * cols * s in
  if cols <= budget_elements then begin
    Memory.charge_stream mem Load ~bytes;
    Memory.charge_stream mem Store ~bytes;
    true
  end
  else begin
    let lanes = cfg.Config.lanes in
    let sample = min rows (max 1 sample_rows) in
    let step = rows / sample in
    let line = cfg.Config.line_bytes in
    let lines = ref 0 in
    let ids = Array.make lanes 0 in
    let sampled = ref 0 in
    let i = ref 0 in
    while !i < rows do
      incr sampled;
      let row = !i in
      let j = ref 0 in
      while !j < cols do
        let warp = min lanes (cols - !j) in
        for k = 0 to warp - 1 do
          ids.(k) <- (row * cols * s) + (gather_index ~i:row (!j + k) * s)
        done;
        let sub = Array.sub ids 0 warp in
        Array.sort compare sub;
        let distinct = ref 1 in
        for k = 1 to warp - 1 do
          if sub.(k) / line <> sub.(k - 1) / line then incr distinct
        done;
        lines := !lines + !distinct;
        j := !j + warp
      done;
      i := !i + step
    done;
    let scaled = !lines * rows / max 1 !sampled in
    Memory.charge_lines mem Load ~lines:scaled ~useful_bytes:bytes;
    Memory.charge_stream mem Store ~bytes;
    (* copy the scratch vector back over the row *)
    Memory.charge_stream mem Load ~bytes;
    Memory.charge_stream mem Store ~bytes;
    false
  end

let cost ?(occupancy = 8) ?(sample_rows = 48) cfg ~algorithm ~elt_bytes:s ~m
    ~n =
  if m < 1 || n < 1 || s < 1 || occupancy < 1 then
    invalid_arg "Gpu_transpose.cost: bad arguments";
  Config.validate cfg;
  let mem = Memory.create cfg ~words:0 in
  (* Staging capacity is register slots: the paper stages up to 29440
     64-bit elements per pass (§4.5); per-element register allocation does
     not shrink for narrower elements, so the budget is element-denominated
     and shared among [occupancy] concurrently staged rows. *)
  let budget_elements = cfg.Config.onchip_bytes / 8 / occupancy in
  let onchip = ref true in
  if m > 1 && n > 1 then begin
    match algorithm with
    | `C2r ->
        (* view = m x n (Theorem 1) *)
        let p = Plan.make ~m ~n in
        if not (Plan.coprime p) then
          charge_rotate cfg mem ~rows:m ~cols:n ~s
            ~amount:(Plan.rotate_amount p);
        onchip :=
          charge_row_shuffle cfg mem ~rows:m ~cols:n ~s ~budget_elements
            ~sample_rows ~gather_index:(fun ~i j -> Plan.d'_inv p ~i j);
        charge_rotate cfg mem ~rows:m ~cols:n ~s ~amount:(fun j -> j);
        charge_permute_rows cfg mem ~rows:m ~cols:n ~s ~index:(Plan.q p)
    | `R2c ->
        (* view = n x m on the same linear buffer (Theorem 2) *)
        let p = Plan.make ~m:n ~n:m in
        charge_permute_rows cfg mem ~rows:n ~cols:m ~s ~index:(Plan.q_inv p);
        charge_rotate cfg mem ~rows:n ~cols:m ~s ~amount:(fun j -> -j);
        onchip :=
          charge_row_shuffle cfg mem ~rows:n ~cols:m ~s ~budget_elements
            ~sample_rows ~gather_index:(fun ~i j -> Plan.d' p ~i j);
        if not (Plan.coprime p) then
          charge_rotate cfg mem ~rows:n ~cols:m ~s
            ~amount:(fun j -> -Plan.rotate_amount p j)
  end
  else Memory.charge_instrs mem 1;
  let useful = 2 * m * n * s in
  let time = Memory.time_ns mem in
  let gbps =
    if time <= 0.0 then cfg.Config.effective_gbps
    else
      Float.min
        (float_of_int useful /. time)
        (2.0 *. cfg.Config.effective_gbps)
  in
  {
    algorithm;
    m;
    n;
    elt_bytes = s;
    gbps;
    time_ns = time;
    stats = Memory.stats mem;
    onchip_row_shuffle = !onchip;
  }

let auto ?occupancy ?sample_rows cfg ~elt_bytes ~m ~n =
  let algorithm = if m > n then `C2r else `R2c in
  cost ?occupancy ?sample_rows cfg ~algorithm ~elt_bytes ~m ~n
