type arith = {
  transpose_touches : m:int -> n:int -> int;
  transpose_scratch : m:int -> n:int -> int;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let theorem6_arith =
  let transpose_touches ~m ~n =
    if m <= 1 || n <= 1 then 0
    else begin
      let c = gcd m n in
      let rotate = if c = 1 then 0 else 2 * m * (n - (n / c)) in
      rotate + (4 * m * n)
    end
  in
  let transpose_scratch ~m ~n = if m <= 1 || n <= 1 then 0 else max m n in
  { transpose_touches; transpose_scratch }

type t = { passes : int; touches : int; scratch : int; score : float }

let zero = { passes = 0; touches = 0; scratch = 0; score = 0.0 }

(* Prices of the executor's work, in flat element touches (measured
   ratios, rounded; see the interface). *)
let unit_access = 1.0
let unit_elem = 0.125
let call = 64.0

let pass_cost arith (p : Decompose.pass) =
  let m = max p.rows p.cols and n = min p.rows p.cols in
  let units = p.batch * arith.transpose_touches ~m ~n in
  let touches = units * p.block in
  let scratch = p.block * arith.transpose_scratch ~m ~n in
  let per_unit =
    if p.batch = 1 && p.block = 1 then 1.0
    else unit_access +. (unit_elem *. float_of_int p.block)
  in
  let score =
    (float_of_int units *. per_unit) +. (call *. float_of_int p.batch)
  in
  (touches, scratch, score)

let of_passes ?(arith = theorem6_arith) passes =
  List.fold_left
    (fun acc p ->
      let touches, scratch, score = pass_cost arith p in
      {
        passes = acc.passes + 1;
        touches = acc.touches + touches;
        scratch = max acc.scratch scratch;
        score = acc.score +. score;
      })
    zero passes

let compare a b =
  let c = Float.compare a.score b.score in
  if c <> 0 then c
  else
    let c = Int.compare a.passes b.passes in
    if c <> 0 then c
    else
      let c = Int.compare a.scratch b.scratch in
      if c <> 0 then c else Int.compare a.touches b.touches

let pp ppf t =
  Format.fprintf ppf
    "%d pass%s, %d element touches, %d scratch elements, score %.1f" t.passes
    (if t.passes = 1 then "" else "es")
    t.touches t.scratch t.score
