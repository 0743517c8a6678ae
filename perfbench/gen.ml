(* Seeded input generation. The benchmark's seed reaches the program
   only through the shapes and buffers made here.

   Draws are stratified: a round of K shapes takes one value from each
   of K equal strata of the range, jittered by the seed. Every seed then
   exercises nearly the same size distribution, so seeds differ in the
   exact shapes (cache alignment, gcd, cycle structure) but not in how
   much work a round holds, and run-to-run spread stays small. *)

let rng ~seed tag = Random.State.make [| seed; tag |]

(* A uniformly shuffled [0, len). *)
let shuffled st len =
  let d = Array.init len Fun.id in
  for i = len - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = d.(i) in
    d.(i) <- d.(j);
    d.(j) <- t
  done;
  d

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* An integer in stratum [k] of [strata] equal slices of [lo, hi). *)
let stratum st ~lo ~hi ~k ~strata =
  let w = float_of_int (hi - lo) /. float_of_int strata in
  let v = float_of_int lo +. (w *. float_of_int k) +. Random.State.float st w in
  min (hi - 1) (max lo (int_of_float v))

(* Nudge [n] upward (wrapping back below [hi]) until it is coprime with [m]. *)
let coprime_to m n ~hi =
  let rec go n = if n >= hi then go (n - 200) else if gcd m n = 1 then n else go (n + 1) in
  go n

(* Make gcd(m, n) > 1 by rounding both down to even. *)
let shared_factor m n = (m land lnot 1, n land lnot 1)

(* {1 transpose_serial}
   Both dimensions in [400, 4000): the paper's section 5.1 range
   [1000, 10000) scaled by 0.4. A round pairs row stratum k with column
   stratum [pair k], a fixed permutation that mixes tall (C2R) and wide
   (R2C) shapes; even slots get gcd > 1, odd slots are coprime. *)

let serial_lo = 400
let serial_hi = 4000
let serial_round_len = 16
let serial_pair k = ((5 * k) + 3) mod serial_round_len

let serial_round st =
  Array.init serial_round_len (fun k ->
      let m = stratum st ~lo:serial_lo ~hi:serial_hi ~k ~strata:serial_round_len in
      let n =
        stratum st ~lo:serial_lo ~hi:serial_hi ~k:(serial_pair k) ~strata:serial_round_len
      in
      if k mod 2 = 0 then shared_factor m n else (m, coprime_to m n ~hi:serial_hi))

(* Warm-up shape: the same for every seed, so set-up cost does not
   depend on it. *)
let warmup_shape = (1024, 930)

(* {1 serve_pipelined}
   The loadtest traffic distribution: a pool of [serve_pool_len] shapes
   whose element counts are log-uniform over [1000, 250000], rows in
   [16, 512]. One shape per log stratum, near its middle: the largest
   shapes carry most of the bytes, so a wide jitter there would move
   eq37_gbps from seed to seed. Rows come from their own strata, paired
   with the size strata by a fixed permutation, so every seed has the
   same mix of aspect ratios; a free draw of the rows of the largest
   shapes moved the tail latency from seed to seed. *)

let serve_pool_len = 12
let serve_min_elems = 1000
let serve_max_elems = 250000

let serve_pool st =
  let lo = log (float_of_int serve_min_elems) and hi = log (float_of_int serve_max_elems) in
  Array.init serve_pool_len (fun k ->
      let u =
        (float_of_int k +. 0.4 +. Random.State.float st 0.2) /. float_of_int serve_pool_len
      in
      let target = int_of_float (exp (lo +. (u *. (hi -. lo)))) in
      let m = stratum st ~lo:16 ~hi:513 ~k:(((5 * k) + 3) mod serve_pool_len) ~strata:serve_pool_len in
      (m, max 1 (target / m)))

(* Request order: the pool dealt as a deck, reshuffled every pass, so
   every shape is requested equally often in every stretch of the run. *)
let deck st len =
  let cards = ref [] in
  fun () ->
    if !cards = [] then cards := Array.to_list (shuffled st len);
    match !cards with
    | c :: rest ->
        cards := rest;
        c
    | [] -> assert false

(* {1 ooc_window}
   Eight files of 2.2 M to 3.6 M float64 elements (18 to 29 MB), one per
   size stratum: at least four times the 4 MiB window, so every transpose
   streams windows, and sizes spread evenly so no latency quantile falls
   in a gap between file sizes. Slots alternate tall and wide; in every
   group of four, two are coprime and two share a factor. Every
   transpose flips a file's orientation, so each file runs C2R and R2C
   in turn. *)

let ooc_window_bytes = 4 * 1024 * 1024
let ooc_files = 8

let ooc_shapes st =
  Array.init ooc_files (fun k ->
      let elems = stratum st ~lo:2_200_000 ~hi:3_600_000 ~k ~strata:ooc_files in
      let m = 1100 + Random.State.int st 700 in
      let n = elems / m in
      let m, n = if k mod 2 = 0 then (m, n) else (n, m) in
      if k mod 4 < 2 then (m, coprime_to m n ~hi:(n + 400)) else shared_factor m n)

(* {1 permute_nd}
   Rank-3 to rank-5 layout permutes of 0.5 M to 0.75 M elements (4 to
   6 MB, past L2). The generic path moves about 0.05 GB/s, so 8 M-element
   tensors would take seconds each and leave too few samples in a run
   for a steady tail percentile. A round runs every entry of the catalogue
   once, each at its own element-count stratum. The seed draws the
   dimensions; the catalogue is the same for every seed, because the
   pass kinds of a permutation set most of its cost and a seeded
   permutation moved the upper latency quantiles from seed to seed. *)

let permute_min_elems = 500_000
let permute_max_elems = 750_000

(* A rank-[r] permutation, drawn from [st], whose plan has exactly
   [passes] passes. *)
let rec shuffle_perm st r ~passes =
  let perm = shuffled st r in
  let plan = Xpose_permute.Permute.plan ~dims:(Array.make r 2) ~perm () in
  if List.length (Xpose_permute.Permute.passes plan) = passes then perm
  else shuffle_perm st r ~passes

(* Drawn once from a constant seed. *)
let shuffles =
  let st = Random.State.make [| 2014 |] in
  let a = shuffle_perm st 5 ~passes:2 in
  (a, shuffle_perm st 5 ~passes:3)

let permute_catalogue =
  [|
    ("nchw_to_nhwc", [| 0; 2; 3; 1 |]);
    ("nhwc_to_nchw", [| 0; 3; 1; 2 |]);
    ("reverse3", [| 2; 1; 0 |]);
    ("swap_outer3", [| 1; 0; 2 |]);
    ("reverse4", [| 3; 2; 1; 0 |]);
    ("reverse5", [| 4; 3; 2; 1; 0 |]);
    ("shuffle5a", fst shuffles);
    ("shuffle5b", snd shuffles);
  |]

(* Dimensions scattered around the geometric mean elems^(1/rank) by at
   most a factor 2^0.5 each; the last axis absorbs the remainder. *)
let permute_dims st ~rank ~elems =
  let base = float_of_int elems ** (1.0 /. float_of_int rank) in
  let dims =
    Array.init rank (fun _ ->
        max 2 (int_of_float (base *. (2.0 ** (Random.State.float st 1.0 -. 0.5)))))
  in
  let rest = Array.fold_left ( * ) 1 (Array.sub dims 0 (rank - 1)) in
  dims.(rank - 1) <- max 2 (elems / rest);
  dims

(* Round [r] shifts which catalogue entry gets which size stratum, so
   every entry meets every size over [len] rounds. *)
let permute_round st ~round =
  let len = Array.length permute_catalogue in
  Array.mapi
    (fun k (name, perm) ->
      let elems =
        stratum st ~lo:permute_min_elems ~hi:permute_max_elems ~k:((k + round) mod len)
          ~strata:len
      in
      (name, permute_dims st ~rank:(Array.length perm) ~elems, perm))
    permute_catalogue
