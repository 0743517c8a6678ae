(* Exact order statistics over raw per-op samples, and the benchmark's
   end-to-end arithmetic. Nothing here reads a clock or a bucketed
   histogram: every figure is computed from the samples it is given. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between the two order statistics around rank
   (n - 1) * q (Hyndman-Fan type 7, numpy's default). *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile_sorted: no samples";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile_sorted: q outside [0, 1]";
  let h = float_of_int (n - 1) *. q in
  let lo = truncate h in
  if lo >= n - 1 then s.(n - 1) else s.(lo) +. ((h -. float_of_int lo) *. (s.(lo + 1) -. s.(lo)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* Samples strictly above the interpolation point of quantile [q]. *)
let beyond ~n q = n - 1 - truncate (float_of_int (n - 1) *. q)

(* The tail percentile is the highest rung of a fixed ladder with at
   least [min_beyond] samples beyond it. A fixed ladder keeps the
   reported percentile constant while the sample count of a workload
   stays inside one rung, so run-to-run comparisons compare the same
   statistic. *)
let tail_ladder = [ 0.50; 0.75; 0.90; 0.95; 0.99 ]
let min_beyond = 10

let tail_q ~n =
  List.fold_left
    (fun acc q -> if beyond ~n q >= min_beyond then Some q else acc)
    None tail_ladder

type tail = { q : float; value : float; n : int; exact : bool }
(* [exact = false]: fewer samples than the lowest rung needs; the
   median is reported and flagged. *)

let tail a =
  let n = Array.length a in
  let s = sorted a in
  match tail_q ~n with
  | Some q -> { q; value = quantile_sorted s q; n; exact = true }
  | None -> { q = 0.5; value = quantile_sorted s 0.5; n; exact = false }

(* Paper Eq. 37: every element read once and written once,
   [2 * elems * elt_bytes / t], in GB/s (bytes per nanosecond). *)
let eq37_gbps ~elems ~elt_bytes ~seconds =
  2.0 *. float_of_int elems *. float_of_int elt_bytes /. (seconds *. 1e9)

type failures = {
  errors : int;  (** error replies and failed calls *)
  wrong : int;  (** results that failed verification *)
  busy_exhausted : int;  (** backpressure retries used up *)
  exceptions : int;
}

let no_failures = { errors = 0; wrong = 0; busy_exhausted = 0; exceptions = 0 }

let failed f = f.errors + f.wrong + f.busy_exhausted + f.exceptions

let fail_ratio f ~attempted =
  if attempted < 1 then invalid_arg "Stats.fail_ratio: nothing attempted";
  float_of_int (failed f) /. float_of_int attempted

let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = if Array.length a = 0 then nan else sum a /. float_of_int (Array.length a)
