(* The benchmark's own arithmetic: exact quantiles, the tail rule,
   Eq. 37, the failure ratio and span self time. *)

open Perfbench_core

let check name cond = if not cond then failwith ("test failed: " ^ name)
let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let () =
  (* Type-7 quantiles on 1..10, in any input order. *)
  let a = [| 7.; 1.; 10.; 4.; 2.; 9.; 3.; 8.; 5.; 6. |] in
  check "median even n" (close (Stats.median a) 5.5);
  check "min" (close (Stats.quantile a 0.0) 1.0);
  check "max" (close (Stats.quantile a 1.0) 10.0);
  check "p25" (close (Stats.quantile a 0.25) 3.25);
  check "p90" (close (Stats.quantile a 0.9) 9.1);
  check "median odd n" (close (Stats.median [| 3.; 1.; 2. |]) 2.0);
  check "single sample" (close (Stats.quantile [| 4.2 |] 0.99) 4.2);
  check "input untouched" (a.(0) = 7.);
  check "empty rejected"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true)

let () =
  (* Samples strictly beyond the interpolation point. *)
  check "beyond n=20 p50" (Stats.beyond ~n:20 0.5 = 10);
  check "beyond n=1000 p99" (Stats.beyond ~n:1000 0.99 = 10);
  check "beyond n=900 p99" (Stats.beyond ~n:900 0.99 = 9);
  (* The tail is the highest ladder rung with >= 10 samples beyond. *)
  check "tail n=19" (Stats.tail_q ~n:19 = None);
  check "tail n=20" (Stats.tail_q ~n:20 = Some 0.5);
  check "tail n=37" (Stats.tail_q ~n:37 = Some 0.5);
  check "tail n=38" (Stats.tail_q ~n:38 = Some 0.75);
  check "tail n=41" (Stats.tail_q ~n:41 = Some 0.75);
  check "tail n=101" (Stats.tail_q ~n:101 = Some 0.9);
  check "tail n=1000" (Stats.tail_q ~n:1000 = Some 0.99);
  check "tail capped at p99" (Stats.tail_q ~n:100_000 = Some 0.99);
  let t = Stats.tail (Array.init 100 (fun i -> float_of_int (i + 1))) in
  check "tail of 1..100 is p90" (t.q = 0.9 && t.exact && t.n = 100 && close t.value 90.1);
  let t = Stats.tail [| 5.; 1.; 3. |] in
  check "short tail flagged" ((not t.exact) && close t.value 3.0)

let () =
  (* Eq. 37: 2 * elems * bytes / t. 1e9 float64 elements in 16 s move
     16 GB in each direction: 1 GB/s. *)
  check "eq37" (close (Stats.eq37_gbps ~elems:1_000_000_000 ~elt_bytes:8 ~seconds:16.0) 1.0);
  check "eq37 small" (close (Stats.eq37_gbps ~elems:1000 ~elt_bytes:8 ~seconds:1e-6) 16.0)

let () =
  let f = { Stats.errors = 1; wrong = 2; busy_exhausted = 3; exceptions = 4 } in
  check "failed sums every kind" (Stats.failed f = 10);
  check "fail ratio" (close (Stats.fail_ratio f ~attempted:40) 0.25);
  check "no failures" (close (Stats.fail_ratio Stats.no_failures ~attempted:7) 0.0);
  check "nothing attempted rejected"
    (match Stats.fail_ratio f ~attempted:0 with _ -> false | exception Invalid_argument _ -> true)

let () =
  (* A scripted clock: each reading advances by the next step. *)
  let steps = ref [ 0.; 10.; 12.; 15.; 20.; 30.; 34.; 38.; 40.; 41. ] in
  let now () =
    match !steps with
    | t :: rest ->
        steps := rest;
        t
    | [] -> failwith "clock exhausted"
  in
  let tr = Spans.create ~now in
  (* root [0, 41) holds a [10, 20) and b [30, 40); a holds g [12, 15),
     b holds h [34, 38). *)
  Spans.with_span tr ~op:7 "root" (fun () ->
      Spans.with_span tr ~op:7 "a" (fun () -> Spans.with_span tr ~op:7 "g" (fun () -> ()));
      Spans.with_span tr ~op:7 "b" (fun () -> Spans.with_span tr ~op:7 "h" (fun () -> ())));
  let spans = Spans.spans tr in
  let self = Spans.self_times spans in
  let find name = List.hd (Spans.named spans name) in
  let self_of name = Hashtbl.find self (find name).Spans.id in
  check "root duration" (close (Spans.duration (find "root")) 41.0);
  check "parents" ((find "g").parent = (find "a").id && (find "a").parent = (find "root").id);
  check "op carried" (List.for_all (fun s -> s.Spans.op = 7) (Array.to_list spans));
  check "self a" (close (self_of "a") (20. -. 10. -. (15. -. 12.)));
  check "self b" (close (self_of "b") (40. -. 30. -. (38. -. 34.)));
  check "self root" (close (self_of "root") (41. -. 10. -. 10.));
  check "self leaf" (close (self_of "g") 3.0);
  (* Overlapping or out-of-range child intervals count once, clipped. *)
  check "union" (close (Spans.covered ~lo:0. ~hi:10. [ (1., 4.); (3., 6.); (8., 12.) ]) 7.0);
  check "clip" (close (Spans.covered ~lo:5. ~hi:6. [ (0., 100.) ]) 1.0);
  (* A span closes even when its body raises. *)
  steps := [ 0.; 1. ];
  let tr = Spans.create ~now in
  (try Spans.with_span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  check "closed on exception" (Array.length (Spans.spans tr) = 1)

let () = print_endline "perfbench arithmetic: ok"
