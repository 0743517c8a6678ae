(* permute_nd: rank-3 to rank-5 f64 layout permutes of 1 M to 8 M
   elements through [Tensor_nd.Make(Storage.Float64).permute], planning
   included. No fused engine, no wire, no out-of-core: the control
   workload for changes to those. *)

open Xpose_core
module T = Tensor_nd.Make (Storage.Float64)
module A1 = Bigarray.Array1
module S = Perfbench_core.Stats
module Sp = Perfbench_core.Spans
module Pm = Xpose_permute

type buf = Storage.Float64.t

let nelems dims = Array.fold_left ( * ) 1 dims

(* Every source element, at multi-index idx with linear index l, must sit
   at the permuted position sum_a idx.(a) * stride.(a), where stride.(a)
   is the output stride of the output axis that carries source axis a. *)
let check_all (b : buf) ~dims ~perm ~base =
  let r = Array.length dims in
  let od = Array.map (fun a -> dims.(a)) perm in
  let os = Array.make r 1 in
  for k = r - 2 downto 0 do
    os.(k) <- os.(k + 1) * od.(k + 1)
  done;
  let stride = Array.make r 0 in
  Array.iteri (fun k a -> stride.(a) <- os.(k)) perm;
  let idx = Array.make r 0 in
  let total = nelems dims and inner = dims.(r - 1) and si = stride.(r - 1) in
  let ok = ref true and l = ref 0 and pos = ref 0 in
  while !l < total do
    for x = 0 to inner - 1 do
      if A1.unsafe_get b (!pos + (x * si)) <> float_of_int (!l + x + base) then ok := false
    done;
    l := !l + inner;
    let a = ref (r - 2) in
    while !a >= 0 do
      idx.(!a) <- idx.(!a) + 1;
      pos := !pos + stride.(!a);
      if idx.(!a) = dims.(!a) then begin
        pos := !pos - (dims.(!a) * stride.(!a));
        idx.(!a) <- 0;
        decr a
      end
      else a := -1
    done
  done;
  !ok

(* The stride walk above, cross-checked at sampled indices against the
   library's specification [permuted_index]. *)
let check (b : buf) ~st ~dims ~perm ~base =
  check_all b ~dims ~perm ~base
  && List.for_all
       (fun _ ->
         let idx = Array.map (fun d -> Random.State.int st d) dims in
         A1.get b (T.permuted_index ~dims ~perm idx)
         = float_of_int (Pm.Shape.linear_index ~dims idx + base))
       (List.init 64 Fun.id)

(* Rounding in [Gen.permute_dims] can overshoot the target count. *)
let max_elems = Gen.permute_max_elems * 2

(* Allocate and touch the buffer, then one untimed warm-up permute. *)
let setup_once ~seed () =
  let big = A1.create Bigarray.float64 Bigarray.c_layout max_elems in
  W_serial.fill big ~len:max_elems ~base:0;
  let st = Gen.rng ~seed 98 in
  (* The same for every seed, so set-up cost does not depend on it. *)
  let dims = [| 8; 32; 32; 30 |] and perm = [| 0; 2; 3; 1 |] in
  let v = A1.sub big 0 (nelems dims) in
  W_serial.fill v ~len:(nelems dims) ~base:1;
  T.permute ~dims ~perm v;
  (big, check v ~st ~dims ~perm ~base:1)

let kind_name = function
  | Pm.Decompose.Flat -> "flat"
  | Batched -> "batched"
  | Blocks -> "blocks"
  | Batched_blocks -> "batched_blocks"

(* [T.permute], called layer by layer: plan, then each pass. *)
let composed tr ~op ~dims ~perm v =
  let plan = Sp.with_span tr ~op "permute.plan" (fun () -> Tensor_nd.plan ~dims ~perm) in
  List.map
    (fun (p : Pm.Decompose.pass) ->
      let name = "permute.pass." ^ kind_name (Pm.Decompose.kind p) in
      Sp.with_span tr ~op name (fun () ->
          T.transpose ~batch:p.batch ~rows:p.rows ~cols:p.cols ~block:p.block v);
      (name, Pm.Decompose.elems p))
    (Pm.Permute.passes plan)

(* Typical wall time of one round, verification included, on a 2-core
   Xeon VM. *)
let nominal_round_s = 1.6

(* A fixed number of whole rounds of the catalogue. Traced ([tr]
   given), each op runs [composed] under spans; [pass_elems] collects
   (span name, elements) per pass. *)
let run_phase ~seed ~seconds ~tr ~pass_elems big =
  let t = Tally.create () in
  let st = Gen.rng ~seed 5 and check_st = Gen.rng ~seed 6 in
  for round = 0 to Report.rounds ~seconds ~nominal_round_s - 1 do
    Array.iter
      (fun (name, dims, perm) ->
        let len = nelems dims in
        let base = 1 + (t.attempted mod 1024) in
        let v = A1.sub big 0 len in
        W_serial.fill v ~len ~base;
        let run op =
          match tr with
          | None -> T.permute ~dims ~perm v
          | Some tr ->
              let passes = Sp.with_span tr ~op "op" (fun () -> composed tr ~op ~dims ~perm v) in
              pass_elems := passes @ !pass_elems
        in
        ignore
          (Tally.op t ~what:name ~elems:len run (fun () -> check v ~st:check_st ~dims ~perm ~base)))
      (Gen.permute_round st ~round)
  done;
  t

(* Every minimal-pass candidate of a problem, each executed and timed
   (scaled CPU time) on the same input: (model score, measured ns), in the planner's order
   (cheapest first). *)
let time_candidates big ~dims ~perm =
  let len = nelems dims in
  let v = A1.sub big 0 len in
  List.map
    (fun (c : Pm.Permute.plan) ->
      W_serial.fill v ~len ~base:0;
      let t0 = Cpuclock.self_ns () in
      T.execute c v;
      (c.cost.score, (Cpuclock.self_ns () -. t0) *. Refspeed.scale ()))
    (Tensor_nd.candidates ~dims ~perm)

(* Problems with more candidates than this are skipped by the ranking
   check, which executes every candidate once. *)
let max_candidates = 12

(* Pairs ordered the same way by the model and by the clock, over pairs
   the model does not tie. *)
let agreement timed =
  let a = Array.of_list timed in
  let agree = ref 0 and pairs = ref 0 in
  Array.iteri
    (fun i (si, ti) ->
      Array.iteri
        (fun j (sj, tj) ->
          if i < j && si <> sj then begin
            incr pairs;
            if compare si sj = compare ti tj then incr agree
          end)
        a)
    a;
  (!agree, !pairs)

let run ~seed ~seconds ~trace =
  let (big, setup_ok), setup_s =
    Report.repeat_setup ~release:(fun _ -> Gc.full_major ()) (setup_once ~seed)
  in
  if not trace then begin
    let t = run_phase ~seed ~seconds ~tr:None ~pass_elems:(ref []) big in
    let run = Tally.to_run t ~setup_s ~setup_ok in
    let lines, metrics = Report.e2e run in
    (run, lines, metrics)
  end
  else begin
    let a = run_phase ~seed ~seconds:(seconds /. 2.0) ~tr:None ~pass_elems:(ref []) big in
    let tr = Sp.create ~now:Cpuclock.self_ns in
    let pass_elems = ref [] in
    let b = run_phase ~seed ~seconds:(seconds /. 2.0) ~tr:(Some tr) ~pass_elems big in
    (* Candidate ranking on the first round's multi-candidate problems. *)
    let problems =
      Gen.permute_round (Gen.rng ~seed 5) ~round:0
      |> Array.to_list
      |> List.filter (fun (_, dims, perm) ->
             let c = List.length (Tensor_nd.candidates ~dims ~perm) in
             c > 1 && c <= max_candidates)
      |> List.filteri (fun i _ -> i < 3)
    in
    let timed = List.map (fun (_, dims, perm) -> time_candidates big ~dims ~perm) problems in
    let regrets =
      List.map
        (fun t ->
          let best = List.fold_left (fun acc (_, ns) -> Float.min acc ns) infinity t in
          snd (List.hd t) /. best)
        timed
    in
    let agree, pairs =
      List.fold_left
        (fun (a, p) t ->
          let a', p' = agreement t in
          (a + a', p + p'))
        (0, 0) timed
    in
    let spans = Sp.spans tr in
    let durs name = Array.of_list (List.map Sp.duration (Sp.named spans name)) in
    let kind_gbps kind =
      let name = "permute.pass." ^ kind in
      let elems = List.fold_left (fun acc (n, e) -> if n = name then acc + e else acc) 0 !pass_elems in
      S.eq37_gbps ~elems ~elt_bytes:8 ~seconds:(S.sum (durs name) *. 1e-9)
    in
    let file = Report.write_trace ~workload:"permute_nd" ~seed spans in
    let m = Report.m in
    let metrics =
      [
        m "permute.plan_us" "us" (S.median (durs "permute.plan") /. 1e3) ~note:"median Tensor_nd.plan";
        m "permute.plan_regret" "1"
          (S.mean (Array.of_list regrets))
          ~note:(Printf.sprintf "chosen / fastest candidate, mean over %d problems" (List.length regrets));
        m "permute.rank_agreement" "1"
          (float_of_int agree /. float_of_int pairs)
          ~note:(Printf.sprintf "%d of %d candidate pairs ordered as measured" agree pairs);
        m "trace.overhead" "1"
          ((Tally.rate b /. Tally.rate a) -. 1.0)
          ~note:(Printf.sprintf "traced %d ops vs untraced %d ops" b.ok a.ok);
      ]
      @ List.map
          (fun k -> m ("permute.pass." ^ k ^ ".gbps") "GB/s" (kind_gbps k) ~note:"Eq. 37 per pass")
          [ "flat"; "batched"; "blocks"; "batched_blocks" ]
    in
    ( Tally.to_run (Tally.merge a b) ~setup_s ~setup_ok,
      [ "spans written to " ^ file ],
      Report.complete Report.per_layer_names metrics )
  end
