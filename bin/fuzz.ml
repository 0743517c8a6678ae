(* Differential fuzzer: every transposition implementation in the
   repository is run on the same random matrices and compared against the
   out-of-place reference. Exits non-zero on the first divergence, with a
   reproducer line. Used by CI-style checks (`xpose-fuzz -i 500`) beyond
   the unit test suite's fixed cases. *)

open Cmdliner
open Xpose_core
module S = Storage.Int_elt
module A = Instances.I
module FusedI = Xpose_cpu.Fused.Make (S)
module ParT = Xpose_cpu.Par_transpose.Make (S)
module Cycle = Xpose_baselines.Cycle_follow.Make (S)
module Gus = Xpose_baselines.Gustavson.Make (S)
module SungI = Xpose_baselines.Sung.Make (S)

let iota len =
  let buf = S.create len in
  Storage.fill_iota (module S) buf;
  buf

let to_list buf = List.init (S.length buf) (S.get buf)

let expected ~m ~n = List.init (m * n) (fun l -> (n * (l mod m)) + (l / m))

type impl = { name : string; run : pool:Xpose_cpu.Pool.t -> m:int -> n:int -> S.t -> unit }

let impls =
  [
    { name = "algo-gather";
      run = (fun ~pool:_ ~m ~n buf ->
          A.c2r ~variant:Algo.C2r_gather (Plan.make ~m ~n) buf
            ~tmp:(S.create (max m n))) };
    { name = "algo-scatter";
      run = (fun ~pool:_ ~m ~n buf ->
          A.c2r ~variant:Algo.C2r_scatter (Plan.make ~m ~n) buf
            ~tmp:(S.create (max m n))) };
    { name = "algo-decomposed";
      run = (fun ~pool:_ ~m ~n buf ->
          A.c2r ~variant:Algo.C2r_decomposed (Plan.make ~m ~n) buf
            ~tmp:(S.create (max m n))) };
    { name = "algo-r2c";
      run = (fun ~pool:_ ~m ~n buf ->
          A.r2c (Plan.make ~m:n ~n:m) buf ~tmp:(S.create (max m n))) };
    { name = "fused-generic";
      run = (fun ~pool:_ ~m ~n buf -> FusedI.transpose ~m ~n buf) };
    { name = "parallel";
      run = (fun ~pool ~m ~n buf -> ParT.c2r pool (Plan.make ~m ~n) buf) };
    { name = "cycle-bitvec";
      run = (fun ~pool:_ ~m ~n buf -> Cycle.transpose_bitvec ~m ~n buf) };
    { name = "cycle-leader";
      run = (fun ~pool:_ ~m ~n buf -> Cycle.transpose_leader ~m ~n buf) };
    { name = "gustavson";
      run = (fun ~pool:_ ~m ~n buf -> Gus.transpose ~m ~n buf) };
    { name = "sung";
      run = (fun ~pool:_ ~m ~n buf -> SungI.transpose ~m ~n buf) };
  ]

module Nd = Tensor_nd.Make (S)
module ParP = Xpose_cpu.Par_permute.Make (S)
module Shape = Xpose_permute.Shape

(* random rank-N permutation problem with at most 2^16 elements *)
let random_problem rng =
  let rank = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:6 in
  let dims = Array.make rank 1 in
  let budget = ref 65536 in
  for ax = 0 to rank - 1 do
    let hi = min 16 !budget in
    dims.(ax) <- Xpose_harness.Rng.int_range rng ~lo:1 ~hi:(hi + 1);
    budget := !budget / dims.(ax)
  done;
  (dims, Xpose_harness.Rng.permutation rng rank)

let permute_check ~pool ~rng it seed failures =
  let dims, perm = random_problem rng in
  let total = Shape.nelems dims in
  let want = Array.make total 0 in
  for l = 0 to total - 1 do
    want.(Shape.permuted_index ~dims ~perm (Shape.multi_index ~dims l)) <- l
  done;
  let reproducer name =
    incr failures;
    Printf.printf "MISMATCH %s at dims %s perm %s (iteration %d, seed %d)\n"
      name
      (Format.asprintf "%a" Shape.pp_dims dims)
      (Format.asprintf "%a" Shape.pp_perm perm)
      it seed
  in
  let agrees buf = Array.for_all Fun.id
      (Array.init total (fun i -> S.to_int (S.get buf i) = want.(i)))
  in
  let serial = iota total in
  (match Nd.permute ~dims ~perm serial with
  | () -> if not (agrees serial) then reproducer "permute-serial"
  | exception exn ->
      incr failures;
      Printf.printf "EXCEPTION permute-serial at dims %s: %s\n"
        (Format.asprintf "%a" Shape.pp_dims dims)
        (Printexc.to_string exn));
  let par = iota total in
  match ParP.permute pool ~dims ~perm par with
  | () -> if not (agrees par) then reproducer "permute-parallel"
  | exception exn ->
      incr failures;
      Printf.printf "EXCEPTION permute-parallel at dims %s: %s\n"
        (Format.asprintf "%a" Shape.pp_dims dims)
        (Printexc.to_string exn)

let gpu_exec_check ~m ~n =
  (* the executed GPU kernels, on a fresh simulated memory *)
  let open Xpose_simd_machine in
  let mem =
    Memory.create Config.k20c
      ~words:((m * n) + Xpose_simd.Gpu_exec.scratch_words ~m ~n)
  in
  for l = 0 to (m * n) - 1 do
    Memory.poke mem l l
  done;
  ignore (Xpose_simd.Gpu_exec.c2r mem ~m ~n);
  List.init (m * n) (Memory.peek mem)

(* The production float64 pool engine: C2R and R2C on a pool of 1-3
   lanes at a random panel width, each compared exactly against the float
   iota transposed out of place. *)
let fused_pool_families =
  let module F = Xpose_cpu.Fused_f64 in
  [
    ( "fused-f64-c2r-pool",
      fun ~panel_width pool ~m ~n buf ->
        F.c2r_pool ~panel_width pool (Plan.make ~m ~n) buf );
    ( "fused-f64-r2c-pool",
      fun ~panel_width pool ~m ~n buf ->
        F.r2c_pool ~panel_width pool (Plan.make ~m:n ~n:m) buf );
  ]

let fused_pool_check ~pools ~rng ~m ~n ~want it seed failures =
  let lanes = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:4 in
  let panel_width = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:20 in
  let want = List.map float_of_int want in
  List.iter
    (fun (name, run) ->
      let buf =
        Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout (m * n)
          float_of_int
      in
      let fail kind =
        incr failures;
        Printf.printf
          "%s %s at m=%d n=%d lanes=%d width=%d (iteration %d, seed %d)\n" kind
          name m n lanes panel_width it seed
      in
      match run ~panel_width pools.(lanes - 1) ~m ~n buf with
      | () ->
          if List.init (m * n) (Bigarray.Array1.get buf) <> want then
            fail "MISMATCH"
      | exception exn -> fail ("EXCEPTION " ^ Printexc.to_string exn))
    fused_pool_families

let run_fuzz iterations seed max_dim workers =
  let rng = Xpose_harness.Rng.create ~seed in
  let failures = ref 0 in
  Xpose_cpu.Pool.with_pool ~workers:2 @@ fun pool2 ->
  Xpose_cpu.Pool.with_pool ~workers:3 @@ fun pool3 ->
  let pools = [| Xpose_cpu.Pool.sequential; pool2; pool3 |] in
  Xpose_cpu.Pool.with_pool ~workers (fun pool ->
      for it = 1 to iterations do
        let m = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:(max_dim + 1) in
        let n = Xpose_harness.Rng.int_range rng ~lo:1 ~hi:(max_dim + 1) in
        let want = expected ~m ~n in
        List.iter
          (fun impl ->
            let buf = iota (m * n) in
            match impl.run ~pool ~m ~n buf with
            | () ->
                if to_list buf <> want then begin
                  incr failures;
                  Printf.printf
                    "MISMATCH %s at m=%d n=%d (iteration %d, seed %d)\n"
                    impl.name m n it seed
                end
            | exception exn ->
                incr failures;
                Printf.printf "EXCEPTION %s at m=%d n=%d: %s\n" impl.name m n
                  (Printexc.to_string exn))
          impls;
        fused_pool_check ~pools ~rng ~m ~n ~want it seed failures;
        if gpu_exec_check ~m ~n <> want then begin
          incr failures;
          Printf.printf "MISMATCH gpu-exec at m=%d n=%d (iteration %d)\n" m n it
        end;
        permute_check ~pool ~rng it seed failures
      done);
  if !failures = 0 then begin
    Printf.printf "fuzz: %d iterations x %d implementations, all agree\n"
      iterations
      (List.length impls + List.length fused_pool_families + 1);
    Printf.printf
      "fuzz: %d rank-N permutations x 2 executors, all match the oracle\n"
      iterations;
    `Ok ()
  end
  else `Error (false, Printf.sprintf "%d divergences found" !failures)

let iterations_arg =
  Arg.(value & opt int 50 & info [ "i"; "iterations" ] ~docv:"N" ~doc:"Iterations.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let max_dim_arg =
  Arg.(value & opt int 64 & info [ "max-dim" ] ~docv:"D" ~doc:"Maximum dimension.")

let workers_arg =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"W" ~doc:"Pool workers.")

let main =
  let doc = "Differential fuzzing across every transposition implementation." in
  Cmd.v (Cmd.info "xpose-fuzz" ~doc)
    Term.(ret (const run_fuzz $ iterations_arg $ seed_arg $ max_dim_arg $ workers_arg))

let () = exit (Cmd.eval main)
