(* A fixed reference kernel, written here and independent of the
   library, that the benchmark times next to every op: eight naive
   out-of-place transposes of a 256 x 256 float64 matrix (1 MB in all,
   inside the 2 MiB L2). On a shared host the guests on the same cores
   slow cache-bound code by up to 2x, in spells that last from seconds
   to minutes; the library's transposes and this kernel slow together,
   while the library's own code is the only thing that differs between
   two builds. Scaling each op's time by [nominal_ms / probe ()] reports
   it at the reference kernel's nominal speed. *)

module A1 = Bigarray.Array1

let side = 256
let reps = 8

(* Time of [probe ()] on an unloaded 2-vCPU Xeon guest (2 MiB L2 per
   core): the speed every scaled figure is reported at. *)
let nominal_ms = 10.0

let buffers =
  lazy
    (let mk v =
       let b = A1.create Bigarray.float64 Bigarray.c_layout (side * side) in
       A1.fill b v;
       b
     in
     (mk 1.0, mk 0.0))

(* Kind-polymorphic on purpose: without a known element kind every
   access goes through the generic Bigarray accessor, a C call that
   boxes each float on the minor heap. The kernel thus mixes calls,
   allocation and L2-resident strided stores, and slows under host
   interference much as the library's transposes do; a monomorphic
   version of it compiles to tight loads and stores and tracks them
   less well. *)
let transpose src dst =
  for i = 0 to side - 1 do
    let row = i * side in
    for j = 0 to side - 1 do
      A1.unsafe_set dst ((j * side) + i) (A1.unsafe_get src (row + j))
    done
  done

(* CPU milliseconds of one run of the reference kernel. *)
let probe () =
  let src, dst = Lazy.force buffers in
  let c0 = Cpuclock.self_ns () in
  for _ = 1 to reps do
    transpose src dst
  done;
  (Cpuclock.self_ns () -. c0) *. 1e-6

(* The factor that takes a time measured now to the nominal speed. *)
let scale () = nominal_ms /. probe ()
