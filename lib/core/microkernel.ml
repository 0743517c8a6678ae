(* In-register blocked micro-kernels for float64 tile movement.

   Every mover is a fully unrolled straight-line sequence of
   [Bigarray.Array1.unsafe_get]/[unsafe_set] with strength-reduced
   index increments: no per-element bounds test, no branch, no loop
   counter in the hot path, so flambda compiles each into a flat run
   of loads and stores the CPU can issue back to back.  Callers are
   responsible for proving the footprints in bounds — the fused
   engine's tiles are certified by the parametric Bounds/Alias
   provers, and {!Checked} is the shadow twin that verifies every
   access at runtime. *)

type buf = Storage.Float64.t

module A1 = Bigarray.Array1

(* Move 8 elements from a stride-[sstride] column of [src] into a
   stride-[dstride] column of [dst]. The explicit [buf] annotations
   matter: without them the movers infer a polymorphic bigarray type
   and every access goes through the generic-kind path instead of a
   direct float64 load/store. *)
let[@inline] col8 ~(src : buf) ~soff ~sstride ~(dst : buf) ~doff ~dstride =
  let s = soff and d = doff in
  A1.unsafe_set dst d (A1.unsafe_get src s);
  let s = s + sstride and d = d + dstride in
  A1.unsafe_set dst d (A1.unsafe_get src s);
  let s = s + sstride and d = d + dstride in
  A1.unsafe_set dst d (A1.unsafe_get src s);
  let s = s + sstride and d = d + dstride in
  A1.unsafe_set dst d (A1.unsafe_get src s);
  let s = s + sstride and d = d + dstride in
  A1.unsafe_set dst d (A1.unsafe_get src s);
  let s = s + sstride and d = d + dstride in
  A1.unsafe_set dst d (A1.unsafe_get src s);
  let s = s + sstride and d = d + dstride in
  A1.unsafe_set dst d (A1.unsafe_get src s);
  let s = s + sstride and d = d + dstride in
  A1.unsafe_set dst d (A1.unsafe_get src s)

(* Unit-stride 8- and 16-element row copies. *)
let[@inline] row8 ~(src : buf) ~soff ~(dst : buf) ~doff =
  A1.unsafe_set dst doff (A1.unsafe_get src soff);
  A1.unsafe_set dst (doff + 1) (A1.unsafe_get src (soff + 1));
  A1.unsafe_set dst (doff + 2) (A1.unsafe_get src (soff + 2));
  A1.unsafe_set dst (doff + 3) (A1.unsafe_get src (soff + 3));
  A1.unsafe_set dst (doff + 4) (A1.unsafe_get src (soff + 4));
  A1.unsafe_set dst (doff + 5) (A1.unsafe_get src (soff + 5));
  A1.unsafe_set dst (doff + 6) (A1.unsafe_get src (soff + 6));
  A1.unsafe_set dst (doff + 7) (A1.unsafe_get src (soff + 7))

let[@inline] row16 ~src ~soff ~dst ~doff =
  row8 ~src ~soff ~dst ~doff;
  row8 ~src ~soff:(soff + 8) ~dst ~doff:(doff + 8)

(* Chunked unit-stride copy: 16- then 8-wide unrolled chunks, scalar
   tail.  The regions must not overlap. *)
let copy_span ~src ~soff ~dst ~doff ~len =
  let i = ref 0 in
  while !i + 16 <= len do
    row16 ~src ~soff:(soff + !i) ~dst ~doff:(doff + !i);
    i := !i + 16
  done;
  if !i + 8 <= len then (
    row8 ~src ~soff:(soff + !i) ~dst ~doff:(doff + !i);
    i := !i + 8);
  for k = !i to len - 1 do
    A1.unsafe_set dst (doff + k) (A1.unsafe_get src (soff + k))
  done

module Checked = struct
  module S = Storage.Float64

  let who = "Microkernel.Checked"

  let get buf ~what i =
    Checked_access.bounds ~who ~what ~len:(S.length buf) i;
    S.get buf i

  let set buf ~what i v =
    Checked_access.bounds ~who ~what ~len:(S.length buf) i;
    S.set buf i v

  let col8 ~src ~soff ~sstride ~dst ~doff ~dstride =
    for t = 0 to 7 do
      set dst ~what:"col write"
        (doff + (t * dstride))
        (get src ~what:"col read" (soff + (t * sstride)))
    done

  let copy_span ~src ~soff ~dst ~doff ~len =
    for k = 0 to len - 1 do
      set dst ~what:"span write" (doff + k)
        (get src ~what:"span read" (soff + k))
    done
end
