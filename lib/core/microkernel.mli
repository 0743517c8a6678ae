(** In-register blocked micro-kernels for float64 tile movement.

    The movers below are the unsafe inner loop of the fused engine
    ({!Xpose_cpu.Fused_f64}): fully unrolled straight-line load/store
    sequences with strength-reduced index increments, written so
    flambda emits flat branch-free code. The fine-phase gather moves
    8-row tiles one panel column at a time through {!col8}, and every
    sub-row move goes through the chunked {!copy_span}.

    No access is bounds checked. Callers must guarantee every
    footprint — the fused engine's tile loops are certified
    parametrically by the Bounds/Alias provers, and {!Checked} is the
    runtime-verified shadow twin selected under [XPOSE_CHECKED=1]. *)

type buf = Storage.Float64.t

val col8 :
  src:buf -> soff:int -> sstride:int -> dst:buf -> doff:int -> dstride:int ->
  unit
(** [col8 ~src ~soff ~sstride ~dst ~doff ~dstride] moves the 8 elements
    [src.(soff + t*sstride)] to [dst.(doff + t*dstride)] for
    [t in 0..7], fully unrolled. *)

val copy_span : src:buf -> soff:int -> dst:buf -> doff:int -> len:int -> unit
(** Chunked unit-stride copy of [len] elements: unrolled 16- then
    8-wide chunks, scalar tail. The two spans must not overlap. *)

(** Runtime-verified shadow twins: identical movement, every access
    bounds checked through {!Checked_access}
    (raises {!Checked_access.Violation} on the first bad index). *)
module Checked : sig
  val col8 :
    src:buf -> soff:int -> sstride:int -> dst:buf -> doff:int ->
    dstride:int -> unit

  val copy_span :
    src:buf -> soff:int -> dst:buf -> doff:int -> len:int -> unit
end
