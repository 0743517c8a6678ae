(** Executing a planned pass sequence.

    [Xpose_permute] is dependency-free, so it cannot name
    [Xpose_core.Storage] directly; instead the executor is a functor over
    the one primitive the plans are built from, and the storage-generic
    implementations live above:

    - [Xpose_core.Tensor_nd.Make] supplies the serial primitive
      (a strided unit kernel over any [Storage.S] instance driving the
      paper's C2R/R2C kernels);
    - [Xpose_cpu.Par_permute.Make] supplies a [Pool]-parallel one. *)

module type PRIMITIVES = sig
  type buf

  val length : buf -> int

  val transpose : batch:int -> rows:int -> cols:int -> block:int -> buf -> unit
  (** In place: [buf], viewed as a [batch x rows x cols x block] row-major
      tensor, becomes the same data viewed as [batch x cols x rows x block]
      (each [rows x cols] matrix of [block]-element units transposed). *)
end

module Make (P : PRIMITIVES) : sig
  val run_passes : Decompose.pass list -> P.buf -> unit
  (** Run the passes in order.
      @raise Invalid_argument if a pass's [elems] does not match the
      buffer length. *)
end
