(** Element-generic flat buffers.

    The paper's algorithm moves opaque elements; only their count and size
    matter. This module abstracts the buffer so one implementation of the
    algorithm serves 32-bit and 64-bit numeric matrices (bigarrays, no
    boxing), arbitrary OCaml values, and raw byte blobs of any element size
    (the Arrays-of-Structures case, where one "element" is a whole C
    struct). *)

module type S = sig
  type t
  type elt

  val name : string
  (** Human-readable instance name, e.g. ["float64"]. *)

  val elt_bytes : int
  (** Size of one element in bytes, as used by throughput accounting
      (Eq. 37). For [Poly] instances this is the machine word size. *)

  val create : int -> t
  (** [create len] allocates a buffer of [len] elements with unspecified
      contents. *)

  val length : t -> int
  val get : t -> int -> elt
  val set : t -> int -> elt -> unit

  val blit : t -> int -> t -> int -> int -> unit
  (** [blit src spos dst dpos len] copies [len] elements; overlapping
      spans of one buffer copy as if through a temporary.
      @raise Invalid_argument, before copying anything, if [len < 0] or
      either span leaves its buffer. *)

  val of_int : int -> elt
  (** Injection used by tests and examples to fill buffers with
      recognisable values. Total for all [int] inputs that fit the element
      type. *)

  val to_int : elt -> int
  (** Left inverse of {!of_int} for values produced by {!of_int} (within
      the element type's range). *)

  val equal : elt -> elt -> bool
  val pp : Format.formatter -> elt -> unit
end

module Float64 :
  S
    with type elt = float
     and type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed 64-bit floats (the paper's "double" experiments). The
    concrete buffer type is exposed so callers can interoperate with the
    specialized {!Kernels_f64} fast path and with other bigarray code. *)

module Float32 :
  S
    with type elt = float
     and type t = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** 32-bit floats (the paper's "float" experiments). *)

module Int64_elt :
  S
    with type elt = int64
     and type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

module Int32_elt :
  S
    with type elt = int32
     and type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

module Int_elt :
  S
    with type elt = int
     and type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Native OCaml ints in a [Bigarray]; handy for exact index tests. *)

module Poly () : sig
  include S with type elt = Obj.t

  val of_value : 'a -> elt
  val to_value : elt -> 'a
end
(** Boxed OCaml values, one heap word per slot. Generative so distinct
    instantiations cannot be confused. *)

module Blob (Size : sig
  val elt_bytes : int
end) : S with type elt = bytes
(** Raw byte blobs of [Size.elt_bytes] bytes per element over one [Bytes]
    backing store: the Arrays-of-Structures representation. [get] copies
    the element out; [set] copies it in.
    @raise Invalid_argument on construction if [elt_bytes < 1]. *)

val fill_iota : (module S with type t = 'b) -> 'b -> unit
(** [fill_iota (module M) buf] sets slot [l] to [M.of_int l]. *)
