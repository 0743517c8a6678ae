(** Zero-copy storage adapters.

    These lift any {!Storage.S} instance to new instances over the same
    underlying memory, which lets the transposition functor run on
    sub-ranges (batched transposition) and on coarse-grained "elements"
    of several consecutive slots (block transposition) without copying.
    Both serve {!Tensor3.Make.permute_direct}, the hand-factored rank-3
    oracle; the production permute path ([Tensor_nd]) addresses its
    block units directly instead. *)

module Slice (S : Storage.S) : sig
  include Storage.S with type elt = S.elt

  val of_buffer : S.t -> off:int -> len:int -> t
  (** View [len] elements of [buf] starting at [off]. The view aliases
      the buffer: writes are visible through both.
      @raise Invalid_argument if the range is out of bounds. *)

  val base : t -> S.t
  val offset : t -> int
end

module Blocked (S : Storage.S) : sig
  include Storage.S with type elt = S.t
  (** Elements are whole blocks of [block t] consecutive slots of the
      underlying storage; [get] copies a block out, [set] copies one in. *)

  val of_buffer : S.t -> block:int -> t
  (** View [buf] as [length buf / block] block-elements.
      @raise Invalid_argument if [block < 1] or does not divide the
      length. *)

  val block : t -> int
end
(** Caveat: [Blocked.create] cannot know a block size and returns a
    block-1 view, so the algorithm entry points that allocate scratch
    internally ([transpose]) must not be used on blocked views — pass
    scratch obtained from [of_buffer] to [c2r]/[r2c] instead (as
    {!Tensor3} does). *)
