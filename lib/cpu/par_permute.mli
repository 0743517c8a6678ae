(** Pool-parallel execution of [Xpose_permute] plans (the rank-N
    counterpart of {!Par_transpose}).

    Each primitive pass parallelises along whichever axis offers enough
    independent work:

    - [batch = 1, block = 1] (a flat 2-D transpose): delegate to
      {!Par_transpose}, which chunks the permutation passes themselves;
    - [batch > 1]: the batch slices are independent transpositions —
      statically chunk them across the pool, one scratch buffer per
      worker (the paper's "perfect load balancing" carries over);
    - [batch = 1, block > 1] (a block transpose): split the {e block}
      axis instead — each worker owns the slots [[lo, hi)] of every
      block and runs the same C2R/R2C permutation on those
      [hi - lo]-slot units ([Tensor_nd.Make.transpose_units] with
      [stride = block]) independently.

    Total auxiliary space stays [O(workers * block * max(rows, cols))]. *)

module Make (S : Xpose_core.Storage.S) : sig
  type buf = S.t

  val transpose :
    Pool.t -> batch:int -> rows:int -> cols:int -> block:int -> buf -> unit
  (** Parallel pass primitive; semantics of
      [Xpose_core.Tensor_nd.Make(S).transpose]. *)

  val execute : Pool.t -> Xpose_permute.Permute.plan -> buf -> unit
  (** Run a prebuilt plan on the pool (a barrier between passes).
      @raise Invalid_argument on a buffer length mismatch. *)

  val permute : Pool.t -> dims:int array -> perm:int array -> buf -> unit
  (** Plan (with [Tensor_nd.plan_arith]) and execute on the pool; same
      specification as [Tensor_nd.Make(S).permute]. *)
end
