(** In-place axis permutation of arbitrary-rank row-major tensors.

    The serial execution layer of the [Xpose_permute] planner: the
    planner (pure index arithmetic, [lib/permute/]) normalizes the
    permutation and factors it into batched/blocked/flat 2-D transpose
    passes priced by a cost model; this functor supplies the single
    primitive those passes need — an in-place transpose of a
    [batch x rows x cols x block] middle pair. A flat pass runs
    {!Algo.Make} on the plain buffer; every batched or blocked pass runs
    {!Make.transpose_units}, the paper's C2R/R2C phases on a matrix
    whose "elements" are [block]-slot units (the AoS reading of §5),
    each moved with one contiguous copy.

    Auxiliary space is [O(block * max(rows, cols))] per pass — the
    Theorem 6 bound applied to block elements — still asymptotically
    below the full copy an out-of-place permutation needs.

    {!Tensor3} delegates its six rank-3 permutations here (keeping its
    original hand-written factorization as [permute_direct], a
    cross-check oracle for the test suite). The pool-parallel
    counterpart is [Xpose_cpu.Par_permute]. *)

val plan_arith : Xpose_permute.Cost.arith
(** The planner cost arithmetic fed by {!Plan}: element touches from
    Theorem 6 via [Plan.coprime]/[Plan.b] (asserted equal to
    {!Theory.theorem6_work_and_space} in the test suite) and scratch
    from {!Plan.scratch_elements}. *)

val plan : dims:int array -> perm:int array -> Xpose_permute.Permute.plan
(** The cheapest plan under {!plan_arith}.
    @raise Invalid_argument on an invalid shape/permutation pair. *)

val candidates :
  dims:int array -> perm:int array -> Xpose_permute.Permute.plan list
(** All minimal-pass candidates under {!plan_arith}, cheapest first. *)

val orient : rows:int -> cols:int -> Plan.t * [ `C2r | `R2c ]
(** The plan and direction that transpose a [rows x cols] matrix: C2R on
    plan [(rows, cols)] when [rows > cols] (the §5.2 heuristic), R2C on
    plan [(cols, rows)] otherwise. *)

module Make (S : Storage.S) : sig
  type buf = S.t

  val transpose_units :
    Plan.t ->
    [ `C2r | `R2c ] ->
    batch:int ->
    off:int ->
    stride:int ->
    width:int ->
    buf ->
    unit
  (** The strided unit kernel. [transpose_units p dir ~batch ~off ~stride
      ~width buf] transposes [batch] matrices of units in place: unit [u]
      of matrix [b] is the [width] slots starting at
      [off + (b * p.m * p.n + u) * stride]. [`C2r] takes each [p.m x p.n]
      matrix to its [p.n x p.m] transpose and [`R2c] the reverse, by the
      default phases of {!Algo.Make} (one [Tracer.pass] span per phase
      and matrix). Slots outside the units are neither read nor written,
      so disjoint sub-ranges of the same blocks ([stride > width]) can
      be transposed independently. Scratch: [width * max p.m p.n]
      elements.
      @raise Invalid_argument if [batch < 0], [off < 0], [width < 1],
      [stride < width], or the last unit overruns [buf]. *)

  val transpose : batch:int -> rows:int -> cols:int -> block:int -> buf -> unit
  (** The pass primitive: [buf], viewed as [batch x rows x cols x block]
      row-major, has its middle axes swapped in place.
      @raise Invalid_argument on non-positive sizes or a length
      mismatch. *)

  val execute : Xpose_permute.Permute.plan -> buf -> unit
  (** Run a prebuilt plan.
      @raise Invalid_argument if the buffer length does not match the
      plan's dimensions. *)

  val permute : dims:int array -> perm:int array -> buf -> unit
  (** Plan and execute: afterwards the buffer holds the tensor with
      dimensions [permuted_dims ~dims ~perm] whose element at the
      permuted multi-index equals the source element (specification:
      {!permuted_index}). Rank [>= 1] and any axis permutation.
      @raise Invalid_argument on invalid shape/perm or buffer length. *)

  val permuted_dims : dims:int array -> perm:int array -> int array
  val permuted_index : dims:int array -> perm:int array -> int array -> int
  (** Re-exports of the [Xpose_permute.Shape] oracle. *)
end
