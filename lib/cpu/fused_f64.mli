(** Pass-fused cache-blocked float64 engine — the fast path.

    The monomorphic twin of {!Fused.Make}[(Storage.Float64)], with every
    panel primitive written directly over float64 bigarrays
    ([unsafe_get]/[unsafe_set] loops, no [sub] views, no per-call scratch
    allocation): this is the implementation a performance-conscious
    caller should use for double-precision matrices, in the same spirit
    as {!Xpose_core.Kernels_f64} versus [Algo.Make]. Semantics are
    asserted identical to the element-generic oracle by the test suite.

    Three ways to run it:
    - serial: {!c2r}/{!r2c}/{!transpose} — one domain, one workspace;
    - panel-parallel: {!c2r_pool}/{!r2c_pool}/{!transpose_pool} — one
      matrix, panels partitioned across a {!Pool};
    - batched: {!transpose_batch} — many same-shape matrices, fanned
      matrix-parallel across the pool (or panel-parallel per matrix when
      the batch is smaller than the pool).

    All engines take scratch from a {!Xpose_core.Workspace.F64} (created
    per call when omitted) and memoize plans through
    {!Xpose_core.Plan.Cache}. Observability: one "pass" span per logical
    pass ([rotate_pre] / [row_shuffle] / [fused_col] and inverses), one
    "panel" span per panel visit, with predicted touches from the
    panel-residency model in {!Xpose_core.Pass_cost}.

    {!Checked} is the checked-access shadow mode: the same engine with
    every access bounds-verified
    ({!Xpose_core.Checked_access.Violation} on the first bad one). *)

type buf = Xpose_core.Storage.Float64.t

module Ws = Xpose_core.Workspace.F64

val default_width : int
val default_block_rows : int

val supported_widths : int list
(** {!Fused.Make.supported_widths}: the panel widths the check layer
    proves; any positive [?panel_width] remains accepted and correct. *)

val cycles : m:int -> index:(int -> int) -> int array array
(** Nontrivial cycles of [row_i <- row_{index i}] in gather-chain order;
    shared by every panel (and by every worker of a pool run).
    @raise Invalid_argument if [index] is not a permutation of
    [[0, m)]. *)

(** The full engine surface, satisfied by both the raw top-level
    operations and the {!Checked} shadow-mode twin. *)
module type ENGINE = sig
  (** {1 Sweeps and fused visits}

      Same contracts as the corresponding {!Fused.Make} operations, over
      the column range [[lo, hi)] (default all columns). *)

  val rotate_columns :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    amount:(int -> int) ->
    unit

  val permute_cols :
    ?panel_width:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    cycles:int array array ->
    unit

  val c2r_cols :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    cycles:int array array ->
    unit
  (** One panel visit = rotate by [j] + permute by the cycles of
      [Plan.q]. *)

  val r2c_cols :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?lo:int ->
    ?hi:int ->
    Xpose_core.Plan.t ->
    buf ->
    cycles:int array array ->
    unit
  (** One panel visit = permute by the cycles of [Plan.q_inv] + rotate by
      [-j]. *)

  (** {1 Serial engines}

      The inner loop of every panel pass is the
      {!Xpose_core.Microkernel} movers: the fine-phase gather walks
      8-row tiles through the unrolled {!Xpose_core.Microkernel.col8}
      mover (a guarded element-at-a-time tail covers strip remainders
      and the head-wrap region), and every sub-row move is an unrolled
      {!Xpose_core.Microkernel.copy_span}. *)

  val c2r :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit
  (** @raise Invalid_argument if the buffer size does not match the
      plan. *)

  val r2c :
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val transpose :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?ws:Ws.t ->
    ?cache:Xpose_core.Plan.Cache.t ->
    m:int ->
    n:int ->
    buf ->
    unit
  (** In-place transpose of an [m x n] matrix (same C2R/R2C routing policy
      as [Algo.Make(S).transpose]); plans come from [cache] (default
      {!Xpose_core.Plan.Cache.default}). *)

  (** {1 Panel-parallel engines}

      One matrix, column panels partitioned across the pool; the row
      shuffle partitions across rows. [workspaces] supplies per-lane
      scratch indexed by chunk (at least [Pool.workers pool] entries,
      checked); created per call when omitted.
      @raise Invalid_argument on buffer/plan mismatch or short workspace
      array. *)

  val c2r_pool :
    ?panel_width:int ->
    ?block_rows:int ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val r2c_pool :
    ?panel_width:int ->
    ?block_rows:int ->
    ?workspaces:Ws.t array ->
    Pool.t ->
    Xpose_core.Plan.t ->
    buf ->
    unit

  val transpose_pool :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?workspaces:Ws.t array ->
    ?cache:Xpose_core.Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf ->
    unit

  (** {1 Batched transpose} *)

  val transpose_batch :
    ?order:Xpose_core.Layout.order ->
    ?panel_width:int ->
    ?block_rows:int ->
    ?cache:Xpose_core.Plan.Cache.t ->
    Pool.t ->
    m:int ->
    n:int ->
    buf array ->
    unit
  (** [transpose_batch pool ~m ~n bufs] transposes every matrix of the
      same-shape batch in place. When the batch has at least as many
      matrices as the pool has lanes, lanes take contiguous slices of
      the batch and run the serial engine (one plan, one workspace per
      lane); smaller batches run each matrix panel-parallel instead. A
      single-lane pool therefore always runs the serial engine per
      matrix. The whole batch is validated before any element moves.
      @raise Invalid_argument if any buffer size differs from [m * n]. *)
end

include ENGINE

module Checked : ENGINE
(** Checked-access shadow mode: the identical engine with every matrix
    and workspace access bounds-verified and the workspace buffers
    verified distinct from the matrix, raising
    {!Xpose_core.Checked_access.Violation} on the first bad access
    instead of corrupting memory. Selected by tests (run the suite once
    under checking) and by [xpose check --shadow]. *)

module Summary = Fused.Summary
(** {!Fused.Summary}: the shared panel phases, plus
    {!Fused.Summary.fine_mk} for this engine's micro-kernel fine
    phase. *)
