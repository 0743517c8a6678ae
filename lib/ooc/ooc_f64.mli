(** Windowed out-of-core float64 transposition with bounded residency.

    The same decomposition as {!Xpose_cpu.Fused_f64} — pre-rotation (when
    [gcd(m,n) > 1]), row shuffle, fused column phase, or the inverse
    sequence — restructured so that at any moment only [~window_bytes]
    of the backing file is logically mapped:

    - the {e row phases} stream the file in row windows: each window is
      mapped, every row in it is shuffled through per-lane Theorem-6
      scratch ({!Xpose_core.Plan.d'} indexing is global, so a window is
      self-contained), and the mapping is dropped;
    - the {e column phases} (stride-[n] access) are blocked into
      width-bounded column panels, each permuted in a contiguous RAM
      staging with the fused engine's panel primitives
      ({!Xpose_cpu.Fused_f64.rotate_columns} /
      {!Xpose_cpu.Fused_f64.permute_cols} on a local [m x w] plan, with
      rotation amounts taken at global column indices). Panels hand off
      through one sweep of bounded row stripes: each stripe is mapped
      once, the finished panel's columns are scattered into it and the
      next panel's columns gathered out of it.

    Every mapping is unmapped ({!Xpose_mmap.File_matrix.unmap}) as soon
    as it is used, so the mappings the ledger below counts are the ones
    that exist; no collection is needed to release them.

    With [prefetch] (the default) a dedicated {!Io_domain} maps and
    pre-faults row window [k+1] — and hands panel [k-1] out and panel
    [k+1] in — while the {!Xpose_cpu.Pool} workers permute window or
    panel [k]: classic double buffering, two row windows or two stagings
    resident.

    Residency accounting ([ooc.*] metrics):
    - [ooc.windows] — mappings created (row windows and stripes count
      one each; the fits-in-budget fast path counts one);
    - [ooc.bytes_mapped] — total bytes ever mapped (not a peak);
    - [ooc.window_peak_bytes] — gauge, high-water mark of concurrently
      live window bytes (mapped windows + panel stagings). The window
      split keeps this at most [window_bytes] — two half-budget row
      windows in the row phases; two quarter-budget stagings and one
      quarter-budget stripe in the column phases — whenever the budget
      holds at least two rows and two columns ([window_bytes >= 16 *
      max m n]); below that the engine degrades to single-row /
      single-column windows and the gauge reports the overshoot;
    - [ooc.prefetch_hits] / [ooc.prefetch_waits] — windows whose
      prefetch had / had not completed when the compute side needed
      them.

    Each pass opens an [ooc.*] ["pass"] span and each window an
    ["ooc.window"] span with its {!Xpose_core.Pass_cost} predicted
    traffic, so [xpose report]-style prediction-vs-measurement works at
    window granularity. *)

val default_window_bytes : int
(** 64 MiB. *)

val transpose_file :
  ?order:Xpose_core.Layout.order ->
  ?pool:Xpose_cpu.Pool.t ->
  ?window_bytes:int ->
  ?prefetch:bool ->
  ?cache:Xpose_core.Plan.Cache.t ->
  path:string ->
  m:int ->
  n:int ->
  unit ->
  unit
(** [transpose_file ~path ~m ~n ()] transposes the [m x n] float64
    matrix stored in [path] in place in the file, mapping at most a
    [window_bytes]-sized working set at a time (default
    {!default_window_bytes}; matrices that fit entirely are mapped once
    and handed to {!Xpose_cpu.Fused_f64}). [pool] (default
    {!Xpose_cpu.Pool.sequential}) runs the in-window permutation;
    [prefetch] (default [true]) overlaps the next window's I/O with it.
    Same C2R/R2C routing policy as the in-RAM engines; plans come from
    [cache].
    @raise Invalid_argument if [m < 1], [n < 1], [window_bytes < 8], or
    the file does not hold exactly [m*n] float64 elements. *)
