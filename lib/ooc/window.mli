(** Window geometry for the out-of-core engine: pure arithmetic, no I/O.

    The out-of-core engine never maps more than a caller-supplied byte
    budget of its backing file at once. This module decides how that
    budget is carved up: how many rows fit in one streaming row window,
    how many columns fit in one staged column panel, and the exact
    half-open window list covering an index range. The race analyzer
    ({!Xpose_check.Footprint}) partitions index space with these very
    functions, so the proofs cover the splits the engine executes. *)

type t = { lo : int; hi : int }
(** One half-open window [[lo, hi)] of an index range. *)

type splitter = total:int -> per:int -> t list
(** A policy carving [[0, total)] into windows of at most [per] units. *)

val split : splitter
(** [split ~total ~per] covers [[0, total)] with consecutive disjoint
    windows of [per] units (the last one may be short). [per] is clamped
    to at least 1, so the list is finite and exact even under absurdly
    small budgets.
    @raise Invalid_argument if [total < 0]. *)

val overlapping_split : splitter
(** The deliberately broken policy for the seeded negative test: every
    window but the last claims one extra trailing unit, recreating the
    classic inclusive-[hi] windowing bug. The race analyzer must report
    a write/write conflict between adjacent windows under this policy. *)

(** {1 Budget arithmetic}

    All sizing is in float64 {e elements}; one element is 8 bytes. Every
    function returns at least 1 — a budget too small for even one row or
    column degrades to single-row/column windows rather than failing, so
    the engine's peak residency can exceed a sub-row budget (the
    [ooc.window_peak_bytes] gauge reports what actually happened). *)

val budget_elems : window_bytes:int -> int
(** The window budget in elements, [max 1 (window_bytes / 8)]. *)

val row_rows : budget_elems:int -> n:int -> int
(** Rows per streaming row window such that {e two} windows (the one
    being permuted and the one being prefetched) fit in the budget:
    [max 1 (budget / (2n))]. *)

val stripe_rows : budget_elems:int -> n:int -> int
(** Rows per panel hand-off stripe of the column phase: [max 1 (budget /
    (4n))], so one stripe rides alongside the two resident stagings. *)

val panel_cols : budget_elems:int -> m:int -> int
(** Columns per staged column panel such that each of the two stagings
    (compute + prefetch) fits in a quarter of the budget:
    [max 1 (budget / (4m))]. With one stripe that keeps the column
    phase at three quarters of the budget. *)
