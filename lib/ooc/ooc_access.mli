(** Symbolic access summaries of the out-of-core passes.

    Window bounds, pool sub-ranges, and panel budgets are parameters
    carrying their defining inequalities, so the certificates
    [Xpose_check.Bounds] derives from these summaries hold for every
    [--window-bytes] budget and every {!Window.split} outcome -- no
    geometry enumeration. *)

open Xpose_core

val shuffle_rows : ungather:bool -> Access.summary
(** [Ooc_f64]'s in-window row shuffle on one pool chunk [lo, hi) of a
    mapped row window [win_lo, win_hi): reads go through [d'_inv]
    ([ungather:false], C2R) or [d'] ([ungather:true], R2C) at
    window-relative offsets. Exact. *)

val exchange_panel : Access.summary
(** One stripe window's share of a panel hand-off: per row, the
    finished panel [out_lo, out_hi) is copied from the staging buffer
    into the stripe, then the next panel [in_lo, in_hi) from the stripe
    into the staging. Either range may be empty; each satisfies
    [hi <= min(n, lo + per)] with [per] the panel column budget. Exact. *)

val all : Access.summary list
