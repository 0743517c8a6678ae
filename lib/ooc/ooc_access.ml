(* Symbolic access summaries of the out-of-core passes (Ooc_f64): the
   row-shuffle over a mapped row window and the panel hand-off between
   a stripe window and the staging buffer. The window geometry
   is fully parametric -- window bounds, pool sub-ranges, and panel
   budgets are parameters with their defining inequalities -- so one
   certificate covers every --window-bytes budget and every Window.split
   outcome at once. The column-phase compute on the staging buffer runs
   the fused panel primitives under a local m x w plan, which the
   (shape-universal) fused and kernel certificates already cover. *)

open Xpose_core.Access

let m = var "m"
let n = var "n"

(* Ooc_f64.shuffle_rows on one pool chunk [lo, hi) of a mapped row
   window [win_lo, win_hi): the window buffer holds rows win_lo..win_hi
   of the matrix, indexed relative to win_lo; the row map uses the
   global row index i. *)
let shuffle_rows ~ungather =
  let d ~i j = if ungather then Ix.d' ~i j else Ix.d'_inv ~i j in
  {
    pass =
      (if ungather then "ooc.row_unshuffle" else "ooc.row_shuffle");
    basis = Plan_basis;
    params =
      [
        {
          name = "win_hi";
          p_lo = Const 1;
          p_his = [ m ];
          sample = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
        };
        {
          name = "win_lo";
          p_lo = Const 0;
          p_his = [ var "win_hi" -: num 1 ];
          sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
        };
        {
          name = "hi";
          p_lo = Const 0;
          p_his = [ var "win_hi" ];
          sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
        };
        {
          name = "lo";
          p_lo = var "win_lo";
          p_his = [ var "hi" ];
          sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
        };
      ];
    regions =
      [
        { rname = "win"; size = (var "win_hi" -: var "win_lo") *: n };
        { rname = "tmp"; size = Max (m, n) };
      ];
    body =
      [
        for_ "i" (var "lo") (var "hi")
          [
            bind "base"
              ((var "i" -: var "win_lo") *: n)
              [
                for_ "j" (num 0) n
                  [
                    read "win" (var "base" +: d ~i:(var "i") (var "j"));
                    write "tmp" (var "j");
                  ];
                for_ "j2" (num 0) n
                  [
                    read "tmp" (var "j2");
                    write "win" (var "base" +: var "j2");
                  ];
              ];
          ];
      ];
    exact = true;
  }

(* Panel hand-off (Ooc_f64.exchange_panel): one stripe window [s_lo,
   s_hi) of rows is mapped and, row by row, the finished panel [out_lo,
   out_hi) is copied from the staging into the stripe, then the next
   panel [in_lo, in_hi) from the stripe into the staging. Either panel
   may be empty (the first gather, the last scatter). Both are clipped
   to the per-panel budget [per] and to n. The staging is one buffer
   (both schedules drain and refill the same one), indexed by the
   global row: stag[i*w + jj] for a panel of width w, capacity
   m * min(per, n). *)
let panel_range ~lo ~hi =
  [
    {
      name = lo;
      p_lo = Const 0;
      p_his = [ n ];
      sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
    };
    {
      name = hi;
      p_lo = var lo;
      p_his = [ n; var lo +: var "per" ];
      sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
    };
  ]

let exchange_panel =
  let copy ~lo ~hi ~jj ~scatter =
    let width = var hi -: var lo in
    let win_ix = ((var "i" -: var "s_lo") *: n) +: var lo +: var jj
    and stag_ix = (var "i" *: width) +: var jj in
    for_ jj (num 0) width
      (if scatter then [ read "stag" stag_ix; write "win" win_ix ]
       else [ read "win" win_ix; write "stag" stag_ix ])
  in
  {
    pass = "ooc.exchange_panel";
    basis = Free_basis;
    params =
      [
        { name = "per"; p_lo = Const 1; p_his = []; sample = [ 1; 2; 3; 5 ] };
        {
          name = "s_hi";
          p_lo = Const 0;
          p_his = [ m ];
          sample = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
        };
        {
          name = "s_lo";
          p_lo = Const 0;
          p_his = [ var "s_hi" ];
          sample = [ 0; 1; 2; 3; 4; 5; 6 ];
        };
      ]
      @ panel_range ~lo:"out_lo" ~hi:"out_hi"
      @ panel_range ~lo:"in_lo" ~hi:"in_hi";
    regions =
      [
        { rname = "win"; size = (var "s_hi" -: var "s_lo") *: n };
        { rname = "stag"; size = m *: Min (var "per", n) };
      ];
    body =
      [
        for_ "i" (var "s_lo") (var "s_hi")
          [
            copy ~lo:"out_lo" ~hi:"out_hi" ~jj:"jj" ~scatter:true;
            copy ~lo:"in_lo" ~hi:"in_hi" ~jj:"jj2" ~scatter:false;
          ];
      ];
    exact = true;
  }

let all = [ shuffle_rows ~ungather:false; shuffle_rows ~ungather:true;
            exchange_panel ]
