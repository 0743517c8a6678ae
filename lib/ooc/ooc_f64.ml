open Xpose_core
module Ws = Workspace.F64
module FF = Xpose_cpu.Fused_f64
module Pool = Xpose_cpu.Pool
module FM = Xpose_mmap.File_matrix

type buf = Storage.Float64.t

let default_window_bytes = 64 * 1024 * 1024

(* Registered on first use so linking the library does not grow the
   metrics dump of runs that never go out of core. *)
let m_windows = Xpose_obs.Metrics.(lazily counter "ooc.windows")
let m_bytes = Xpose_obs.Metrics.(lazily counter "ooc.bytes_mapped")
let m_hits = Xpose_obs.Metrics.(lazily counter "ooc.prefetch_hits")
let m_waits = Xpose_obs.Metrics.(lazily counter "ooc.prefetch_waits")
let g_peak = Xpose_obs.Metrics.(lazily gauge "ooc.window_peak_bytes")

(* -- residency ledger ------------------------------------------------------

   Residency: bytes of mappings and stagings currently live, the
   high-water mark published as the [ooc.window_peak_bytes] gauge. Every
   mapping is unmapped as soon as it is used, so the ledger tracks the
   mappings that really exist. The compute domain and the I/O domain
   both map and release, hence the atomics. *)

type ledger = { cur : int Atomic.t; peak : int Atomic.t }

let ledger () = { cur = Atomic.make 0; peak = Atomic.make 0 }

let resident led bytes =
  let now = Atomic.fetch_and_add led.cur bytes + bytes in
  let rec bump () =
    let p = Atomic.get led.peak in
    if now > p && not (Atomic.compare_and_set led.peak p now) then bump ()
  in
  bump ();
  let g = g_peak () in
  let p = float_of_int (Atomic.get led.peak) in
  if p > Xpose_obs.Metrics.gauge_value g then Xpose_obs.Metrics.set_gauge g p

let released led bytes = ignore (Atomic.fetch_and_add led.cur (-bytes))

let map_counted led fd ~pos ~len =
  Xpose_obs.Metrics.incr (m_windows ());
  Xpose_obs.Metrics.incr ~by:(len * 8) (m_bytes ());
  resident led (len * 8);
  FM.map_range fd ~pos ~len

(* The other half of [map_counted]: unmap [a] now and debit the ledger
   by its own length. [a] is dead afterwards. *)
let unmap_counted led (a : buf) =
  let bytes = Bigarray.Array1.dim a * 8 in
  ignore (FM.unmap a);
  released led bytes

let count_await job =
  if Io_domain.await job then Xpose_obs.Metrics.incr (m_hits ())
  else Xpose_obs.Metrics.incr (m_waits ())

(* Touch one element per page so the prefetching domain takes the page
   faults, not the pool workers. 512 float64s = one 4 KiB page. *)
let page_elems = 512

let prefault (a : buf) =
  let acc = ref 0.0 in
  let len = Bigarray.Array1.dim a in
  let i = ref 0 in
  while !i < len do
    acc := !acc +. Bigarray.Array1.unsafe_get a !i;
    i := !i + page_elems
  done;
  ignore (Sys.opaque_identity !acc)

let span_window ~rows ~cols ~pred f =
  Xpose_obs.Tracer.with_span ~cat:"ooc"
    ~args:(fun () ->
      [
        ("rows", Xpose_obs.Tracer.Int rows);
        ("cols", Xpose_obs.Tracer.Int cols);
        ("pred_touches", Xpose_obs.Tracer.Int pred);
      ])
    "ooc.window" f

(* -- row phases ------------------------------------------------------------

   [Plan.d'] / [Plan.d'_inv] take the global row index, so a shuffle of
   rows [lo, hi) only ever reads and writes inside its own window; the
   window base [row0] converts global rows to window offsets. This is
   the one pass the fused engine's primitives cannot run on a window
   (their row index doubles as the buffer offset), hence the local
   loop. *)

let shuffle_rows (p : Plan.t) (win : buf) ~row0 ~(tmp : buf) ~ungather ~lo ~hi =
  let n = p.n in
  for i = lo to hi - 1 do
    let base = (i - row0) * n in
    if ungather then
      for j = 0 to n - 1 do
        Bigarray.Array1.unsafe_set tmp j
          (Bigarray.Array1.unsafe_get win (base + Plan.d' p ~i j))
      done
    else
      for j = 0 to n - 1 do
        Bigarray.Array1.unsafe_set tmp j
          (Bigarray.Array1.unsafe_get win (base + Plan.d'_inv p ~i j))
      done;
    for j = 0 to n - 1 do
      Bigarray.Array1.unsafe_set win (base + j) (Bigarray.Array1.unsafe_get tmp j)
    done
  done

let row_pass ~led ~io ~pool ~wss ~budget (p : Plan.t) fd ~name ~ungather =
  let scratch = Plan.scratch_elements p in
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n
    ~pred_touches:(Pass_cost.shuffle p) ~scratch_elems:scratch
  @@ fun () ->
  let per = Window.row_rows ~budget_elems:budget ~n:p.n in
  let windows = Array.of_list (Window.split ~total:p.m ~per) in
  let k_max = Array.length windows in
  let slots : buf option array = Array.make k_max None in
  let map_window k =
    let w = windows.(k) in
    let a =
      map_counted led fd ~pos:(w.Window.lo * p.n)
        ~len:((w.Window.hi - w.Window.lo) * p.n)
    in
    prefault a;
    slots.(k) <- Some a
  in
  let release k =
    unmap_counted led (Option.get slots.(k));
    slots.(k) <- None
  in
  let compute k =
    let w = windows.(k) in
    let win = Option.get slots.(k) in
    let rows = w.Window.hi - w.Window.lo in
    span_window ~rows ~cols:p.n ~pred:(Pass_cost.ooc_row_window p ~rows)
      (fun () ->
        Pool.parallel_chunks pool ~lo:w.Window.lo ~hi:w.Window.hi
          (fun ~chunk ~lo ~hi ->
            if lo < hi then
              shuffle_rows p win ~row0:w.Window.lo
                ~tmp:(Ws.tmp wss.(chunk) scratch)
                ~ungather ~lo ~hi))
  in
  match io with
  | None ->
      for k = 0 to k_max - 1 do
        map_window k;
        compute k;
        release k
      done
  | Some io ->
      let job = ref (Io_domain.async io (fun () -> map_window 0)) in
      for k = 0 to k_max - 1 do
        count_await !job;
        if k + 1 < k_max then
          job := Io_domain.async io (fun () -> map_window (k + 1));
        compute k;
        release k
      done

(* -- column phases ---------------------------------------------------------

   The stride-[n] passes run on a contiguous [m x w] staging per column
   panel. [visit] gets a local plan whose pitch is the panel width and
   the panel's global column base, so rotation amounts are taken at
   global indices while the fused primitives index the staging.

   Panels hand off through [exchange_panel]: one sweep over bounded row
   stripes, each mapped once, that scatters the finished panel's columns
   out of the staging and gathers the next panel's columns into the same
   staging, row by row. Row [i] of the gathered panel lands in
   [[i*g_w, (i+1)*g_w)], which lies below [(i+1)*s_w], so it only
   overwrites rows already scattered as long as [g_w <= s_w]: panels
   run in order and only the last one is narrower. The first gather and
   the last scatter are the one-sided cases. *)

let exchange_panel ~led ~s_per (p : Plan.t) fd ?scatter ?gather (stag : buf) =
  let span = function
    | None -> (0, 0)
    | Some (pan : Window.t) -> (pan.Window.lo, pan.Window.hi - pan.Window.lo)
  in
  let s_lo, s_w = span scatter and g_lo, g_w = span gather in
  if s_w > 0 || g_w > 0 then
    List.iter
      (fun (st : Window.t) ->
        let win =
          map_counted led fd ~pos:(st.Window.lo * p.n)
            ~len:((st.Window.hi - st.Window.lo) * p.n)
        in
        for i = st.Window.lo to st.Window.hi - 1 do
          let row = (i - st.Window.lo) * p.n in
          let src = i * s_w and dst = row + s_lo in
          for jj = 0 to s_w - 1 do
            Bigarray.Array1.unsafe_set win (dst + jj)
              (Bigarray.Array1.unsafe_get stag (src + jj))
          done;
          let src = row + g_lo and dst = i * g_w in
          for jj = 0 to g_w - 1 do
            Bigarray.Array1.unsafe_set stag (dst + jj)
              (Bigarray.Array1.unsafe_get win (src + jj))
          done
        done;
        unmap_counted led win)
      (Window.split ~total:p.m ~per:s_per)

let col_pass ~led ~io ~pool ~wss ~budget (p : Plan.t) fd ~name ~pred visit =
  Xpose_obs.Tracer.pass ~name ~rows:p.m ~cols:p.n ~pred_touches:pred
    ~scratch_elems:(Plan.scratch_elements p)
  @@ fun () ->
  let w_per = Window.panel_cols ~budget_elems:budget ~m:p.m in
  let s_per = Window.stripe_rows ~budget_elems:budget ~n:p.n in
  let panels = Array.of_list (Window.split ~total:p.n ~per:w_per) in
  let k_max = Array.length panels in
  let panel k = if k >= 0 && k < k_max then Some panels.(k) else None in
  let w_max = min w_per p.n in
  let stag_bytes = p.m * w_max * 8 in
  let make_staging () =
    resident led stag_bytes;
    Storage.Float64.create (p.m * w_max)
  in
  let exchange = exchange_panel ~led ~s_per p fd in
  let compute (pan : Window.t) stag =
    let w = pan.Window.hi - pan.Window.lo in
    span_window ~rows:p.m ~cols:w ~pred:(Pass_cost.ooc_panel_window p ~width:w)
      (fun () ->
        let p_loc = Plan.make ~m:p.m ~n:w in
        Pool.parallel_chunks pool ~lo:0 ~hi:w (fun ~chunk ~lo ~hi ->
            if lo < hi then
              visit ~p_loc ~glo:pan.Window.lo ~ws:wss.(chunk) ~lo ~hi stag))
  in
  match io with
  | None ->
      (* One staging: panel [k] out, panel [k+1] in. *)
      let stag = make_staging () in
      exchange ?gather:(panel 0) stag;
      for k = 0 to k_max - 1 do
        compute panels.(k) stag;
        exchange ?scatter:(panel k) ?gather:(panel (k + 1)) stag
      done;
      released led stag_bytes
  | Some io ->
      (* Two stagings, even panels in [a], odd in [b]. The I/O domain
         runs jobs in order, so job [k+1] hands panel [k-1] out of, and
         panel [k+1] into, the staging of their shared parity while the
         pool computes panel [k] on the other one. *)
      let a = make_staging () and b = make_staging () in
      let stag k = if k land 1 = 0 then a else b in
      let job = ref (Io_domain.async io (fun () -> exchange ?gather:(panel 0) a)) in
      for k = 0 to k_max - 1 do
        count_await !job;
        job :=
          Io_domain.async io (fun () ->
              exchange ?scatter:(panel (k - 1)) ?gather:(panel (k + 1))
                (stag (k + 1)));
        compute panels.(k) (stag k)
      done;
      ignore (Io_domain.await !job);
      exchange ?scatter:(panel (k_max - 1)) (stag (k_max - 1));
      released led stag_bytes;
      released led stag_bytes

(* -- the engine ------------------------------------------------------------ *)

let transpose_file ?(order = Layout.Row_major) ?(pool = Pool.sequential)
    ?(window_bytes = default_window_bytes) ?(prefetch = true) ?cache ~path ~m
    ~n () =
  if m < 1 || n < 1 then
    invalid_arg "Ooc_f64.transpose_file: dimensions must be positive";
  if window_bytes < 8 then
    invalid_arg "Ooc_f64.transpose_file: window_bytes must be at least 8";
  let rm, rn =
    match order with Layout.Row_major -> (m, n) | Layout.Col_major -> (n, m)
  in
  (* Same §5.2 routing as the in-RAM engines: more rows than columns
     favours C2R; either way the plan satisfies [p.m >= p.n]. *)
  let c2r_side = rm > rn in
  let p =
    if c2r_side then Plan.Cache.get ?cache ~m:rm ~n:rn ()
    else Plan.Cache.get ?cache ~m:rn ~n:rm ()
  in
  FM.with_fd ~path @@ fun fd ->
  let bytes = (Unix.fstat fd).Unix.st_size in
  if bytes <> p.m * p.n * 8 then
    invalid_arg "Ooc_f64.transpose_file: file does not hold m*n elements";
  let led = ledger () in
  let budget = Window.budget_elems ~window_bytes in
  let total = p.m * p.n in
  if total <= budget then begin
    (* Fits in one window: map the whole file and run the fused pool
       engine on it. *)
    let buf = map_counted led fd ~pos:0 ~len:total in
    span_window ~rows:p.m ~cols:p.n ~pred:(Pass_cost.ooc_row_window p ~rows:p.m)
      (fun () -> if c2r_side then FF.c2r_pool pool p buf else FF.r2c_pool pool p buf);
    unmap_counted led buf
  end
  else if p.m = 1 || p.n = 1 then
    (* A degenerate matrix is its own transpose: no pass runs, nothing
       needs mapping. *)
    ()
  else begin
    let lanes = Pool.workers pool in
    let wss = Array.init lanes (fun _ -> Ws.create ()) in
    let with_io f =
      if prefetch then Io_domain.with_io (fun io -> f (Some io)) else f None
    in
    with_io @@ fun io ->
    let row_pass = row_pass ~led ~io ~pool ~wss ~budget p fd in
    let col_pass = col_pass ~led ~io ~pool ~wss ~budget p fd in
    let rotate ~sign ~p_loc ~glo ~ws ~lo ~hi stag =
      FF.rotate_columns ~ws ~lo ~hi p_loc stag ~amount:(fun jj ->
          sign * Plan.rotate_amount p (glo + jj))
    in
    if c2r_side then begin
      if not (Plan.coprime p) then
        col_pass ~name:"ooc.rotate_pre"
          ~pred:(Pass_cost.panel_rotate p ~width:(Window.panel_cols ~budget_elems:budget ~m:p.m)
                   ~amount:(Plan.rotate_amount p))
          (fun ~p_loc ~glo ~ws ~lo ~hi stag ->
            rotate ~sign:1 ~p_loc ~glo ~ws ~lo ~hi stag);
      row_pass ~name:"ooc.row_shuffle" ~ungather:false;
      let cycles = FF.cycles ~m:p.m ~index:(Plan.q p) in
      col_pass ~name:"ooc.fused_col" ~pred:(Pass_cost.fused_col p)
        (fun ~p_loc ~glo ~ws ~lo ~hi stag ->
          FF.rotate_columns ~ws ~lo ~hi p_loc stag ~amount:(fun jj -> glo + jj);
          FF.permute_cols ~ws ~lo ~hi p_loc stag ~cycles)
    end
    else begin
      let cycles = FF.cycles ~m:p.m ~index:(Plan.q_inv p) in
      col_pass ~name:"ooc.fused_col" ~pred:(Pass_cost.fused_col p)
        (fun ~p_loc ~glo ~ws ~lo ~hi stag ->
          FF.permute_cols ~ws ~lo ~hi p_loc stag ~cycles;
          FF.rotate_columns ~ws ~lo ~hi p_loc stag ~amount:(fun jj ->
              -(glo + jj)));
      row_pass ~name:"ooc.row_unshuffle" ~ungather:true;
      if not (Plan.coprime p) then
        col_pass ~name:"ooc.rotate_post"
          ~pred:(Pass_cost.panel_rotate p ~width:(Window.panel_cols ~budget_elems:budget ~m:p.m)
                   ~amount:(Plan.rotate_amount p))
          (fun ~p_loc ~glo ~ws ~lo ~hi stag ->
            rotate ~sign:(-1) ~p_loc ~glo ~ws ~lo ~hi stag)
    end
  end
