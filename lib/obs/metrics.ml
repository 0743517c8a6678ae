let shards = 64 (* power of two: shard index is a mask of the domain id *)

type counter = { c_name : string; cells : int Atomic.t array }
type gauge = { g_name : string; cell : float Atomic.t }

let hist_buckets = 40 (* 2^0 .. 2^38, last bucket unbounded *)

type histogram = {
  h_name : string;
  counts : int Atomic.t array; (* sharded *)
  sums : float Atomic.t array; (* sharded *)
  buckets : int Atomic.t array; (* log2 buckets, shared *)
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let shard () = (Domain.self () :> int) land (shards - 1)

let atomic_cells n = Array.init n (fun _ -> Atomic.make 0)

let register name make_metric project =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match project m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Metrics: %S is already registered as another metric type"
                   name))
      | None ->
          let m = make_metric () in
          Hashtbl.add registry name m;
          match project m with Some v -> v | None -> assert false)

let counter name =
  register name
    (fun () -> C { c_name = name; cells = atomic_cells shards })
    (function C c -> Some c | _ -> None)

let lazily register name =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some m -> m
    | None ->
        (* racing domains and threads all get the one registered metric *)
        let m = register name in
        Atomic.set cell (Some m);
        m

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cells.(shard ()) by)
let counter_value c = Array.fold_left (fun a cell -> a + Atomic.get cell) 0 c.cells
let shard_values c = Array.map Atomic.get c.cells

let gauge name =
  register name
    (fun () -> G { g_name = name; cell = Atomic.make 0.0 })
    (function G g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.cell v
let gauge_value g = Atomic.get g.cell

let histogram name =
  register name
    (fun () ->
      H
        {
          h_name = name;
          counts = atomic_cells shards;
          sums = Array.init shards (fun _ -> Atomic.make 0.0);
          buckets = atomic_cells hist_buckets;
        })
    (function H h -> Some h | _ -> None)

let atomic_add_float cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. v)) then go ()
  in
  go ()

let bucket_of v =
  (* bucket i covers (2^(i-1), 2^i]; v <= 1 lands in bucket 0 *)
  let rec go i ub =
    if v <= ub || i = hist_buckets - 1 then i else go (i + 1) (ub *. 2.0)
  in
  go 0 1.0

let observe h v =
  let s = shard () in
  ignore (Atomic.fetch_and_add h.counts.(s) 1);
  atomic_add_float h.sums.(s) v;
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1)

let histogram_count h =
  Array.fold_left (fun a c -> a + Atomic.get c) 0 h.counts

let histogram_sum h =
  Array.fold_left (fun a c -> a +. Atomic.get c) 0.0 h.sums

let histogram_buckets h =
  let out = ref [] in
  let ub = ref 1.0 in
  for i = 0 to hist_buckets - 1 do
    let c = Atomic.get h.buckets.(i) in
    if c > 0 then
      out :=
        ((if i = hist_buckets - 1 then infinity else !ub), c) :: !out;
    ub := !ub *. 2.0
  done;
  Array.of_list (List.rev !out)

let histogram_quantile h q =
  let total = histogram_count h in
  if total = 0 || Float.is_nan q then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int total in
    (* Walk the log2 buckets accumulating counts; the quantile falls in
       the first bucket whose cumulative count reaches [rank], and is
       linearly interpolated between the bucket's bounds (the classic
       Prometheus [histogram_quantile] estimate). Bucket 0 spans (0, 1];
       the last bucket is unbounded, so its lower bound is returned. *)
    let rec go i lb ub cum =
      if i >= hist_buckets then lb
      else
        let c = Atomic.get h.buckets.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= rank then
          if i = hist_buckets - 1 then lb
          else
            let frac = (rank -. float_of_int cum) /. float_of_int c in
            lb +. ((ub -. lb) *. Float.max 0.0 frac)
        else go (i + 1) ub (ub *. 2.0) cum'
    in
    go 0 0.0 1.0 0
  end

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float }

type handle = C_handle of counter | G_handle of gauge | H_handle of histogram

let all () =
  let rows =
    with_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  rows
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | C c -> C_handle c
           | G g -> G_handle g
           | H h -> H_handle h ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump () =
  let rows =
    with_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  rows
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | C c -> Counter (counter_value c)
           | G g -> Gauge (gauge_value g)
           | H h ->
               Histogram { count = histogram_count h; sum = histogram_sum h } ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  let ms =
    with_lock (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  List.iter
    (function
      | C c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
      | G g -> Atomic.set g.cell 0.0
      | H h ->
          Array.iter (fun cell -> Atomic.set cell 0) h.counts;
          Array.iter (fun cell -> Atomic.set cell 0.0) h.sums;
          Array.iter (fun cell -> Atomic.set cell 0) h.buckets)
    ms

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  (* JSON has no NaN/Infinity literal; a bare [nan] token from %g would
     make the whole document unparseable. *)
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let render_json () =
  let rows = all () in
  let section pick render_v =
    let entries = List.filter_map pick rows in
    String.concat ",\n"
      (List.map
         (fun (name, v) ->
           Printf.sprintf "    \"%s\": %s" (json_escape name) (render_v v))
         entries)
  in
  let counters =
    section
      (fun (n, v) ->
        match v with C_handle c -> Some (n, counter_value c) | _ -> None)
      string_of_int
  in
  let gauges =
    section
      (fun (n, v) ->
        match v with G_handle g -> Some (n, gauge_value g) | _ -> None)
      json_float
  in
  let histograms =
    section
      (fun (n, v) -> match v with H_handle h -> Some (n, h) | _ -> None)
      (fun h ->
        Printf.sprintf
          "{\"count\": %d, \"sum\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s}"
          (histogram_count h)
          (json_float (histogram_sum h))
          (json_float (histogram_quantile h 0.50))
          (json_float (histogram_quantile h 0.90))
          (json_float (histogram_quantile h 0.99)))
  in
  Printf.sprintf
    "{\n  \"counters\": {\n%s\n  },\n  \"gauges\": {\n%s\n  },\n  \
     \"histograms\": {\n%s\n  }\n}\n"
    counters gauges histograms

let render () =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      (match v with
      | Counter n -> Printf.bprintf b "counter   %-40s %d" name n
      | Gauge x -> Printf.bprintf b "gauge     %-40s %g" name x
      | Histogram { count; sum } ->
          Printf.bprintf b "histogram %-40s count=%d sum=%g" name count sum);
      Buffer.add_char b '\n')
    (dump ());
  Buffer.contents b
