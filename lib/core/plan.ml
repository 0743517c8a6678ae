type t = {
  m : int;
  n : int;
  c : int;
  a : int;
  b : int;
  a_inv : int;
  b_inv : int;
  mg_m : Magic.t;
  mg_n : Magic.t;
  mg_a : Magic.t;
  mg_b : Magic.t;
  mg_c : Magic.t;
}

let make ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Plan.make: dimensions must be positive";
  (* Keep every dividend fed to the fixed-point reciprocals exact: the
     largest is the helper f of Eq. 31, bounded by m*(n+1). *)
  if m * (n + 1) > Magic.max_dividend || n * (m + 1) > Magic.max_dividend then
    invalid_arg "Plan.make: matrix too large for strength-reduced indexing";
  let c = Intmath.gcd m n in
  let a = m / c and b = n / c in
  let a_inv = if b = 1 then 1 else Intmath.mmi a b in
  let b_inv = if a = 1 then 1 else Intmath.mmi b a in
  {
    m;
    n;
    c;
    a;
    b;
    a_inv;
    b_inv;
    mg_m = Magic.make m;
    mg_n = Magic.make n;
    mg_a = Magic.make a;
    mg_b = Magic.make b;
    mg_c = Magic.make c;
  }

let coprime t = t.c = 1

let scratch_elements t = if t.m > t.n then t.m else t.n

let rotate_amount t j = Magic.div t.mg_b j

let r t ~j i = Magic.modu t.mg_m (i + Magic.div t.mg_b j)

let d' t ~i j =
  Magic.modu t.mg_n (Magic.modu t.mg_m (i + Magic.div t.mg_b j) + (j * t.m))

(* Largest factor whose square stays an exact Magic dividend. *)
let sq_fits = 32768

(* Eq. 31. The helper f (§4.2) selects between two affine forms depending on
   whether the pre-rotation wrapped for this (i, j). The quotient of f by c
   is reduced mod b before multiplying by a^-1 so the product stays within
   Magic's exact range; for huge b the final reduction falls back to exact
   Euclidean mod. *)
let d'_inv t ~i j =
  let f =
    if i - Magic.modu t.mg_c j + t.c <= t.m then j + (i * (t.n - 1))
    else j + (i * (t.n - 1)) + t.m
  in
  let fq, fr = Magic.divmod t.mg_c f in
  let x = t.a_inv * Magic.modu t.mg_b fq in
  let x = if t.b <= sq_fits then Magic.modu t.mg_b x else Intmath.emod x t.b in
  x + (fr * t.b)

let s' t ~j i = Intmath.emod (j + (i * t.n) - Magic.div t.mg_a i) t.m

let p t ~j i = Magic.modu t.mg_m (i + j)

let q t i = Intmath.emod ((i * t.n) - Magic.div t.mg_a i) t.m

(* Eq. 34. The quotient (c-1+i)/c is at most a; reduce it mod a before the
   multiply for the same exactness reason as in d'_inv. *)
let q_inv t i =
  let v = Magic.div t.mg_c (t.c - 1 + i) in
  let v = if v = t.a then 0 else v in
  let x = v * t.b_inv in
  let x = if t.a <= sq_fits then Magic.modu t.mg_a x else Intmath.emod x t.a in
  x + (Magic.modu t.mg_c ((t.c - 1) * i) * t.a)

let p_inv t ~j i = Intmath.emod (i - j) t.m

let r_inv t ~j i = Intmath.emod (i - Magic.div t.mg_b j) t.m

let s'_inv t ~j i = q_inv t (Intmath.emod (i - j) t.m)

let check_internal t =
  assert (t.a * t.c = t.m);
  assert (t.b * t.c = t.n);
  assert (Intmath.gcd t.a t.b = 1);
  assert (t.b = 1 || Intmath.emod (t.a * t.a_inv) t.b = 1);
  assert (t.a = 1 || Intmath.emod (t.b * t.b_inv) t.a = 1);
  assert (Magic.divisor t.mg_m = t.m);
  assert (Magic.divisor t.mg_n = t.n)

let pp ppf t =
  Format.fprintf ppf "@[<h>plan %dx%d (c=%d a=%d b=%d a^-1=%d b^-1=%d)@]" t.m
    t.n t.c t.a t.b t.a_inv t.b_inv

module Cache = struct
  type plan = t

  type entry = { plan : plan; mutable stamp : int }

  (* A plan depends on the shape alone: every caller of one shape, at
     any panel width or worker count, shares one entry. *)
  type key = int * int

  type t = {
    capacity : int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    table : (key, entry) Hashtbl.t;
    mutex : Mutex.t;
  }

  let create ?(capacity = 64) () =
    if capacity < 1 then invalid_arg "Plan.Cache.create: capacity must be >= 1";
    {
      capacity;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      table = Hashtbl.create 32;
      mutex = Mutex.create ();
    }

  let default = create ()

  let m_hits = Xpose_obs.Metrics.(lazily counter "plan_cache.hits")
  let m_misses = Xpose_obs.Metrics.(lazily counter "plan_cache.misses")
  let m_evictions = Xpose_obs.Metrics.(lazily counter "plan_cache.evictions")

  (* Least-recently-used entry by stamp; a linear scan is fine at the
     capacities plans are cached at (the table holds tens of entries). *)
  let evict_lru t =
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (key, e.stamp))
        t.table None
    in
    match victim with
    | Some (key, _) ->
        Hashtbl.remove t.table key;
        t.evictions <- t.evictions + 1;
        Xpose_obs.Metrics.incr (m_evictions ())
    | None -> ()

  let get ?(cache = default) ~m ~n () =
    let key = (m, n) in
    Mutex.lock cache.mutex;
    cache.clock <- cache.clock + 1;
    match Hashtbl.find_opt cache.table key with
    | Some e ->
        e.stamp <- cache.clock;
        cache.hits <- cache.hits + 1;
        Mutex.unlock cache.mutex;
        Xpose_obs.Metrics.incr (m_hits ());
        e.plan
    | None ->
        cache.misses <- cache.misses + 1;
        Mutex.unlock cache.mutex;
        Xpose_obs.Metrics.incr (m_misses ());
        (* Build outside the lock: [make] is the expensive part (gcd,
           modular inverses, five Magic reciprocals) and may raise. A
           racing lookup of the same shape builds twice; the table keeps
           one winner. *)
        let plan = make ~m ~n in
        Mutex.lock cache.mutex;
        (if not (Hashtbl.mem cache.table key) then begin
           if Hashtbl.length cache.table >= cache.capacity then
             evict_lru cache;
           Hashtbl.replace cache.table key { plan; stamp = cache.clock }
         end);
        Mutex.unlock cache.mutex;
        plan

  (* Readers take the mutex too: the server resolves plans from several
     domains at once, and unsynchronized reads of the mutable totals are
     data races under the OCaml 5 memory model (each total is also
     updated under the lock, so a locked read is exact). *)
  let locked t f =
    Mutex.lock t.mutex;
    let v = f t in
    Mutex.unlock t.mutex;
    v

  let length t = locked t (fun t -> Hashtbl.length t.table)
  let hits t = locked t (fun t -> t.hits)
  let misses t = locked t (fun t -> t.misses)
  let evictions t = locked t (fun t -> t.evictions)

  let clear t =
    Mutex.lock t.mutex;
    Hashtbl.reset t.table;
    t.hits <- 0;
    t.misses <- 0;
    t.evictions <- 0;
    Mutex.unlock t.mutex
end
