(** A transposition plan: the quantities shared by every permutation pass of
    the decomposed C2R/R2C transposition of an [m x n] matrix (paper §3-4).

    A plan precomputes [c = gcd(m,n)], [a = m/c], [b = n/c], the modular
    inverses [a^-1 mod b] and [b^-1 mod a], and fixed-point reciprocals for
    all divisors appearing in the index equations, so the per-element index
    computations in the hot loops are division-free (§4.4).

    All index functions follow the paper's equation numbers. Rotation
    "gather" semantics: a column rotated by [k] satisfies
    [x'[i] = x[(i + k) mod m]]. *)

type t = private {
  m : int;  (** rows *)
  n : int;  (** columns *)
  c : int;  (** gcd (m, n) *)
  a : int;  (** m / c *)
  b : int;  (** n / c *)
  a_inv : int;  (** modular inverse of [a] mod [b] ([1] if [b = 1]) *)
  b_inv : int;  (** modular inverse of [b] mod [a] ([1] if [a = 1]) *)
  mg_m : Magic.t;
  mg_n : Magic.t;
  mg_a : Magic.t;
  mg_b : Magic.t;
  mg_c : Magic.t;
}

val make : m:int -> n:int -> t
(** [make ~m ~n] precomputes a plan for an [m x n] matrix.
    @raise Invalid_argument if [m < 1] or [n < 1]. *)

val coprime : t -> bool
(** [coprime t] is [t.c = 1]: the pre-rotation phase can be skipped and the
    row-shuffle target [d'] degenerates to [d] (paper §3, after Lemma 1). *)

val scratch_elements : t -> int
(** [max m n]: the auxiliary space of Theorem 6 needed per worker. *)

(** {1 C2R index equations}

    All functions are total over [i] in [[0, m)] and [j] in [[0, n)]. *)

val rotate_amount : t -> int -> int
(** Pre-rotation amount for column [j]: [j / b] (Eq. 23: the rotated column
    gathers with [r_j(i) = (i + j/b) mod m]). *)

val r : t -> j:int -> int -> int
(** [r t ~j i] is Eq. 23, [(i + j/b) mod m]. *)

val d' : t -> i:int -> int -> int
(** [d' t ~i j] is Eq. 24: the destination column of element [j] of row [i]
    after the pre-rotation, [((i + j/b) mod m + j*m) mod n]. Bijective in
    [j] for fixed [i] (Theorem 3). *)

val d'_inv : t -> i:int -> int -> int
(** [d'_inv t ~i j] is Eq. 31, the inverse of {!d'} in its second argument:
    [d' t ~i (d'_inv t ~i j) = j]. Enables a fully gather-based row
    shuffle (§4.2). *)

val s' : t -> j:int -> int -> int
(** [s' t ~j i] is Eq. 26, the source row for the final column shuffle:
    [(j + i*n - i/a) mod m]. *)

val p : t -> j:int -> int -> int
(** [p t ~j i] is Eq. 32, the column-rotation component of [s']:
    [(i + j) mod m]. *)

val q : t -> int -> int
(** [q t i] is Eq. 33, the row-permutation component of [s']:
    [(i*n - i/a) mod m]. The decomposition satisfies
    [p t ~j (q t i) = s' t ~j i] (§4.2). *)

(** {1 R2C (inverse) index equations} *)

val q_inv : t -> int -> int
(** [q_inv t i] is Eq. 34, the inverse of {!q}:
    [((c-1+i)/c * b^-1) mod a + ((c-1)*i mod c) * a]. *)

val p_inv : t -> j:int -> int -> int
(** [p_inv t ~j i] is Eq. 35, [(i - j) mod m]. *)

val r_inv : t -> j:int -> int -> int
(** [r_inv t ~j i] is Eq. 36, [(i - j/b) mod m]. *)

val s'_inv : t -> j:int -> int -> int
(** [s'_inv t ~j i] is [(q_inv t ((i - j) mod m))]: the inverse of {!s'},
    i.e. [q^-1 ∘ p_j^-1] (composition order per §4.3). *)

(** {1 Specification helpers} *)

val check_internal : t -> unit
(** Verifies the algebraic identities the plan relies on ([a*c = m],
    [b*c = n], [a*a_inv ≡ 1 (mod b)], [b*b_inv ≡ 1 (mod a)]); used by
    tests and by [make] under assertions. @raise Assert_failure *)

val pp : Format.formatter -> t -> unit

(** {1 Plan cache}

    [make] pays a gcd, two extended-gcd modular inverses and five Magic
    reciprocal constructions. A serving workload transposing the same
    handful of shapes over and over should pay that once per shape: the
    cache memoizes plans keyed by [(m, n)] with LRU eviction. Lookups are
    thread-safe (pool workers may share a cache); hit/miss/eviction
    totals are also published as the [plan_cache.hits] /
    [plan_cache.misses] / [plan_cache.evictions] metrics counters. *)

module Cache : sig
  type plan = t
  type t

  val create : ?capacity:int -> unit -> t
  (** An empty cache holding at most [capacity] (default 64) plans.
      @raise Invalid_argument if [capacity < 1]. *)

  val default : t
  (** The process-global cache used when no explicit one is given. *)

  val get : ?cache:t -> m:int -> n:int -> unit -> plan
  (** [get ~m ~n ()] is [make ~m ~n], memoized: a hit returns the cached
      plan (physically equal to the one built on the miss), a miss
      builds, stores, and (at capacity) evicts the least recently used
      entry. Entries are keyed by shape alone, so callers running one
      shape at different panel widths share one entry.
      @raise Invalid_argument as {!val:make}. *)

  val length : t -> int
  val hits : t -> int
  val misses : t -> int

  val evictions : t -> int
  (** Number of LRU evictions performed at capacity; also published as
      the [plan_cache.evictions] metrics counter. *)

  val clear : t -> unit
end
