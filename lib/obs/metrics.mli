(** A process-global metrics registry with domain-sharded primitives.

    Counters are the workhorse: each one holds an array of per-shard
    atomic cells indexed by [Domain.self () mod shards], so concurrent
    bumps from different pool workers land on different cache lines and
    never contend; the value is the sum over shards (exact — every bump
    is an atomic increment). Gauges are last-write-wins. Histograms use
    power-of-two buckets with sharded count/sum accumulators.

    Metrics are always on: a bump is a handful of nanoseconds and the
    instrumented layers only bump at pass/barrier granularity, never per
    element. Creation is idempotent — [counter name] returns the existing
    counter when [name] is already registered (and raises if the name is
    registered as a different metric type). *)

val shards : int
(** Number of shards per counter/histogram (a power of two). *)

val lazily : (string -> 'a) -> string -> unit -> 'a
(** [lazily register name] is registration on first use: its first call,
    from any domain or thread, runs [register name] (one of {!counter},
    {!gauge} or {!histogram}), and later calls return the same metric
    without taking the registry lock. Unlike a [lazy] value it may be
    forced by several domains or threads at once: a [Lazy.force] that
    meets another thread's unfinished force of the same value raises
    [CamlinternalLazy.Undefined], and registration blocks on the
    registry mutex, which lets another thread run mid-force. *)

(** {1 Counters} *)

type counter

val counter : string -> counter

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
(** Sum over all shards. Exact, but a concurrent snapshot: bumps racing
    with the read may or may not be included. *)

val shard_values : counter -> int array
(** Per-shard values, for tests and diagnostics. *)

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) array
(** [(upper_bound, count)] per non-empty bucket; bounds are powers of
    two, the last bucket is unbounded. *)

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile ([0 <= q <= 1],
    clamped) from the log2 buckets: find the bucket the target rank
    falls in and interpolate linearly between its bounds — the classic
    Prometheus estimate, exact at bucket boundaries and within one
    bucket's resolution elsewhere. Returns [nan] on an empty histogram
    (or a NaN [q]); the unbounded last bucket answers with its lower
    bound. Replaces ad-hoc sort-the-samples percentiles: the histogram
    is O(1) memory under any load. *)

(** {1 Registry} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float }

type handle =
  | C_handle of counter
  | G_handle of gauge
  | H_handle of histogram

val all : unit -> (string * handle) list
(** Every registered metric with its live handle, sorted by name — for
    renderers (the Prometheus {!Exposition}) that need more than the
    {!dump} snapshot, e.g. histogram buckets and quantiles. *)

val dump : unit -> (string * value) list
(** Every registered metric with its current value, sorted by name (so
    every rendering derived from it — [render], [render_json], the
    Prometheus exposition — is deterministic given the same values). *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)

val render : unit -> string
(** One [name kind value] line per metric, sorted — the [--metrics]
    output of the CLI. *)

val render_json : unit -> string
(** The registry as a JSON object
    [{"counters": {..}, "gauges": {..}, "histograms": {name: {"count",
    "sum", "p50", "p90", "p99"}}}], names sorted within each section —
    the payload of the job server's stats endpoint. Histogram quantiles
    come from {!histogram_quantile}. Always valid JSON: non-finite
    floats (a NaN gauge, a sum that overflowed to infinity, the
    quantiles of an empty histogram) render as [null]. *)
