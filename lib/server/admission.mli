(** Admission control: a global in-flight memory budget and per-tenant
    quotas deciding which engine serves each job.

    The server only ever holds payload bytes for jobs it has admitted;
    {!admit} charges a job's footprint against the global budget the
    moment it is accepted and {!release} returns it once the reply is
    written, so [in_flight_bytes] bounds the server's live matrix bytes
    (queued {e and} executing) at all times — the service-level
    analogue of the ooc engine's per-job window budget.

    Routing (per PAPER §"decomposition under a memory budget", applied
    at the tenant level): a job whose footprint fits its tenant's quota
    runs on the in-memory fused engine; a bigger one is routed to the
    out-of-core engine with the tenant's [window_bytes] residency
    allowance. The route does not keep the job out of RAM: its payload
    arrived in a frame and stays resident (and charged to the global
    budget) until the reply is written. It is blitted to a temp file,
    transposed there mapping at most [window_bytes] of the file at a
    time, and blitted back, so the window bounds the engine's mapped
    working set on top of the payload, not the job's total memory. A
    job that would push the {e global} budget over is refused outright
    — the server replies {!Protocol.Busy} and the client retries.

    Thread-safe: acceptor threads admit while the dispatcher releases. *)

type tenant = { name : string; quota_bytes : int; window_bytes : int }

type t

val create :
  ?budget_bytes:int ->
  ?default_quota_bytes:int ->
  ?default_window_bytes:int ->
  ?tenants:tenant list ->
  unit ->
  t
(** [budget_bytes] (default 1 GiB) caps global in-flight payload bytes.
    Tenants not in [tenants] get [default_quota_bytes] (default 16 MiB)
    and [default_window_bytes] (default 4 MiB).
    @raise Invalid_argument on non-positive sizes. *)

type route =
  | Fused  (** in-memory, coalescable into {!Xpose_cpu.Fused_f64} batches *)
  | Ooc of { window_bytes : int }
      (** staged to a file and run by {!Xpose_ooc.Ooc_f64} under the
          tenant's residency window *)

type decision = Admit of route | Reject of Protocol.reject_reason

val admit : t -> tenant:string -> bytes:int -> decision
(** Decide one job of [bytes] payload. [Admit] charges the budget —
    every [Admit] must be paired with exactly one {!release}. *)

val release : t -> bytes:int -> unit

val in_flight_bytes : t -> int
val budget_bytes : t -> int

val tenant_of : t -> string -> tenant
(** The tenant's configured (or default) limits. *)
