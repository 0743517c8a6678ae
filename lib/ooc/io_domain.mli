(** A dedicated I/O domain: one worker running queued thunks in order.

    The out-of-core engine overlaps I/O with compute by handing
    map-and-prefault work for row window [k+1] (and the column panel
    hand-off that fills the staging of panel [k+1]) to this domain while
    the {!Xpose_cpu.Pool} workers permute window [k]. Jobs run strictly
    in submission order, so hand-offs on the same staging never
    reorder.

    Completion is published under a mutex, so everything the job wrote
    happens-before {!await} returning — the caller may freely read the
    buffers the job filled. *)

type t

type job

exception Cancelled_job
(** Raised by {!await} on a job that a cancelling {!stop} discarded
    before the worker ran it. *)

val create : unit -> t
(** Spawn the I/O domain, idle until jobs arrive. *)

val async : t -> (unit -> unit) -> job
(** Enqueue a thunk; returns immediately. Jobs run one at a time in
    submission order.
    @raise Invalid_argument if the domain was shut down. *)

val await : job -> bool
(** Block until the job completed. Returns whether it had {e already}
    finished when [await] was called — the prefetch-hit signal. If the
    job raised, the exception is re-raised here with its backtrace. *)

val stop : ?drain:bool -> t -> unit
(** Stop and join the domain. With [~drain:true] (the default) every
    queued job still runs before the worker exits — identical to
    {!shutdown}. With [~drain:false] the queued-but-unstarted jobs are
    {e cancelled}: their awaiters raise {!Cancelled_job}; the job the
    worker is executing at the moment of the call (if any) still runs
    to completion and its awaiter sees the normal result. Idempotent —
    repeated or concurrent calls join at most one domain, the rest
    return immediately. Subsequent {!async} calls raise
    [Invalid_argument]. *)

val shutdown : t -> unit
(** [stop ~drain:true]: finish every queued job, then stop and join the
    domain. Idempotent. *)

val with_io : (t -> 'a) -> 'a
(** [with_io f] creates a domain, applies [f], and shuts it down (also
    on exception). *)
