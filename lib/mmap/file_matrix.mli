(** Out-of-core matrices: memory-mapped files as transposition buffers.

    Because the decomposition needs only [O(max(m,n))] auxiliary memory,
    matrices larger than RAM can be transposed in place in their backing
    file — the mapped buffer is an ordinary float64 bigarray, so it works
    directly with {!Xpose_core.Kernels_f64} and every functor instance
    over [Storage.Float64]. {!map_range} maps a bounded slice of the
    file, which is what the windowed [Xpose_ooc] engine builds on.

    A note on unmapping: the OCaml runtime unmaps a mapped bigarray only
    when the collector finalizes it, and mappings put no pressure on the
    collector, so a loop that maps window after window keeps every one
    of them resident until some unrelated major collection. {!unmap}
    releases a mapping eagerly; {!with_map} and the windowed engine call
    it on every buffer they map, so their real residency is the set of
    mappings they still hold. *)

val create : path:string -> elements:int -> unit
(** Create (or truncate) a file holding [elements] float64 zeros.
    @raise Unix.Unix_error on I/O failure. *)

val with_fd : ?write:bool -> path:string -> (Unix.file_descr -> 'a) -> 'a
(** [with_fd ~path f] opens [path] ([O_RDWR] when [write], the default;
    [O_RDONLY] otherwise), applies [f], and closes the fd (also on
    exception).
    @raise Unix.Unix_error on I/O failure. *)

val map_range :
  ?write:bool -> Unix.file_descr -> pos:int -> len:int -> Xpose_core.Storage.Float64.t
(** [map_range fd ~pos ~len] maps the [len] float64 elements starting at
    element offset [pos] of the file. When [write] (the default) the
    mapping is shared — stores reach the file — and the fd must be open
    read-write; a read-only map is private (copy-on-write). [pos] need
    not be page-aligned; the runtime aligns the underlying mapping.
    @raise Invalid_argument if [pos] or [len] is negative;
    @raise Unix.Unix_error / Sys_error on I/O failure. *)

val unmap : ('a, 'b, 'c) Bigarray.Array1.t -> bool
(** [unmap a] releases the file mapping behind [a] now instead of when
    the collector finalizes [a], and returns [true]. Pages written
    through a shared mapping stay in the file. Afterwards [a] has
    length 0: a bounds-checked access raises [Invalid_argument], and an
    unchecked one faults rather than reading a later mapping at the same
    address.

    Returns [false] and changes nothing when [a] is not a 1-D bigarray
    from [Unix.map_file] (or {!map_range}), when it was already
    released, or when a sub-array view ([Bigarray.Array1.sub] and the
    like) shares its mapping: releasing it then would leave the view
    dangling, so the mapping is left to the collector. *)

val with_map :
  ?write:bool -> path:string -> (Xpose_core.Storage.Float64.t -> 'a) -> 'a
(** [with_map ~path f] maps the whole file as a float64 array and applies
    [f]. When [write] (the default) the fd is opened read-write and the
    file is [fsync]ed after [f] returns; with [~write:false] the fd is
    opened read-only, the mapping is copy-on-write, and the sync is
    skipped. The file length must be a multiple of 8 bytes. The buffer
    is {!unmap}ped when [f] returns or raises, so it must not escape
    [f]: afterwards it has length 0.
    @raise Invalid_argument on a misaligned file;
    @raise Unix.Unix_error on I/O failure. *)

val transpose_file :
  ?ws:Xpose_core.Workspace.F64.t -> path:string -> m:int -> n:int -> unit -> unit
(** Transpose the row-major [m x n] float64 matrix stored in [path], in
    place in the file, using the specialized kernels and [max m n]
    scratch in RAM. Scratch comes from [ws] when given (repeated file
    transposes on one workspace stop churning the allocator); a fresh
    workspace is created per call otherwise.
    @raise Invalid_argument if the file does not hold exactly [m*n]
    elements. *)
