module type S = sig
  type t
  type elt

  val name : string
  val elt_bytes : int
  val create : int -> t
  val length : t -> int
  val get : t -> int -> elt
  val set : t -> int -> elt -> unit
  val blit : t -> int -> t -> int -> int -> unit
  val of_int : int -> elt
  val to_int : elt -> int
  val equal : elt -> elt -> bool
  val pp : Format.formatter -> elt -> unit
end

(* Every bigarray [blit] checks its ranges up front, at every length, with
   the message [Bigarray.Array1.sub] raises on the long path: the short
   path below copies with unchecked accesses. *)
let check_blit ~src_len spos ~dst_len dpos len =
  if
    len < 0 || spos < 0 || dpos < 0 || spos + len > src_len
    || dpos + len > dst_len
  then invalid_arg "Bigarray.Array1.sub: bad sub-array"

module Bigarray1 (K : sig
  type elt
  type repr

  val name : string
  val elt_bytes : int
  val kind : (elt, repr) Bigarray.kind
  val of_int : int -> elt
  val to_int : elt -> int
  val equal : elt -> elt -> bool
  val pp : Format.formatter -> elt -> unit
end) :
  S
    with type elt = K.elt
     and type t = (K.elt, K.repr, Bigarray.c_layout) Bigarray.Array1.t = struct
  type t = (K.elt, K.repr, Bigarray.c_layout) Bigarray.Array1.t
  type elt = K.elt

  let name = K.name
  let elt_bytes = K.elt_bytes
  let create len = Bigarray.Array1.create K.kind Bigarray.c_layout len
  let length = Bigarray.Array1.dim
  let get = Bigarray.Array1.get
  let set = Bigarray.Array1.set

  (* Short blits dominate the tiled algorithms (sub-row and tile moves);
     [Array1.sub] allocates two views per call, so copy small spans by
     hand. *)
  let blit src spos dst dpos len =
    check_blit ~src_len:(length src) spos ~dst_len:(length dst) dpos len;
    if len <= 32 then
      if dst == src && dpos > spos then
        for k = len - 1 downto 0 do
          Bigarray.Array1.unsafe_set dst (dpos + k)
            (Bigarray.Array1.unsafe_get src (spos + k))
        done
      else
        for k = 0 to len - 1 do
          Bigarray.Array1.unsafe_set dst (dpos + k)
            (Bigarray.Array1.unsafe_get src (spos + k))
        done
    else
      Bigarray.Array1.blit
        (Bigarray.Array1.sub src spos len)
        (Bigarray.Array1.sub dst dpos len)

  let of_int = K.of_int
  let to_int = K.to_int
  let equal = K.equal
  let pp = K.pp
end

(* Written out over the concrete type rather than through [Bigarray1]:
   with the kind known, [get]/[set] and the short-blit loop compile to
   direct unboxed loads and stores instead of the kind-generic C calls
   that box every float. The hand-copied spans go up to 128 elements:
   past 32, two [Array1.sub] views plus a memmove still cost more than
   the unboxed loop when the span is not cache-resident (block-unit
   moves of a permute pass). *)
module Float64 = struct
  module A = Bigarray.Array1

  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t
  type elt = float

  let name = "float64"
  let elt_bytes = 8
  let create len : t = A.create Bigarray.float64 Bigarray.c_layout len
  let length (t : t) = A.dim t
  let get (t : t) i = A.get t i
  let set (t : t) i (v : float) = A.set t i v

  let blit (src : t) spos (dst : t) dpos len =
    check_blit ~src_len:(A.dim src) spos ~dst_len:(A.dim dst) dpos len;
    if len <= 128 then
      if dst == src && dpos > spos then
        for k = len - 1 downto 0 do
          A.unsafe_set dst (dpos + k) (A.unsafe_get src (spos + k))
        done
      else
        for k = 0 to len - 1 do
          A.unsafe_set dst (dpos + k) (A.unsafe_get src (spos + k))
        done
    else A.blit (A.sub src spos len) (A.sub dst dpos len)

  let of_int = float_of_int
  let to_int = int_of_float
  let equal (a : float) b = a = b
  let pp = Format.pp_print_float
end

module Float32 = Bigarray1 (struct
  type elt = float
  type repr = Bigarray.float32_elt

  let name = "float32"
  let elt_bytes = 4
  let kind = Bigarray.float32
  let of_int = float_of_int
  let to_int = int_of_float
  let equal (a : float) b = a = b
  let pp = Format.pp_print_float
end)

module Int64_elt = Bigarray1 (struct
  type elt = int64
  type repr = Bigarray.int64_elt

  let name = "int64"
  let elt_bytes = 8
  let kind = Bigarray.int64
  let of_int = Int64.of_int
  let to_int = Int64.to_int
  let equal = Int64.equal
  let pp ppf v = Format.fprintf ppf "%Ld" v
end)

module Int32_elt = Bigarray1 (struct
  type elt = int32
  type repr = Bigarray.int32_elt

  let name = "int32"
  let elt_bytes = 4
  let kind = Bigarray.int32
  let of_int = Int32.of_int
  let to_int = Int32.to_int
  let equal = Int32.equal
  let pp ppf v = Format.fprintf ppf "%ld" v
end)

module Int_elt = Bigarray1 (struct
  type elt = int
  type repr = Bigarray.int_elt

  let name = "int"
  let elt_bytes = 8
  let kind = Bigarray.int
  let of_int x = x
  let to_int x = x
  let equal (a : int) b = a = b
  let pp = Format.pp_print_int
end)

module Poly () = struct
  type t = Obj.t array
  type elt = Obj.t

  let name = "poly"
  let elt_bytes = Sys.word_size / 8
  let create len = Array.make len (Obj.repr 0)
  let length = Array.length
  let get = Array.get
  let set = Array.set
  let blit src spos dst dpos len = Array.blit src spos dst dpos len
  let of_int x = Obj.repr x
  let to_int x = (Obj.obj x : int)
  let equal a b = a == b || Obj.obj a = Obj.obj b
  let pp ppf v = Format.fprintf ppf "<poly:%d>" (Obj.tag v)
  let of_value v = Obj.repr v
  let to_value v = Obj.obj v
end

module Blob (Size : sig
  val elt_bytes : int
end) : S with type elt = bytes = struct
  let () =
    if Size.elt_bytes < 1 then invalid_arg "Storage.Blob: elt_bytes must be positive"

  type t = Bytes.t
  type elt = bytes

  let name = Printf.sprintf "blob%d" Size.elt_bytes
  let elt_bytes = Size.elt_bytes
  let create len = Bytes.create (len * elt_bytes)
  let length t = Bytes.length t / elt_bytes

  let get t i =
    let e = Bytes.create elt_bytes in
    Bytes.blit t (i * elt_bytes) e 0 elt_bytes;
    e

  let set t i e = Bytes.blit e 0 t (i * elt_bytes) elt_bytes

  let blit src spos dst dpos len =
    Bytes.blit src (spos * elt_bytes) dst (dpos * elt_bytes) (len * elt_bytes)

  (* Little-endian tag in the first min(8, elt_bytes) bytes; the rest is a
     deterministic pattern so corruption of any byte is caught by [equal]. *)
  let of_int x =
    let e = Bytes.create elt_bytes in
    for k = 0 to elt_bytes - 1 do
      if k < 8 then Bytes.unsafe_set e k (Char.chr ((x lsr (8 * k)) land 0xff))
      else Bytes.unsafe_set e k (Char.chr ((x + k) land 0xff))
    done;
    e

  let to_int e =
    let v = ref 0 in
    let top = min 8 elt_bytes - 1 in
    for k = top downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get e k)
    done;
    !v

  let equal = Bytes.equal
  let pp ppf e = Format.fprintf ppf "0x%s" (Bytes.to_string e |> String.to_seq |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq |> String.concat "")
end

let fill_iota (type b) (module M : S with type t = b) (buf : b) =
  for l = 0 to M.length buf - 1 do
    M.set buf l (M.of_int l)
  done
