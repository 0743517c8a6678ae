module Slice (S : Storage.S) = struct
  type t = { buf : S.t; off : int; len : int }
  type elt = S.elt

  let name = S.name ^ "/slice"
  let elt_bytes = S.elt_bytes

  let of_buffer buf ~off ~len =
    if off < 0 || len < 0 || off + len > S.length buf then
      invalid_arg "Views.Slice.of_buffer: range out of bounds";
    { buf; off; len }

  let base t = t.buf
  let offset t = t.off
  let create len = { buf = S.create len; off = 0; len }
  let length t = t.len

  let check t i = if i < 0 || i >= t.len then invalid_arg "Views.Slice: index"

  let get t i =
    check t i;
    S.get t.buf (t.off + i)

  let set t i v =
    check t i;
    S.set t.buf (t.off + i) v

  let blit src spos dst dpos len =
    if spos < 0 || dpos < 0 || spos + len > src.len || dpos + len > dst.len
    then invalid_arg "Views.Slice: blit range";
    S.blit src.buf (src.off + spos) dst.buf (dst.off + dpos) len

  let of_int = S.of_int
  let to_int = S.to_int
  let equal = S.equal
  let pp = S.pp
end

module Blocked (S : Storage.S) = struct
  type t = { buf : S.t; block : int }
  type elt = S.t

  let name = S.name ^ "/blocked"
  let elt_bytes = S.elt_bytes (* per underlying slot; block size varies *)

  let of_buffer buf ~block =
    if block < 1 || S.length buf mod block <> 0 then
      invalid_arg "Views.Blocked.of_buffer: block must divide the length";
    { buf; block }

  let block t = t.block

  (* [create] is only meaningful as scratch for an existing view, so the
     functor cannot know the block size here; a 1-slot-per-element buffer
     would be wrong. We create with block 1 and let [set]/[get] adapt:
     instead, scratch for the transposition comes from [of_buffer] by
     callers (Tensor3 allocates underlying storage of len*block). To keep
     the Storage contract usable we create block-1 views. *)
  let create len = { buf = S.create len; block = 1 }

  let length t = S.length t.buf / t.block

  let get t i =
    let e = S.create t.block in
    S.blit t.buf (i * t.block) e 0 t.block;
    e

  let set t i e =
    if S.length e <> t.block then invalid_arg "Views.Blocked.set: block size";
    S.blit e 0 t.buf (i * t.block) t.block

  let blit src spos dst dpos len =
    if src.block <> dst.block then invalid_arg "Views.Blocked.blit: block size";
    S.blit src.buf (spos * src.block) dst.buf (dpos * dst.block)
      (len * src.block)

  let of_int x =
    let e = S.create 1 in
    S.set e 0 (S.of_int x);
    e

  let to_int e = S.to_int (S.get e 0)

  let equal a b =
    S.length a = S.length b
    &&
    let ok = ref true in
    for i = 0 to S.length a - 1 do
      if not (S.equal (S.get a i) (S.get b i)) then ok := false
    done;
    !ok

  let pp ppf e = Format.fprintf ppf "<block:%d>" (S.length e)
end
