open Xpose_core

let roundtrip (type b) (module M : Storage.S with type t = b) () =
  let buf = M.create 100 in
  Storage.fill_iota (module M) buf;
  Alcotest.(check int) "length" 100 (M.length buf);
  for l = 0 to 99 do
    Alcotest.(check int) "iota roundtrip" l (M.to_int (M.get buf l))
  done;
  (* blit a window onto itself shifted via a scratch buffer *)
  let tmp = M.create 10 in
  M.blit buf 40 tmp 0 10;
  M.blit tmp 0 buf 0 10;
  for l = 0 to 9 do
    Alcotest.(check int) "blit" (40 + l) (M.to_int (M.get buf l))
  done;
  Alcotest.(check bool) "equal refl" true (M.equal (M.get buf 5) (M.get buf 5));
  Alcotest.(check bool) "pp total" true
    (String.length (Format.asprintf "%a" M.pp (M.get buf 5)) > 0)

let test_elt_bytes () =
  Alcotest.(check int) "f64" 8 Storage.Float64.elt_bytes;
  Alcotest.(check int) "f32" 4 Storage.Float32.elt_bytes;
  Alcotest.(check int) "i32" 4 Storage.Int32_elt.elt_bytes;
  Alcotest.(check int) "i64" 8 Storage.Int64_elt.elt_bytes

let test_poly_values () =
  let module P = Storage.Poly () in
  let buf = P.create 4 in
  P.set buf 0 (P.of_value "hello");
  P.set buf 1 (P.of_value (3, "x"));
  Alcotest.(check string) "string through poly" "hello" (P.to_value (P.get buf 0));
  let a, b = P.to_value (P.get buf 1) in
  Alcotest.(check (pair int string)) "tuple" (3, "x") (a, b)

let test_blob_sizes () =
  List.iter
    (fun size ->
      let module B = Storage.Blob (struct
        let elt_bytes = size
      end) in
      let buf = B.create 50 in
      Storage.fill_iota (module B) buf;
      for l = 0 to 49 do
        Alcotest.(check int)
          (Printf.sprintf "blob%d roundtrip" size)
          l
          (B.to_int (B.get buf l))
      done;
      (* distinct payload bytes distinguish equal tags of different slots *)
      Alcotest.(check bool) "blob equal" true (B.equal (B.of_int 7) (B.of_int 7));
      Alcotest.(check bool) "blob differ" false (B.equal (B.of_int 7) (B.of_int 8)))
    [ 1; 3; 4; 8; 12; 16; 24; 32; 64 ]

let test_blob_large_tags () =
  let module B = Storage.Blob (struct
    let elt_bytes = 16
  end) in
  List.iter
    (fun v -> Alcotest.(check int) "tag" v (B.to_int (B.of_int v)))
    [ 0; 1; 255; 256; 65535; 1 lsl 40; (1 lsl 48) - 1 ]

let prop_blob_roundtrip =
  QCheck2.Test.make ~name:"blob of_int/to_int roundtrip" ~count:500
    QCheck2.Gen.(pair (int_range 1 64) (int_range 0 ((1 lsl 48) - 1)))
    (fun (size, v) ->
      let module B = Storage.Blob (struct
        let elt_bytes = size
      end) in
      let masked = if size >= 8 then v else v land ((1 lsl (8 * size)) - 1) in
      B.to_int (B.of_int masked) = masked)

(* An out-of-range blit raises before it copies anything, at every
   length: short spans (the hand-copied path) fail exactly like long ones
   (the [Array1.sub] path). *)
let blit_range (type b) (module M : Storage.S with type t = b) () =
  let src = M.create 40 and dst = M.create 40 in
  Storage.fill_iota (module M) src;
  Storage.fill_iota (module M) dst;
  let bad = Invalid_argument "Bigarray.Array1.sub: bad sub-array" in
  List.iter
    (fun (what, spos, dpos, len) ->
      Alcotest.check_raises what bad (fun () -> M.blit src spos dst dpos len);
      for l = 0 to 39 do
        Alcotest.(check int) (what ^ ": destination untouched") l
          (M.to_int (M.get dst l))
      done)
    [
      ("short source overrun", 36, 0, 8);
      ("short destination overrun", 0, 38, 4);
      ("short negative source", -1, 0, 2);
      ("short negative destination", 0, -3, 2);
      ("negative length", 0, 0, -1);
      ("long source overrun", 1, 0, 40);
      ("long destination overrun", 0, 4, 37);
    ];
  M.blit src 0 dst 40 0;
  M.blit src 8 dst 32 8;
  Alcotest.(check int) "in-range short blit" 15 (M.to_int (M.get dst 39))

let tests =
  [
    Alcotest.test_case "float64 roundtrip" `Quick (roundtrip (module Storage.Float64));
    Alcotest.test_case "float32 roundtrip" `Quick (roundtrip (module Storage.Float32));
    Alcotest.test_case "int64 roundtrip" `Quick (roundtrip (module Storage.Int64_elt));
    Alcotest.test_case "int32 roundtrip" `Quick (roundtrip (module Storage.Int32_elt));
    Alcotest.test_case "int roundtrip" `Quick (roundtrip (module Storage.Int_elt));
    Alcotest.test_case "elt sizes" `Quick test_elt_bytes;
    Alcotest.test_case "poly values" `Quick test_poly_values;
    Alcotest.test_case "blob sizes" `Quick test_blob_sizes;
    Alcotest.test_case "blob large tags" `Quick test_blob_large_tags;
    QCheck_alcotest.to_alcotest prop_blob_roundtrip;
    Alcotest.test_case "float64 blit range" `Quick
      (blit_range (module Storage.Float64));
    Alcotest.test_case "float32 blit range" `Quick
      (blit_range (module Storage.Float32));
    Alcotest.test_case "int64 blit range" `Quick
      (blit_range (module Storage.Int64_elt));
    Alcotest.test_case "int32 blit range" `Quick
      (blit_range (module Storage.Int32_elt));
    Alcotest.test_case "int blit range" `Quick
      (blit_range (module Storage.Int_elt));
  ]
