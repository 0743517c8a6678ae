open Xpose_core
open Xpose_mmap

let temp_path () = Filename.temp_file "xpose_mmap" ".mat"

let test_create_and_map () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      File_matrix.create ~path ~elements:100;
      File_matrix.with_map ~path (fun buf ->
          Alcotest.(check int) "size" 100 (Bigarray.Array1.dim buf);
          Alcotest.(check (float 0.0)) "zeroed" 0.0 (Bigarray.Array1.get buf 7);
          for l = 0 to 99 do
            Bigarray.Array1.set buf l (float_of_int (l * 2))
          done);
      (* the write persisted *)
      File_matrix.with_map ~write:false ~path (fun buf ->
          Alcotest.(check (float 0.0)) "persisted" 14.0 (Bigarray.Array1.get buf 7)))

let test_transpose_file () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = 37 and n = 52 in
      File_matrix.create ~path ~elements:(m * n);
      File_matrix.with_map ~path (fun buf ->
          for l = 0 to (m * n) - 1 do
            Bigarray.Array1.set buf l (float_of_int l)
          done);
      File_matrix.transpose_file ~path ~m ~n ();
      File_matrix.with_map ~write:false ~path (fun buf ->
          for l = 0 to (m * n) - 1 do
            Alcotest.(check (float 0.0))
              "transposed in the file"
              (float_of_int ((n * (l mod m)) + (l / m)))
              (Bigarray.Array1.get buf l)
          done))

let test_size_mismatch () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      File_matrix.create ~path ~elements:10;
      Alcotest.check_raises "mismatch"
        (Invalid_argument "File_matrix.transpose_file: file does not hold m*n elements")
        (fun () -> File_matrix.transpose_file ~path ~m:3 ~n:4 ()))

let test_misaligned_file () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "12 bytes here";
      close_out oc;
      Alcotest.check_raises "misaligned"
        (Invalid_argument "File_matrix.with_map: file length is not a multiple of 8")
        (fun () -> File_matrix.with_map ~write:false ~path (fun _ -> ())))

(* Edge shapes, each checked against the in-RAM kernels on an identical
   buffer: degenerate rows/columns (the transpose is the identity),
   prime x prime, and a shape whose fused-panel count (ceil (n/16) = 5)
   is not a multiple of any pool worker count the suites use. *)
let test_edge_shapes () =
  List.iter
    (fun (m, n) ->
      let path = temp_path () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          File_matrix.create ~path ~elements:(m * n);
          let ram = Storage.Float64.create (m * n) in
          Storage.fill_iota (module Storage.Float64) ram;
          File_matrix.with_map ~path (fun buf ->
              Storage.fill_iota (module Storage.Float64) buf);
          Kernels_f64.transpose ~m ~n ram;
          File_matrix.transpose_file ~path ~m ~n ();
          File_matrix.with_map ~write:false ~path (fun buf ->
              let ok = ref true in
              for l = 0 to (m * n) - 1 do
                if Bigarray.Array1.get buf l <> Storage.Float64.get ram l then
                  ok := false
              done;
              Alcotest.(check bool)
                (Printf.sprintf "%dx%d matches the in-RAM oracle" m n)
                true !ok)))
    [ (1, 40); (40, 1); (13, 17); (23, 29); (31, 78) ]

let test_workspace_reuse () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = 24 and n = 36 in
      File_matrix.create ~path ~elements:(m * n);
      File_matrix.with_map ~path (fun buf ->
          Storage.fill_iota (module Storage.Float64) buf);
      (* one workspace across both directions: the round trip must land
         back on the identity *)
      let ws = Workspace.F64.create () in
      File_matrix.transpose_file ~ws ~path ~m ~n ();
      File_matrix.transpose_file ~ws ~path ~m:n ~n:m ();
      File_matrix.with_map ~write:false ~path (fun buf ->
          let ok = ref true in
          for l = 0 to (m * n) - 1 do
            if Bigarray.Array1.get buf l <> float_of_int l then ok := false
          done;
          Alcotest.(check bool) "round trip through one workspace" true !ok))

let test_generic_functor_on_map () =
  (* mapped buffers are ordinary Storage.Float64 values *)
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = 8 and n = 14 in
      File_matrix.create ~path ~elements:(m * n);
      File_matrix.with_map ~path (fun buf ->
          Storage.fill_iota (module Storage.Float64) buf;
          let original = Instances.F64.copy buf in
          Instances.F64.transpose ~m ~n buf;
          Alcotest.(check bool) "functor works on mapped file" true
            (Instances.F64.is_transpose_of ~m ~n ~original buf)))


(* -- eager unmapping ------------------------------------------------------- *)

exception Escaped of Storage.Float64.t

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let with_temp_file ~elements f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      File_matrix.create ~path ~elements;
      f path)

let test_unmap_releases () =
  with_temp_file ~elements:1024 (fun path ->
      (* map, write and release inside a function of its own, so the
         released bigarray is garbage by the [Gc.full_major] below and
         its runtime finalizer runs on a length-0 array *)
      let write_and_release () =
        File_matrix.with_fd ~path (fun fd ->
            let a = File_matrix.map_range fd ~pos:3 ~len:600 in
            for l = 0 to 599 do
              Bigarray.Array1.set a l (float_of_int (l + 1))
            done;
            Alcotest.(check bool) "a mapping is released" true
              (File_matrix.unmap a);
            Alcotest.(check int) "length is 0 afterwards" 0
              (Bigarray.Array1.dim a);
            Alcotest.(check bool) "a checked read raises" true
              (raises_invalid (fun () -> Bigarray.Array1.get a 0));
            Alcotest.(check bool) "a checked write raises" true
              (raises_invalid (fun () -> Bigarray.Array1.set a 0 1.0));
            Alcotest.(check bool) "a second call does nothing" false
              (File_matrix.unmap a);
            Alcotest.(check int) "still length 0" 0 (Bigarray.Array1.dim a))
      in
      write_and_release ();
      Gc.full_major ();
      File_matrix.with_map ~write:false ~path (fun buf ->
          let ok = ref true in
          for l = 0 to 1023 do
            let expected =
              if l >= 3 && l < 603 then float_of_int (l - 2) else 0.0
            in
            if Bigarray.Array1.get buf l <> expected then ok := false
          done;
          Alcotest.(check bool)
            "the file keeps what was written through the shared map" true !ok))

let test_unmap_refuses () =
  Alcotest.(check bool) "an in-RAM bigarray is refused" false
    (File_matrix.unmap (Storage.Float64.create 16));
  let ram = Storage.Float64.create 16 in
  ignore (File_matrix.unmap ram);
  Alcotest.(check int) "and left intact" 16 (Bigarray.Array1.dim ram);
  with_temp_file ~elements:64 (fun path ->
      File_matrix.with_fd ~path (fun fd ->
          let a = File_matrix.map_range fd ~pos:0 ~len:64 in
          let view = Bigarray.Array1.sub a 8 16 in
          Alcotest.(check bool) "a mapping with a live sub-array is refused"
            false (File_matrix.unmap a);
          Bigarray.Array1.set view 0 5.0;
          Alcotest.(check (float 0.0)) "the view still reaches the mapping" 5.0
            (Bigarray.Array1.get a 8);
          Alcotest.(check bool) "a sub-array itself is refused" false
            (File_matrix.unmap view);
          Alcotest.(check int) "the mapping keeps its length" 64
            (Bigarray.Array1.dim a)))

let test_with_map_unmaps () =
  with_temp_file ~elements:32 (fun path ->
      let escaped = File_matrix.with_map ~path (fun buf -> buf) in
      Alcotest.(check int) "the buffer is dead after with_map" 0
        (Bigarray.Array1.dim escaped);
      let escaped =
        try File_matrix.with_map ~write:false ~path (fun buf -> raise (Escaped buf))
        with Escaped buf -> buf
      in
      Alcotest.(check int) "also when f raises" 0 (Bigarray.Array1.dim escaped))

let () =
  Alcotest.run "xpose_mmap"
    [
      ( "file_matrix",
        [
          Alcotest.test_case "create and map" `Quick test_create_and_map;
          Alcotest.test_case "transpose in file" `Quick test_transpose_file;
          Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
          Alcotest.test_case "misaligned file" `Quick test_misaligned_file;
          Alcotest.test_case "edge shapes vs in-RAM oracle" `Quick
            test_edge_shapes;
          Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "generic functor on map" `Quick
            test_generic_functor_on_map;
        ] );
      ( "unmap",
        [
          Alcotest.test_case "releases a mapping" `Quick test_unmap_releases;
          Alcotest.test_case "refuses what it cannot release" `Quick
            test_unmap_refuses;
          Alcotest.test_case "with_map releases its buffer" `Quick
            test_with_map_unmaps;
        ] );
    ]
