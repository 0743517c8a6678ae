let create ~path ~elements =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd (elements * 8))

let with_fd ?(write = true) ~path f =
  let flags = if write then [ Unix.O_RDWR ] else [ Unix.O_RDONLY ] in
  let fd = Unix.openfile path flags 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let map_range ?(write = true) fd ~pos ~len =
  if pos < 0 || len < 0 then
    invalid_arg "File_matrix.map_range: negative pos or len";
  let gen =
    Unix.map_file fd ~pos:(Int64.of_int (pos * 8)) Bigarray.float64
      Bigarray.c_layout write [| len |]
  in
  Bigarray.array1_of_genarray gen

external unmap : ('a, 'b, 'c) Bigarray.Array1.t -> bool = "xpose_fm_unmap"

let with_map ?(write = true) ~path f =
  with_fd ~write ~path (fun fd ->
      let bytes = (Unix.fstat fd).Unix.st_size in
      if bytes mod 8 <> 0 then
        invalid_arg "File_matrix.with_map: file length is not a multiple of 8";
      let buf = map_range ~write fd ~pos:0 ~len:(bytes / 8) in
      Fun.protect
        ~finally:(fun () -> ignore (unmap buf))
        (fun () ->
          let r = f buf in
          (* A shared writable mapping reaches the page cache as soon as
             the stores land; the fsync pushes it to stable storage
             before the fd closes. The read-only path maps privately and
             has nothing to sync. *)
          if write then Unix.fsync fd;
          r))

let transpose_file ?ws ~path ~m ~n () =
  if m < 1 || n < 1 then
    invalid_arg "File_matrix.transpose_file: dimensions must be positive";
  with_map ~path (fun buf ->
      if Bigarray.Array1.dim buf <> m * n then
        invalid_arg "File_matrix.transpose_file: file does not hold m*n elements";
      Xpose_core.Kernels_f64.transpose ?ws ~m ~n buf)
