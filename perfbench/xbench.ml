(* The benchmark program. One process runs one workload:

     xbench.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   runs the workload half untraced, half with spans around each call
   into a layer, and prints the per-layer metrics. The last line of
   standard output is the JSON result. [xbench.exe serve --socket P] is
   the server process the serve_pipelined workload starts. *)

let workloads = [ "transpose_serial"; "serve_pipelined"; "ooc_window"; "permute_nd" ]

let usage () =
  prerr_endline
    "usage: xbench.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       xbench.exe serve --socket PATH";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  fun k -> match Hashtbl.find_opt tbl k with Some v -> v | None -> usage ()

let () =
  Xpose_obs.Clock.install Mono.now_ns;
  match List.tl (Array.to_list Sys.argv) with
  | "serve" :: rest -> W_serve.serve ~socket_path:(parse rest "socket")
  | args ->
      let arg = parse args in
      let workload = arg "workload" in
      let int_arg k = match int_of_string_opt (arg k) with Some v -> v | None -> usage () in
      let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
      let trace = match arg "trace" with "0" -> false | "1" -> true | _ -> usage () in
      if seconds <= 0.0 then usage ();
      let run =
        match workload with
        | "transpose_serial" -> W_serial.run
        | "serve_pipelined" -> W_serve.run
        | "ooc_window" -> W_ooc.run
        | "permute_nd" -> W_permute.run
        | w ->
            Printf.eprintf "unknown workload %S (known: %s)\n" w (String.concat ", " workloads);
            exit 2
      in
      let r, lines, metrics = run ~seed ~seconds ~trace in
      let failed = Perfbench_core.Stats.failed r.Report.fails in
      Report.print ~correct:(failed = 0) ~attempted:r.attempted ~failed
        ~lines:(Printf.sprintf "workload %s, seed %d, trace %b" workload seed trace :: lines)
        metrics
