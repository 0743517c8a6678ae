(* What the kernel reports about a process. *)

(* Peak resident set ([VmHWM]) of a process, in MB (10^6 bytes). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb *. 1024.0 /. 1e6)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let self_peak_rss_mb () = peak_rss_mb "self"

(* Reset this process's [VmHWM] to its current resident set. *)
let reset_self_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
