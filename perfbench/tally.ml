(* Outcomes and per-op samples of one timed phase of a workload that runs
   its ops back to back. Each op is timed on the process CPU clock and
   scaled to the reference speed by a [Refspeed] probe taken right after
   it. *)

type t = {
  mutable lat_ms : float list;  (** per verified op, scaled; newest first *)
  mutable ok : int;
  mutable attempted : int;
  mutable wrong : int;
  mutable exceptions : int;
  mutable op_s : float;  (** sum of the scaled op times *)
  mutable cpu_s : float;  (** the same ops, unscaled CPU time *)
  mutable wall_s : float;  (** the same ops on the wall clock *)
  mutable elems : int;  (** elements moved by verified ops *)
  mutable rss_mb : float list;  (** peak resident set during each op *)
}

let create () =
  {
    lat_ms = [];
    ok = 0;
    attempted = 0;
    wrong = 0;
    exceptions = 0;
    op_s = 0.0;
    cpu_s = 0.0;
    wall_s = 0.0;
    elems = 0;
    rss_mb = [];
  }

(* Run op number [t.attempted]: time [f op], read the peak resident set
   it reached, probe the reference speed, then, outside the timed
   interval, [verify ()]. An exception or a
   failed check counts as a failure. Returns whether the op verified. *)
let op t ~what ~elems f verify =
  let op = t.attempted in
  t.attempted <- op + 1;
  Proc.reset_self_peak_rss ();
  match
    let w0 = Mono.now_ns () and c0 = Cpuclock.self_ns () in
    f op;
    let c1 = Cpuclock.self_ns () in
    (c1 -. c0, Mono.now_ns () -. w0)
  with
  | cpu_ns, wall_ns ->
      t.rss_mb <- Proc.self_peak_rss_mb () :: t.rss_mb;
      let scaled_s = cpu_ns *. 1e-9 *. Refspeed.scale () in
      t.op_s <- t.op_s +. scaled_s;
      t.cpu_s <- t.cpu_s +. (cpu_ns *. 1e-9);
      t.wall_s <- t.wall_s +. (wall_ns *. 1e-9);
      if verify () then begin
        t.ok <- t.ok + 1;
        t.elems <- t.elems + elems;
        t.lat_ms <- (scaled_s *. 1e3) :: t.lat_ms;
        true
      end
      else begin
        t.wrong <- t.wrong + 1;
        Printf.eprintf "op %d (%s) produced a wrong result\n%!" op what;
        false
      end
  | exception e ->
      t.exceptions <- t.exceptions + 1;
      Printf.eprintf "op %d (%s) raised %s\n%!" op what (Printexc.to_string e);
      false

let to_run t ~setup_s ~setup_ok =
  {
    Report.setup_s;
    lat_ms = Array.of_list (List.rev t.lat_ms);
    ok = t.ok;
    attempted = t.attempted;
    fails =
      {
        Perfbench_core.Stats.no_failures with
        wrong = t.wrong + (if setup_ok then 0 else 1);
        exceptions = t.exceptions;
      };
    timed_s = t.op_s;
    cpu_s = t.cpu_s;
    wall_s = t.wall_s;
    elems = t.elems;
    (* A mapped out-of-core window is unmapped only when the collector
       frees it, so a process's lifetime peak follows the collector's
       timing; the median op's peak is the program's steady residency. *)
    peak_rss_mb = Perfbench_core.Stats.median (Array.of_list t.rss_mb);
  }

(* Op rate of a phase, over its scaled op times. *)
let rate t = float_of_int t.ok /. t.op_s

(* Both halves of a traced run, for its correctness counts. *)
let merge a b =
  {
    lat_ms = b.lat_ms @ a.lat_ms;
    ok = a.ok + b.ok;
    attempted = a.attempted + b.attempted;
    wrong = a.wrong + b.wrong;
    exceptions = a.exceptions + b.exceptions;
    op_s = a.op_s +. b.op_s;
    cpu_s = a.cpu_s +. b.cpu_s;
    wall_s = a.wall_s +. b.wall_s;
    elems = a.elems + b.elems;
    rss_mb = b.rss_mb @ a.rss_mb;
  }
