(* Process CPU time (user + system, all threads), in nanoseconds. The
   benchmark times the program on these clocks: on a shared host they
   exclude time the hypervisor gave to other guests, which the wall
   clock does not. *)

external self_ns : unit -> float = "xb_self_cpu_ns"
external pid_ns : int -> float = "xb_pid_cpu_ns"

let self_s () = self_ns () *. 1e-9
let pid_s pid = pid_ns pid *. 1e-9
