(* Monotonic wall clock (CLOCK_MONOTONIC), in nanoseconds and seconds. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let now_s () = now_ns () *. 1e-9
