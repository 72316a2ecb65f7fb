(* The native substrate with a monotonic nanosecond clock.
   [Sec_prim.Native.now_ns] reads [Unix.gettimeofday]: microsecond
   resolution and not monotonic, too coarse for per-operation latency. *)

include Sec_prim.Native

let now_ns () = Monotonic_clock.now ()
