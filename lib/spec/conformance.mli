(** Reusable conformance checks for {!Stack_intf.S} implementations —
    sequential LIFO semantics, conservation under concurrency, no phantom
    values — runnable on any {!Sec_prim.Prim_intf.EXEC} substrate. The
    checks spawn workers with its [spawn]/[await_all] and draw with its
    [rand_int]; the caller runs them inside the substrate's run context,
    [Sec_prim.Native.with_exec ~seed] or [Sec_sim.Sim.run]. *)

type failure = { check : string; detail : string }
type report = { passed : int; failures : failure list }

val merge : report -> report -> report

module Make (_ : Sec_prim.Prim_intf.EXEC) (_ : Stack_intf.S) : sig
  val sequential_semantics : unit -> report
  val conservation : ?threads:int -> ?ops:int -> unit -> report
  val no_phantom_values : ?threads:int -> ?ops:int -> unit -> report

  (** Every check; [failures = []] means the implementation conforms. *)
  val all : ?threads:int -> ?ops:int -> unit -> report
end
