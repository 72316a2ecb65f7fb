(** The single workload driver behind every benchmark: the paper's
    prefill/announce/measure loop, written once against
    {!Sec_prim.Prim_intf.EXEC} and instantiated for real domains
    ({!Native_runner}) and the simulator ({!Sim_runner}). Per-operation
    metrics — throughput counts, latency histograms, operation histories —
    plug in as {!Make.observer}s over the one loop. See docs/HARNESS.md. *)

val default_prefill : int
val default_value_range : int

module Make (X : Sec_prim.Prim_intf.EXEC) : sig
  (** What to record per operation. When [timed] is false the two
      substrate clock reads around each operation are skipped and [on_op]
      receives [start = finish = 0L]. *)
  type observer = {
    timed : bool;
    on_op :
      tid:int ->
      op:Workload.op ->
      value:int ->
      result:int option ->
      start:int64 ->
      finish:int64 ->
      unit;
  }

  (** Records nothing; throughput comes from the per-thread counts the
      loop keeps anyway. *)
  val counting_observer : observer

  (** Per-thread latency histograms; the returned thunk merges them
      (call it after the run). *)
  val latency_observer : threads:int -> observer * (unit -> Latency.t)

  (** Records every operation into a {!Sec_spec.History} for
      linearizability checking, on either substrate. *)
  val history_observer : threads:int -> observer * int Sec_spec.History.t

  type stop_rule =
    | Timed of X.budget  (** run until the backend's deadline expires *)
    | Ops_per_thread of int  (** fixed count; no deadline, no clock reads *)

  type outcome = {
    counts : int array;  (** operations completed, per thread *)
    elapsed : X.budget option;  (** measured duration of [Timed] runs *)
  }

  val total : outcome -> int

  (** The workload loop itself, over caller-supplied operations (used
      directly by non-stack benchmarks, e.g. SEC statistics runs). *)
  val drive :
    ?observer:observer ->
    ?op_overhead:int ->
    threads:int ->
    stop:stop_rule ->
    mix:Workload.mix ->
    ?value_range:int ->
    push:(tid:int -> int -> unit) ->
    pop:(tid:int -> int option) ->
    peek:(tid:int -> int option) ->
    unit ->
    outcome

  (** The standard stack benchmark: instantiate [Maker] on this
      substrate, prefill single-threaded, drive. Returns the algorithm's
      display name with the outcome. *)
  val run_maker :
    (module Sec_spec.Stack_intf.MAKER) ->
    ?observer:observer ->
    ?op_overhead:int ->
    threads:int ->
    stop:stop_rule ->
    mix:Workload.mix ->
    ?prefill:int ->
    ?value_range:int ->
    unit ->
    string * outcome

  (** [run_maker] with a full operation history. *)
  val run_recorded :
    (module Sec_spec.Stack_intf.MAKER) ->
    ?op_overhead:int ->
    threads:int ->
    stop:stop_rule ->
    mix:Workload.mix ->
    ?prefill:int ->
    ?value_range:int ->
    unit ->
    string * int Sec_spec.History.t * outcome
end

(** A benchmark backend: {!Make} applied to one substrate plus the
    presentation facts (labels, sweep points, prefill policy) that keep
    {!Experiments} backend-agnostic. Built by {!Native_runner.backend}
    and {!Sim_runner.backend}. *)
module type BACKEND = sig
  val label : string
  val file_suffix : string
  val sweep_threads : int list
  val prefill_for : Workload.mix -> int
  val latency_point : int
  val latency_unit : string

  (** One throughput point, with the run's schedule digest
      ([Sim.stats.schedule_digest]; native runs have none). *)
  val run_mix :
    (module Sec_spec.Stack_intf.MAKER) ->
    threads:int ->
    mix:Workload.mix ->
    ?prefill:int ->
    ?seed:int ->
    unit ->
    Measurement.t * int option

  val run_latency :
    (module Sec_spec.Stack_intf.MAKER) ->
    threads:int ->
    mix:Workload.mix ->
    ?prefill:int ->
    ?seed:int ->
    unit ->
    Latency.t
end
