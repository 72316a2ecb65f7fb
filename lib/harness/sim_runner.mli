(** Simulator backend adapter over {!Runner.Make}: timed throughput runs
    inside the discrete-event simulator, at the paper's 56/96/192
    hardware-thread scales. Deterministic per seed; contains no workload
    loop of its own. *)

val default_prefill : int
val default_value_range : int

(** Benchmark-loop overhead charged per operation (cycles). *)
val loop_overhead : int

(** The prefill the simulated backend uses for [mix]: pop-only sweeps get
    a prefill that outlasts the window so the figure measures sustained
    pop pressure rather than empty-pop throughput. *)
val prefill_for : Workload.mix -> int

(** [run_with_stats maker ~topology ~threads ~duration_cycles ~mix ()]
    spawns [threads] fibers that hammer a fresh stack until the virtual
    deadline and reports throughput (scaled as if the machine ran at
    3 GHz), with the run's simulator statistics — notably
    [Sim.stats.schedule_digest], which the figure goldens pin so
    event-loop refactors are provably schedule-preserving. *)
val run_with_stats :
  (module Registry.MAKER) ->
  topology:Sec_sim.Topology.t ->
  threads:int ->
  duration_cycles:int ->
  mix:Workload.mix ->
  ?prefill:int ->
  ?value_range:int ->
  ?seed:int ->
  unit ->
  Measurement.t * Sec_sim.Sim.stats

(** Like {!run_with_stats}, but returns a per-operation latency
    histogram in virtual cycles (used by the latency-distribution
    experiment). *)
val run_latency_profile :
  (module Registry.MAKER) ->
  topology:Sec_sim.Topology.t ->
  threads:int ->
  duration_cycles:int ->
  mix:Workload.mix ->
  ?prefill:int ->
  ?value_range:int ->
  ?seed:int ->
  unit ->
  Latency.t

(** Same run shape for SEC only, returning its batch statistics (prefill
    excluded) — used for the paper's Tables 1–3 — and the run's
    simulator statistics (same digest use as {!run_with_stats}). *)
val run_sec_stats_with :
  config:Sec_core.Config.t ->
  topology:Sec_sim.Topology.t ->
  threads:int ->
  duration_cycles:int ->
  mix:Workload.mix ->
  ?prefill:int ->
  ?value_range:int ->
  ?seed:int ->
  unit ->
  Sec_core.Sec_stats.t * Sec_sim.Sim.stats

(** [run_recorded maker ~topology ~threads ~ops_per_thread ~mix ()] runs
    a fixed number of operations per thread under virtual time, recording
    an operation history for linearizability checking. Returns the
    history and the per-thread completed-operation counts. *)
val run_recorded :
  (module Registry.MAKER) ->
  topology:Sec_sim.Topology.t ->
  threads:int ->
  ops_per_thread:int ->
  mix:Workload.mix ->
  ?prefill:int ->
  ?value_range:int ->
  ?seed:int ->
  unit ->
  int Sec_spec.History.t * int array

(** The paper's per-machine thread-count sweep points. *)
val threads_for : Sec_sim.Topology.t -> int list

(** The simulated benchmark backend ([duration_cycles] of virtual time
    per data point), for backend-agnostic experiment definitions. *)
val backend :
  topology:Sec_sim.Topology.t -> duration_cycles:int -> (module Runner.BACKEND)
