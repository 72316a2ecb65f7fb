(** Allocator microbenchmark behind [sec_bench alloc]: the node hot
    path measured in isolation — alloc/free round-trip cost and
    remote-free throughput for the magazine over the wait-free slab
    store and for the off-heap arena, on both substrates.

    The iteration counts are fixed (not timed), so simulated runs are
    deterministic per seed and their cross-domain CAS counts are exact.
    See docs/PERF.md ("Allocator") for measured numbers. *)

type mode =
  | Slab  (** magazine refilled from the wait-free slab store *)
  | Arena  (** off-heap Bigarray arena, integer handles, no magazine *)

type phase =
  | Local  (** every thread alloc/frees its own bursts *)
  | Remote
      (** producer/consumer pairs: allocation and free streams live on
          different domains *)

val mode_to_string : mode -> string
val phase_to_string : phase -> string

type result = {
  r_mode : mode;
  r_phase : phase;
  backend : string;  (** "native" or "sim" *)
  threads : int;
  ops : int;  (** alloc/free round-trips completed *)
  per_op : float;  (** ns/op (native) or cycles/op (sim) *)
  unit_label : string;  (** "ns/op" or "cycles/op" *)
  cross_cas : int;
      (** cross-domain CAS attempts the allocator issued
          ({!Sec_reclaim.Slab.Global.cas_attempts}) *)
  cross_cas_retries : int;  (** attempts that lost and looped/degraded *)
  fresh : int;  (** nodes constructed outside the recycler (misses) *)
  remote_batches : int;  (** arena remote-free batches spliced *)
  occupancy : float;  (** slab pooled/capacity at the end of the run *)
}

val default_iters : int

(** Above the default magazine capacity, so every burst spills to the
    refill layer under measurement. *)
val default_burst : int

val run_native :
  ?threads:int ->
  ?iters:int ->
  ?burst:int ->
  ?seed:int ->
  mode:mode ->
  phase:phase ->
  unit ->
  result

val run_sim :
  ?threads:int ->
  ?iters:int ->
  ?burst:int ->
  ?seed:int ->
  ?topology:Sec_sim.Topology.t ->
  mode:mode ->
  phase:phase ->
  unit ->
  result
