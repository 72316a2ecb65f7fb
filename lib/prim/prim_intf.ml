(* Signature of the execution substrate that every concurrent algorithm in
   this repository is written against.

   Two implementations exist:
   - {!Sec_prim.Native}: real shared memory, [Stdlib.Atomic] and [Domain];
   - [Sec_sim.Sim_prim]: a deterministic discrete-event simulator in which
     every atomic access is charged against a NUMA cache-cost model.

   Algorithms must route {e all} shared-memory communication through
   [Atomic]; plain mutable fields are only allowed when they are published
   through an atomic operation before becoming shared (the usual OCaml 5
   publication idiom), because the simulator executes fibers one at a time
   and does not intercept plain loads/stores. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t

  (** [make_padded v] is [make v] but the cell is allocated in its own
      cache line, so that independently contended cells never exhibit
      false sharing. *)
  val make_padded : 'a -> 'a t

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

module type S = sig
  module Atomic : ATOMIC

  (** Hint that the caller is spinning; on native hardware a pause
      instruction, in the simulator a one-cycle charge. *)
  val cpu_relax : unit -> unit

  (** [relax n] relaxes for roughly [n] units. The simulator charges the
      whole amount with a single scheduling event, which keeps spin loops
      with exponential backoff cheap to simulate. *)
  val relax : int -> unit

  (** Give other threads a chance to run. Used by spin loops once they
      escalate past busy waiting; essential when threads outnumber cores. *)
  val yield : unit -> unit

  (** Monotonic clock. Native: [CLOCK_MONOTONIC] in nanoseconds, never
      decreasing. Simulator: the calling fiber's virtual time in cycles.
      Only differences matter. *)
  val now_ns : unit -> int64

  (** [rand_int bound] draws uniformly from [\[0, bound)] using a
      per-thread generator (no sharing, no synchronization). *)
  val rand_int : int -> int

  (** 30 random bits from the per-thread generator. *)
  val rand_bits : unit -> int

  (** Account one hot-path heap allocation: a freshly constructed node.
      Native: a no-op — the GC's own counters
      already measure allocation. Simulator: bumps the run's
      [Sim.stats.allocs] without a scheduling event, so instrumenting a
      path never perturbs schedules (pinned-seed results are unchanged
      by adding or removing calls). *)
  val note_alloc : unit -> unit
end

(** {!S} plus an execution capability: the substrate can not only describe
    shared memory but also run workers and bound a run in time. This is
    what the harness's single workload driver ([Sec_harness.Runner.Make])
    is written against, so the exact same prefill/announce/measure loop
    executes on real domains and inside the simulator.

    Implementations:
    - {!Sec_prim.Native}: a deferred domain pool released by a start
      barrier, with a stop flag flipped after a wall-clock sleep;
    - [Sec_sim.Sim.Prim]: fibers of the discrete-event simulator, with
      deadlines in virtual cycles.

    Worker identity and randomness follow one scheme on both backends:
    workers are numbered [0, 1, ...] in spawn order ({!EXEC.thread_id}),
    and each worker's generator is an independent SplitMix64 stream
    derived ([Rng.split]) from the run-level seed, so a run is
    reproducible from (seed, spawn order) alone. *)
module type EXEC = sig
  include S

  (** A run duration in the substrate's own unit: wall-clock seconds on
      native hardware, virtual cycles in the simulator. *)
  type budget

  (** A ticking run bound, created before the workers start. *)
  type deadline

  val deadline_after : budget -> deadline

  (** Cheap enough to poll once per benchmark-loop iteration: a stop-flag
      read on native, a virtual-clock comparison in the simulator. *)
  val expired : deadline -> bool

  (** How long the workers actually ran, in {!budget} units, measured by
      the backend. Meaningful once {!await_all} has returned. *)
  val elapsed : deadline -> budget

  (** Register a worker. Workers are released together (native: after a
      start barrier; simulator: fibers share the spawner's virtual time)
      and numbered [0, 1, ...] in spawn order. *)
  val spawn : (unit -> unit) -> unit

  (** Block the caller until every spawned worker has finished. On the
      native backend this is also what starts the deferred workers and,
      when a deadline exists, sleeps out its duration before raising the
      stop flag. *)
  val await_all : unit -> unit

  (** The calling worker's id (its spawn rank). *)
  val thread_id : unit -> int

  (** Number of workers spawned so far in the current run. *)
  val num_threads : unit -> int
end
