(** Deterministic discrete-event simulator of a NUMA multicore.

    Simulated threads are fibers with private virtual clocks. {!Prim}
    reaches the scheduler through a dispatch record installed for the
    run: atomic accesses are charged through {!Cache_model} inline, and
    a fiber switch happens only when another fiber is now earliest.
    Used to run every stack in this repository at the paper's
    56/96/192-thread scales on a small host: this is the cost model
    behind every figure. It hosts no analysis — race detection, the
    reclamation checker, the progress monitor and the suspension
    adversary all run under {!Explore}. *)

exception Deadlock

exception Not_in_simulation
(** Raised by every {!Prim} operation used outside {!run} or an
    {!Explore} run. *)

type stats = {
  elapsed_cycles : int;  (** makespan: latest fiber end time *)
  events : int;  (** scheduling events (atomic accesses etc.) *)
  traffic : Cache_model.traffic;
  fibers : int;  (** workers spawned *)
  allocs : int;
      (** hot-path node allocations, as reported by [P.note_alloc] in
          instrumented algorithm code. Counted without a scheduling
          event, so instrumentation never perturbs the schedule. *)
  schedule_digest : int;
      (** order-sensitive FNV-style hash folded over every (time, fid)
          rescheduling decision the event loop made, in order. Equal
          digests mean the two runs took exactly the same schedule; the
          harness pins figure-cell digests as goldens so event-loop
          refactors are provably schedule-preserving. Non-negative. *)
}

(** Internals of the scheduler's event heap, exposed for tests: the
    (time, fid) key packed into one unboxed int. [pack time fid] raises
    [Invalid_argument] when [fid + fid_bias] does not fit in [fid_bits]
    bits or [time] exceeds the remaining 62-bit range.

    The heap itself is a binary min-heap of such keys (non-negative
    ints). [pop] and [min_key] return [-1] on an empty heap.
    [replace_min t key] swaps the root for [key] and returns the old
    root; it requires a non-empty heap and [key >= min_key t]. *)
module Heap : sig
  val fid_bits : int
  val fid_bias : int
  val pack : int -> int -> int

  type t

  val create : unit -> t
  val push : t -> int -> unit
  val pop : t -> int
  val replace_min : t -> int -> int
  val min_key : t -> int
end

(** [run ~topology f] executes [f] as the main fiber of a fresh simulated
    machine and returns its result plus run statistics. Deterministic for
    a fixed [seed]; [jitter > 0] adds seeded random delays (up to that
    many cycles) to every access, perturbing interleavings.

    [run] is the timing model only. To check a scenario for races
    ({!Explore.for_all} [~detect_races], {!Explore.replay} [~detector]),
    reclamation errors ([~check_reclamation], [~reclaim_checker]) or
    progress ({!Explore.suspended_run}, {!Explore.classify}, with a
    {!Sec_analysis.Progress_monitor} installed around them), run it
    under {!Explore}. *)
val run :
  ?seed:int -> ?jitter:int -> topology:Topology.t -> (unit -> 'a) -> 'a * stats

(** Spawn a worker fiber on the next hardware thread (compact placement).
    Must be called inside {!run}; raises past the topology's thread count. *)
val spawn : (unit -> unit) -> unit

(** Block the calling fiber until every spawned worker has finished; its
    clock advances to the makespan. *)
val await_all : unit -> unit

(** Hardware-thread id of the calling worker fiber (-2 for main). *)
val fiber_id : unit -> int

(** The simulated execution substrate, including the execution capability
    ({!Sec_prim.Prim_intf.EXEC}): budgets are virtual cycles, [spawn] and
    [await_all] are the fiber operations above, and [thread_id] is
    {!fiber_id}. Using it outside {!run} or an {!Explore} run raises
    {!Not_in_simulation}. *)
module Prim : Sec_prim.Prim_intf.EXEC with type budget = int
