(** Deterministic discrete-event simulator of a NUMA multicore.

    Simulated threads are fibers with private virtual clocks. {!Prim}
    reaches the scheduler through a dispatch record installed for the
    run: atomic accesses are charged through {!Cache_model} inline, and
    a fiber switch happens only when another fiber is now earliest.
    Used to run every stack in this repository at the paper's
    56/96/192-thread scales on a small host, and to explore
    interleavings deterministically in tests. *)

exception Deadlock

exception Not_in_simulation
(** Raised by every {!Prim} operation used outside {!run} or an
    {!Explore} run. *)

exception Stalled
(** Raised when [run ~max_events] exceeds its event budget — the
    discrete-event analogue of {!Explore}'s livelock verdict: with a
    fiber frozen by [~suspend], the peers of a blocking algorithm spin
    forever instead of completing. *)

type stats = {
  elapsed_cycles : int;  (** makespan: latest fiber end time *)
  events : int;  (** scheduling events (atomic accesses etc.) *)
  traffic : Cache_model.traffic;
  fibers : int;  (** workers spawned *)
  allocs : int;
      (** fresh hot-path node allocations, as reported by
          [P.note_alloc] in instrumented algorithm code. Counted without
          a scheduling event, so instrumentation never perturbs the
          schedule; magazine-recycled nodes do not count. *)
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

    When [detector] is given it is installed for the duration of the run:
    every atomic access feeds its happens-before tracker, and spawn /
    exit / join edges are recorded. Inspect it afterwards with
    {!Sec_analysis.Race_detector.races}.

    When [reclaim_checker] is given it is likewise installed for the
    duration: instrumented reclamation code (lib/reclaim) feeds its
    shadow heap, and fiber completion is reported so leaked guards are
    caught. Inspect it with {!Sec_analysis.Reclaim_checker.reports}.

    When [progress] is given it is installed for the duration: every
    atomic access feeds {!Sec_analysis.Progress_monitor.on_event} and
    fiber completion clears in-flight operations; operation boundaries
    come from the workload loop's [note_op_*] hooks. Inspect it with
    {!Sec_analysis.Progress_monitor.reports}.

    [suspend:(fid, n)] is the suspension adversary (see
    {!Explore.classify} for the sweeping classifier): fiber [fid] is
    frozen forever just before its [n]th atomic access. A frozen worker
    stops counting as live, so [await_all] returns once its peers
    finish — unless they spin on the victim's next write, in which case
    the run never completes: bound it with [max_events] and catch
    {!Stalled}. *)
val run :
  ?seed:int ->
  ?jitter:int ->
  ?detector:Sec_analysis.Race_detector.t ->
  ?reclaim_checker:Sec_analysis.Reclaim_checker.t ->
  ?progress:Sec_analysis.Progress_monitor.t ->
  ?suspend:int * int ->
  ?max_events:int ->
  topology:Topology.t ->
  (unit -> 'a) ->
  'a * stats

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
