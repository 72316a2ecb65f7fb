(** Native implementation of {!Prim_intf.EXEC}: real shared memory via
    [Stdlib.Atomic], workers running on [Domain]s.

    Spin loops must escalate to {!yield} (see {!Backoff}), a zero-length
    [nanosleep] that enters the kernel scheduler: a host may have fewer
    cores than domains, and a non-yielding spinner would burn its whole
    scheduling quantum while the thread it waits for is descheduled.

    Execution: {!spawn} defers worker bodies; {!await_all} hands them to a
    persistent pool of domains, which grows to the largest thread count
    any run has asked for, so only the first run of a given width spawns
    domains. One broadcast releases the workers together; the caller
    sleeps out the current deadline (if any), raises its stop flag and
    waits until every worker has finished. Idle workers and the waiting
    caller block rather than spin. A worker's exception does not cut the
    run short: every worker runs to completion, then {!await_all}
    re-raises the first exception in spawn order. {!await_all} from
    inside a worker raises [Invalid_argument]. Budgets are wall-clock
    seconds. *)

include Prim_intf.EXEC with type budget = float

(** Re-seed the calling thread's random generator (tests use this for
    reproducibility). *)
val seed_rng : int64 -> unit

(** [with_exec ~seed f] resets the execution context for one run: a fresh
    run-level SplitMix64 stream is created from [seed], the caller's
    generator and each subsequently spawned worker's generator are
    {!Rng.split} from it in spawn order — the same per-fiber derivation
    the simulator uses — and [f] is run. Runs must not nest or overlap;
    the harness drives them sequentially. *)
val with_exec : seed:int64 -> (unit -> 'a) -> 'a
