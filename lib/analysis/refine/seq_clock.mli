(** The clock recorded histories are timestamped with under
    {!Sec_sim.Explore}: the simulated substrate with a [now_ns] that
    orders every read. A bare Explore step ticks only at atomic
    accesses, so one fiber's back-to-back operations would share a
    timestamp (response = next invocation) and the checkers would treat
    them as overlapping. Adds no access: schedules do not move. *)

include Sec_prim.Prim_intf.S with module Atomic = Sec_sim.Sim.Prim.Atomic

(** Forget the last step seen. Call once at the start of every
    scenario run, so a run's timestamps do not depend on the one
    before it. *)
val reset : unit -> unit
