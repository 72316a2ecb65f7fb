(** Per-fiber progress watermarks for simulated runs: flags starvation (a
    fiber makes no operation progress while peers complete >= K ops) and
    suspected livelock (retry volume grows with no completions anywhere).
    The dynamic half of the progress prong — see docs/ANALYSIS.md; the
    mechanical Blocking/Lock_free verdict is {!Sec_sim.Explore.classify}. *)

type t

type kind = Starvation | Livelock_suspected

type report = {
  kind : kind;
  fiber : int;
      (** the starved fiber, or the fiber whose event tripped the
          livelock bound *)
  peer_completions : int;
      (** completions by other fibers since the starved operation began
          (0 for livelock reports) *)
  events : int;  (** global scheduling events at the report *)
  detail : string;
}

val create :
  ?starvation_ops:int ->
  ?livelock_events:int ->
  ?max_reports:int ->
  unit ->
  t
(** [starvation_ops] (default 64): peer completions tolerated while one
    operation stays in flight before a [Starvation] report.
    [livelock_events] (default 50_000): scheduling events tolerated since
    the last completion (with >= 1 operation in flight) before a
    [Livelock_suspected] report. Reports beyond [max_reports] (default
    64) are counted in {!dropped}. *)

(** {1 Event feed}

    Analyses run under {!Sec_sim.Explore}; the timed simulator
    {!Sec_sim.Sim} is the cost model and feeds nothing. Under an
    [Explore] run the installed monitor gets {!on_event} at every live
    atomic access, and the scenario brackets each stack operation with
    {!on_op_start}/{!on_op_end}; {!on_fiber_exit} stops counting a
    fiber's unfinished operation as in flight. Starvation is checked at
    completions — a frozen fiber performs no events of its own, so the
    peers' completions must carry the check. *)

val on_op_start : t -> fiber:int -> unit
val on_op_end : t -> fiber:int -> unit
val on_event : t -> fiber:int -> unit
val on_fiber_exit : t -> fiber:int -> unit

(** {1 Reports} *)

val reports : t -> report list
(** In detection order. *)

val dropped : t -> int
val completions : t -> int
val events : t -> int
val kind_to_string : kind -> string
val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

(** {1 Global installation}

    Same pattern as {!Race_detector.active} / {!Reclaim_checker.active}:
    {!Sec_sim.Explore} interleaves fibers within one domain, so a single
    global slot is safe, and its event feed costs one ref read when no
    monitor is installed. *)

val active : t option ref
val install : t -> unit
val uninstall : unit -> unit
val with_monitor : t -> (unit -> 'a) -> 'a
