(** Systematic schedule exploration with preemption bounding (CHESS-style
    stateless model checking) of code written against {!Sim.Prim}.

    A *scenario* is a generator returning fresh fiber bodies plus a final
    check; {!for_all} replays it under every schedule that deviates from
    a fair round-robin baseline by at most [max_preemptions] forced
    context switches placed before atomic accesses. The fair baseline
    makes exploration sound for blocking algorithms (spinning fibers
    always let their partners run).

    Scenario code uses {!Sim.Prim} exactly as simulator code does;
    {!Sim.spawn}/{!Sim.await_all} are not available inside scenarios. *)

type placement = { step : int; fiber : int }

(** How branching points are harvested from a run:
    - [`Exhaustive]: branch at every step at which another fiber was
      runnable (the historical behaviour — complete within the bound,
      but most branches commute);
    - [`Dpor]: dynamic partial-order reduction — branch only at steps
      whose access conflicts (same location, at least one write) with a
      later access of another fiber. Far fewer schedules for the same
      behaviours; see docs/ANALYSIS.md for the model and its limits. *)
type strategy = [ `Exhaustive | `Dpor ]

type violation_kind =
  | Check_failed  (** the scenario's final check returned false *)
  | Fiber_raised of string  (** a fiber or the check raised *)
  | Livelock  (** a schedule exceeded the per-run step budget *)
  | Race_detected of string
      (** the race detector flagged this schedule (with [detect_races]) *)
  | Reclamation_violation of string
      (** the reclamation checker flagged this schedule (with
          [check_reclamation]) *)

type violation = {
  kind : violation_kind;
  schedule : placement list;  (** forced preemptions reproducing it *)
  explored : int;  (** schedules run up to and including the violation *)
}

type result =
  | Passed of { schedules : int; truncated : bool }
  | Failed of violation

exception Unsupported of string

val pp_result : Format.formatter -> result -> unit

(** Round-trip a reproducing schedule through a compact
    ["step:fiber;step:fiber"] string, for pinning violations in bug
    reports and regression tests. [schedule_of_string] raises
    [Invalid_argument] on malformed input. *)
val schedule_to_string : placement list -> string

val schedule_of_string : string -> placement list

(** [for_all scenario] explores schedules depth-first until a violation,
    exhaustion of the bounded space, or [max_schedules] runs ([truncated]
    reports whether any bound cut the space). [scenario ()] must build
    fresh state and return [(fiber_bodies, final_check)]; it runs once
    per schedule, so it must be deterministic.

    [detect_races] monitors every run with a fresh
    {!Sec_analysis.Race_detector}; a write-write race fails the search
    with {!Race_detected} even when the scenario's check passes.

    [check_reclamation] likewise monitors every run with a fresh
    {!Sec_analysis.Reclaim_checker}: instrumented reclamation code feeds
    its shadow heap and any lifetime report (use-after-retire, unguarded
    access, double retire, ...) fails the search with
    {!Reclamation_violation} and a reproducing schedule. *)
val for_all :
  ?max_preemptions:int ->
  ?quantum:int ->
  ?max_schedules:int ->
  ?max_steps:int ->
  ?strategy:strategy ->
  ?detect_races:bool ->
  ?check_reclamation:bool ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  result

type one_outcome = Ok_run of bool | Raised of string | Livelocked

(** {1 Weighted-random exploration}

    A PCT-style randomized scheduler (Burckhardt et al., "A randomized
    scheduler with probabilistic guarantees of finding bugs") for depths
    the bounded DFS cannot exhaust: each run draws one priority weight
    per fiber from a seeded generator, and at every atomic access the
    scheduler either stays on the current fiber (weight [stay_weight])
    or deviates to a runnable other, proportionally to the weights. The
    fair round-robin baseline still rotates between deviations, so
    blocking algorithms cannot be starved into false livelocks.

    Every deviation is recorded as a {!placement}, so a failing run
    serializes to an ordinary schedule replayable with {!replay} — the
    random exploration produces pinned, deterministic witnesses. *)

(** One seeded random run. Returns the outcome plus the recorded
    deviations (ascending); replaying them with {!replay} reproduces the
    run exactly. *)
val random_run :
  ?quantum:int ->
  ?max_steps:int ->
  ?stay_weight:int ->
  seed:int64 ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  one_outcome * placement list

(** [for_random ~seed scenario] performs [runs] independent seeded
    random runs (each run's generator is split off one master seeded
    with [seed], so the sweep is a pure function of [seed]) and fails
    with the first violation, whose [schedule] is the recorded deviation
    list. [detect_races]/[check_reclamation] monitor every run as in
    {!for_all}. *)
val for_random :
  ?quantum:int ->
  ?max_steps:int ->
  ?runs:int ->
  ?stay_weight:int ->
  ?detect_races:bool ->
  ?check_reclamation:bool ->
  seed:int64 ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  result

(** {1 Counterexample shrinking}

    [shrink_schedule ~still_fails schedule] minimizes a failing schedule
    by delta debugging (ddmin) over its placements: it returns a
    sublist, still failing according to [still_fails], from which no
    single placement can be removed without the failure disappearing.
    [still_fails] must replay the candidate deterministically (e.g. via
    {!replay}, comparing the violation kind); it is invoked O(n²) times
    in the worst case for an n-placement schedule. *)
val shrink_schedule :
  still_fails:(placement list -> bool) -> placement list -> placement list

(** Replay one specific schedule (e.g. a reported violation). With
    [detector] and/or [reclaim_checker], the run feeds them; inspect
    them afterwards. *)
val replay :
  ?quantum:int ->
  ?max_steps:int ->
  ?detector:Sec_analysis.Race_detector.t ->
  ?reclaim_checker:Sec_analysis.Reclaim_checker.t ->
  schedule:placement list ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  one_outcome

(** {1 Adversarial suspension: the mechanical lock-freedom check}

    The progress prong's dynamic classifier (docs/ANALYSIS.md, "Progress
    prong"): freeze one fiber forever at a chosen point mid-operation and
    ask whether the rest of the system still completes — the operational,
    crash-failure reading of lock-freedom (a blocking algorithm has a
    state in which a stopped thread stalls its peers; a lock-free one has
    none). *)

type progress_class = Blocking | Lock_free

type suspension_outcome =
  | Survived of { engaged : bool }
      (** every non-victim fiber completed; [engaged] is [false] when the
          victim finished before reaching the suspension point *)
  | Blocked  (** the step budget ran out: the peers spun forever *)
  | Crashed of string

(** Run the scenario once under the fair round-robin baseline with fiber
    [victim] frozen just before its [after]th atomic access. The
    scenario's final check is not consulted (the frozen fiber's operation
    is legitimately half-done); the verdict is only whether the peers ran
    to completion. *)
val suspended_run :
  ?quantum:int ->
  ?max_steps:int ->
  victim:int ->
  after:int ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  suspension_outcome

(** Like {!suspended_run}, but when the peers run to completion the
    scenario's final check {e is} consulted, and its verdict returned
    alongside the outcome ([None] on [Blocked]/[Crashed]). For
    crash-aware refinement properties (docs/ANALYSIS.md, "Refinement
    prong"): the check must already account for the victim's possibly
    half-completed operation — e.g. treat its in-flight pushes as
    optional. *)
val crashed_run :
  ?quantum:int ->
  ?max_steps:int ->
  victim:int ->
  after:int ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  suspension_outcome * bool option

type classification = {
  verdict : progress_class;
  witness : (int * int) option;
      (** [(victim, access index)] whose suspension blocked the peers *)
  runs : int;  (** suspension runs performed *)
}

(** Sweep every single-fiber suspension point of the scenario ([fibers]
    is the number of fiber bodies it returns): each victim in turn is
    frozen before its 1st, 2nd, ... access until it completes naturally
    (or [max_suspensions] caps the sweep). Any run that exhausts
    [max_steps] is a definitive [Blocking] witness, reproducible with
    {!suspended_run}; surviving the whole sweep is (bounded) evidence of
    [Lock_free]. Raises [Failure] if a fiber raises under suspension. *)
val classify :
  ?quantum:int ->
  ?max_steps:int ->
  ?max_suspensions:int ->
  fibers:int ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  classification

val progress_class_to_string : progress_class -> string
