(* Progress watermarks for simulated runs: the dynamic half of the
   progress prong (docs/ANALYSIS.md, "Progress prong").

   The monitor watches two counters per run — operation completions and
   scheduling events (atomic accesses) — and keeps a per-fiber watermark
   of where each in-flight operation started:

   - {b starvation}: an operation is still in flight while its peers have
     completed at least [starvation_ops] operations since it began. The
     check runs at each completion (completions are much rarer than
     events), scanning the in-flight fibers; one report per stalled
     operation.
   - {b suspected livelock}: at least [livelock_events] scheduling events
     have elapsed since the last completion anywhere while at least one
     operation is in flight — the global retry volume grows but nobody
     finishes. One report per completion-less stretch.

   Both are heuristics over a single schedule: a starvation report says
   this schedule starved a fiber, not that the algorithm is unfair, and a
   quiet run proves nothing. The mechanical lock-freedom verdict is the
   suspension classifier ({!Sec_sim.Explore.classify}), which this module
   complements with cheap always-on watermarks.

   Like {!Race_detector} and {!Reclaim_checker}, the monitor installs
   globally for a run ([active]/[install]/[with_monitor]). Its one
   scheduler-side feed is {!Sec_sim.Explore}, which reports every live
   access to the installed monitor (one ref read when none is); the
   scenario under test brackets its operations with [on_op_start] and
   [on_op_end]. The timed simulator feeds nothing: it is the cost
   model, not an analysis host. *)

type kind = Starvation | Livelock_suspected

type report = {
  kind : kind;
  fiber : int;  (** the starved fiber, or the fiber whose event tripped
                    the livelock bound *)
  peer_completions : int;
      (** completions by other fibers since the watermark *)
  events : int;  (** global scheduling events at the report *)
  detail : string;
}

type fiber_state = {
  mutable in_op : bool;
  mutable completions_at_start : int;
      (* global completion count when the in-flight op began *)
  mutable own_completions : int;
  mutable starvation_reported : bool; (* throttle: once per operation *)
}

type t = {
  starvation_ops : int;
  livelock_events : int;
  max_reports : int;
  fibers : (int, fiber_state) Hashtbl.t;
  mutable completions : int;
  mutable events : int;
  mutable events_at_last_completion : int;
  mutable in_flight : int;
  mutable livelock_reported : bool; (* throttle: once per dry stretch *)
  mutable reports : report list; (* reversed *)
  mutable dropped : int;
}

let create ?(starvation_ops = 64) ?(livelock_events = 50_000)
    ?(max_reports = 64) () =
  if starvation_ops < 1 then
    invalid_arg "Progress_monitor.create: starvation_ops must be positive";
  if livelock_events < 1 then
    invalid_arg "Progress_monitor.create: livelock_events must be positive";
  {
    starvation_ops;
    livelock_events;
    max_reports;
    fibers = Hashtbl.create 16;
    completions = 0;
    events = 0;
    events_at_last_completion = 0;
    in_flight = 0;
    livelock_reported = false;
    reports = [];
    dropped = 0;
  }

let add_report t r =
  if List.length t.reports < t.max_reports then t.reports <- r :: t.reports
  else t.dropped <- t.dropped + 1

let state_of t fiber =
  match Hashtbl.find_opt t.fibers fiber with
  | Some s -> s
  | None ->
      let s =
        {
          in_op = false;
          completions_at_start = 0;
          own_completions = 0;
          starvation_reported = false;
        }
      in
      Hashtbl.add t.fibers fiber s;
      s

(* ------------------------------------------------------------------ *)
(* Event feed                                                           *)

let on_op_start t ~fiber =
  let s = state_of t fiber in
  if not s.in_op then begin
    s.in_op <- true;
    s.completions_at_start <- t.completions;
    s.starvation_reported <- false;
    t.in_flight <- t.in_flight + 1
  end

(* Starvation is checked here rather than per event: completions are the
   rare edge, and a fiber that performs no events at all (frozen by the
   suspension adversary, or descheduled forever) must still be seen. *)
let check_starvation t ~completer =
  Hashtbl.iter
    (fun fiber s ->
      if
        fiber <> completer && s.in_op
        && not s.starvation_reported
        && t.completions - s.completions_at_start >= t.starvation_ops
      then begin
        s.starvation_reported <- true;
        add_report t
          {
            kind = Starvation;
            fiber;
            peer_completions = t.completions - s.completions_at_start;
            events = t.events;
            detail =
              Printf.sprintf
                "fiber %d has an operation in flight while peers completed \
                 %d operations (bound %d)"
                fiber
                (t.completions - s.completions_at_start)
                t.starvation_ops;
          }
      end)
    t.fibers

let on_op_end t ~fiber =
  let s = state_of t fiber in
  if s.in_op then begin
    s.in_op <- false;
    s.own_completions <- s.own_completions + 1;
    t.in_flight <- t.in_flight - 1;
    t.completions <- t.completions + 1;
    t.events_at_last_completion <- t.events;
    t.livelock_reported <- false;
    check_starvation t ~completer:fiber
  end

let on_event t ~fiber =
  t.events <- t.events + 1;
  if
    t.in_flight > 0
    && not t.livelock_reported
    && t.events - t.events_at_last_completion > t.livelock_events
  then begin
    t.livelock_reported <- true;
    add_report t
      {
        kind = Livelock_suspected;
        fiber;
        peer_completions = 0;
        events = t.events;
        detail =
          Printf.sprintf
            "%d scheduling events since the last completion with %d \
             operation(s) in flight (bound %d)"
            (t.events - t.events_at_last_completion)
            t.in_flight t.livelock_events;
      }
  end

let on_fiber_exit t ~fiber =
  (* A fiber that finishes mid-operation (the workload loop never does;
     the suspension adversary can) stops counting as in flight so a
     finished run does not read as livelocked. Its starvation watermark
     has already been checked at each peer completion. *)
  let s = state_of t fiber in
  if s.in_op then begin
    s.in_op <- false;
    t.in_flight <- t.in_flight - 1
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)

let reports t = List.rev t.reports
let dropped t = t.dropped
let completions t = t.completions
let events t = t.events

let kind_to_string = function
  | Starvation -> "starvation"
  | Livelock_suspected -> "livelock-suspected"

let pp_report ppf r =
  Format.fprintf ppf "[%s] fiber %d: %s" (kind_to_string r.kind) r.fiber
    r.detail

let report_to_string r = Format.asprintf "%a" pp_report r

(* ------------------------------------------------------------------ *)
(* Global installation (same pattern as {!Race_detector.active}: the
   exploring scheduler runs one fiber at a time in one domain). *)

let active : t option ref = ref None
let install m = active := Some m
let uninstall () = active := None

let with_monitor m f =
  install m;
  Fun.protect ~finally:uninstall f
