(* Systematic schedule exploration with preemption bounding, in the style
   of CHESS (Musuvathi & Qadeer) and dscheck: replay a scenario under
   every schedule that deviates from a fair round-robin baseline by at
   most [max_preemptions] forced context switches, each placed immediately
   before an atomic access.

   Soundness for *blocking* algorithms (SEC spins on freezers and
   combiners) comes from the fair baseline: between forced preemptions,
   fibers rotate round-robin every [quantum] accesses, so a spinning fiber
   always lets the fiber it waits for run. The bug-finding power comes
   from the forced preemptions — empirically most concurrency bugs need
   only one or two (the CHESS observation).

   Schedules are enumerated by depth-first search over placement lists
   [(step, fiber); ...] with strictly increasing steps; each run replays
   the scenario from scratch (the generator re-creates all state and
   per-fiber RNGs are reseeded, so replay is deterministic).

   Two placement-harvesting strategies exist (see {!strategy}):

   - [`Exhaustive] (the historical behaviour) branches at every step at
     which another fiber was runnable;
   - [`Dpor] harvests dynamic-partial-order-reduction style (Flanagan &
     Godefroid 2005, as in dejafu): a branch is added only at steps whose
     access *conflicts* with a later access of another fiber (same
     location, at least one write). Preemptions between independent
     accesses commute into an already-explored schedule, so pruning them
     visits the same behaviours in far fewer runs. With lookahead limited
     to the observed trace this is an approximation of source-DPOR: it
     prunes aggressively and keeps every conflict-driven branch, which in
     practice preserves the bug-finding power of the bounded search.

   This is the one scheduler that hosts the analyses; {!Sim} is the cost
   model only. Optionally every run is monitored by a
   {!Sec_analysis.Race_detector} (a schedule that exhibits a write-write
   race fails with the offending source locations even if the
   scenario's own check passes) or a {!Sec_analysis.Reclaim_checker};
   an installed {!Sec_analysis.Progress_monitor} is fed one event per
   live access; and the suspension adversary ({!suspended_run},
   {!classify}) freezes one fiber to decide lock-freedom.

   Like {!Sim}, the engine installs a {!Sim_effects.dispatch} record for
   the whole run and performs a private effect only when control must
   move to another fiber; there is no cost model here — only
   interleavings matter. *)

type placement = { step : int; fiber : int }

type strategy = [ `Exhaustive | `Dpor ]

type violation_kind =
  | Check_failed  (** the scenario's final check returned false *)
  | Fiber_raised of string  (** a fiber or the check raised *)
  | Livelock  (** a schedule exceeded the per-run step budget *)
  | Race_detected of string  (** the race detector flagged this schedule *)
  | Reclamation_violation of string
      (** the reclamation checker flagged this schedule *)

type violation = {
  kind : violation_kind;
  schedule : placement list;  (** forced preemptions reproducing it *)
  explored : int;  (** schedules run up to and including the violation *)
}

type result =
  | Passed of { schedules : int; truncated : bool }
  | Failed of violation

exception Unsupported of string

let pp_result ppf = function
  | Passed { schedules; truncated } ->
      Format.fprintf ppf "passed (%d schedules%s)" schedules
        (if truncated then ", truncated" else "")
  | Failed { kind; schedule; explored } ->
      let kind_str =
        match kind with
        | Check_failed -> "check failed"
        | Fiber_raised msg -> "raised: " ^ msg
        | Livelock -> "livelock"
        | Race_detected msg -> "race: " ^ msg
        | Reclamation_violation msg -> "reclamation: " ^ msg
      in
      Format.fprintf ppf "FAILED after %d schedules (%s) at preemptions [%s]"
        explored kind_str
        (String.concat "; "
           (List.map
              (fun p -> Printf.sprintf "step %d -> fiber %d" p.step p.fiber)
              schedule))

(* A violation's schedule as a compact string ("step:fiber;step:fiber"),
   so tests and bug reports can pin a reproduction. *)
let schedule_to_string schedule =
  String.concat ";"
    (List.map (fun p -> Printf.sprintf "%d:%d" p.step p.fiber) schedule)

let schedule_of_string s =
  if String.trim s = "" then []
  else
    String.split_on_char ';' s
    |> List.map (fun item ->
           match String.split_on_char ':' (String.trim item) with
           | [ step; fiber ] -> (
               match (int_of_string_opt step, int_of_string_opt fiber) with
               | Some step, Some fiber -> { step; fiber }
               | _ -> invalid_arg ("Explore.schedule_of_string: " ^ item))
           | _ -> invalid_arg ("Explore.schedule_of_string: " ^ item))

(* ------------------------------------------------------------------ *)
(* One schedule                                                         *)

type fiber_state =
  | Start of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation
  | Done
  | Frozen
      (* parked forever by the suspension adversary ({!classify}): the
         continuation is dropped, modelling a thread descheduled
         mid-operation and never coming back *)

(* Last accesses per location, for [`Dpor] conflict harvesting. *)
type loc_accesses = {
  mutable last_write : (int * int) option; (* fiber, step *)
  reads : (int, int) Hashtbl.t; (* fiber -> step of its last read *)
}

(* Weighted-random scheduling state (PCT-style, see {!random_run}): one
   priority weight per fiber, drawn once per run from the seeded [rng],
   plus a [stay] weight for the currently running fiber. At every live
   access the scheduler samples proportionally to the weights; choosing
   another fiber is recorded as a {!placement} so the run replays through
   the ordinary forced-preemption path. *)
type rand_sched = {
  rng : Sec_prim.Rng.t;
  mutable weights : int array; (* per-fiber, sized lazily at first access *)
  stay : int; (* weight of not deviating from the baseline *)
}

type run_ctx = {
  mutable fibers : fiber_state array;
  mutable rngs : Sec_prim.Rng.t array;
  mutable current : int;
  mutable in_quantum : int;
  quantum : int;
  mutable step : int;
  mutable pending : placement list; (* forced preemptions, ascending *)
  mutable next_loc : int;
  max_steps : int;
  mutable livelocked : bool;
  (* Extension points for the DFS: steps (past the last forced one) at
     which the search should branch, with the alternative fibers. *)
  mutable extensions : (int * int list) list; (* reversed *)
  mutable extension_count : int;
  collect_from : int;
  collecting : bool;
  max_extensions : int;
  mutable extensions_truncated : bool;
  strategy : strategy;
  accesses : (int, loc_accesses) Hashtbl.t; (* loc -> last accesses *)
  branched : (int * int, unit) Hashtbl.t; (* dedup of (step, fiber) *)
  (* [false] during scenario setup and the final check, which run
     sequentially outside any fiber: fiber id -1, [setup_rng], no
     workers, and no scheduling. *)
  mutable in_fiber : bool;
  setup_rng : Sec_prim.Rng.t; (* for primitives outside any fiber *)
  (* Weighted-random scheduling; [recorded] accumulates the deviations
     (reversed) so a failing run serializes to a replayable schedule. *)
  rand : rand_sched option;
  mutable recorded : placement list;
  (* Suspension adversary: freeze [fiber] just before its [n]th access. *)
  suspend : (int * int) option;
  mutable victim_seen : int; (* accesses the victim has reached *)
  mutable suspended : bool; (* the freeze actually happened *)
}

let runnable_others ctx =
  let alts = ref [] in
  Array.iteri
    (fun i st ->
      match st with
      | Done | Frozen -> ()
      | Start _ | Paused _ -> if i <> ctx.current then alts := i :: !alts)
    ctx.fibers;
  !alts

let next_runnable ctx =
  let n = Array.length ctx.fibers in
  let rec scan k =
    if k > n then None
    else
      let i = (ctx.current + k) mod n in
      match ctx.fibers.(i) with
      | Done | Frozen -> scan (k + 1)
      | Start _ | Paused _ -> Some i
  in
  scan 1

let add_extension ctx step fiber =
  if
    step > ctx.collect_from
    && not (Hashtbl.mem ctx.branched (step, fiber))
  then
    if ctx.extension_count < ctx.max_extensions then begin
      Hashtbl.add ctx.branched (step, fiber) ();
      ctx.extensions <- (step, [ fiber ]) :: ctx.extensions;
      ctx.extension_count <- ctx.extension_count + 1
    end
    else ctx.extensions_truncated <- true

(* [`Dpor]: the access (current fiber, loc, kind) about to execute at
   [ctx.step] conflicts with earlier accesses of other fibers to the same
   location (at least one side a write). For the most recent conflicting
   access of each kind, request a branch that runs *this* fiber right
   before it — reversing the order of the conflicting pair. Independent
   accesses harvest nothing: preempting between them commutes into a
   schedule the DFS already covers. *)
let harvest_conflicts ctx ~loc ~kind =
  let f = ctx.current in
  let acc =
    match Hashtbl.find_opt ctx.accesses loc with
    | Some a -> a
    | None ->
        let a = { last_write = None; reads = Hashtbl.create 4 } in
        Hashtbl.add ctx.accesses loc a;
        a
  in
  (match acc.last_write with
  | Some (w, s) when w <> f -> add_extension ctx s f
  | _ -> ());
  (match kind with
  | Cache_model.Read -> ()
  | Cache_model.Write | Cache_model.Rmw ->
      Hashtbl.iter (fun r s -> if r <> f then add_extension ctx s f) acc.reads);
  (* Update the tables with this access. *)
  match kind with
  | Cache_model.Read -> Hashtbl.replace acc.reads f ctx.step
  | Cache_model.Write | Cache_model.Rmw ->
      acc.last_write <- Some (f, ctx.step);
      (* Reads before this write are now ordered behind it for future
         conflicts through [last_write]; drop them to keep pairs fresh. *)
      Hashtbl.reset acc.reads

(* Scheduling effects private to this engine, performed by the installed
   dispatch only when control must move: [Switch f] parks the performer
   and runs fiber [f]; [Freeze] drops the performer (suspension
   adversary); [Abandon] drops it and unwinds to the driver, leaving the
   other fibers paused, once the step budget is spent. *)
type _ Effect.t +=
  | Switch : int -> unit Effect.t
  | Freeze : unit Effect.t
  | Abandon : unit Effect.t

(* Tail-call discipline as in {!Sim}: every branch ends in [continue],
   [run_fiber], [dispatch] or a plain return unwinding to the driver. *)
let rec dispatch ctx fiber =
  ctx.current <- fiber;
  ctx.in_quantum <- ctx.quantum;
  match ctx.fibers.(fiber) with
  | Done | Frozen -> assert false
  | Paused k -> Effect.Deep.continue k ()
  | Start body -> run_fiber ctx fiber body

and rotate ctx =
  match next_runnable ctx with None -> () | Some f -> dispatch ctx f

and run_fiber ctx fiber body =
  let open Effect.Deep in
  match_with body ()
    {
      retc =
        (fun () ->
          ctx.fibers.(fiber) <- Done;
          rotate ctx);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Switch f ->
              Some
                (fun (k : (a, _) continuation) ->
                  ctx.fibers.(ctx.current) <- Paused k;
                  dispatch ctx f)
          | Freeze ->
              Some
                (fun _ ->
                  ctx.fibers.(ctx.current) <- Frozen;
                  rotate ctx)
          | Abandon -> Some (fun _ -> ())
          | _ -> None);
    }

(* Sample the weighted-random scheduler, if installed: [None] keeps the
   fair baseline for this access, [Some f] deviates to fiber [f]. The
   baseline still rotates every [quantum] accesses in between, so even a
   fiber whose weight the sampler never favours keeps running — random
   exploration stays sound for blocking algorithms. *)
let random_choice ctx =
  match ctx.rand with
  | None -> None
  | Some r -> (
      match runnable_others ctx with
      | [] -> None
      | alts ->
          if Array.length r.weights = 0 then
            r.weights <-
              Array.init (Array.length ctx.fibers) (fun _ ->
                  1 lsl Sec_prim.Rng.int r.rng 4);
          let total =
            List.fold_left (fun acc f -> acc + r.weights.(f)) r.stay alts
          in
          let d = Sec_prim.Rng.int r.rng total in
          if d < r.stay then None
          else
            let rec pick d = function
              | [] -> None
              | f :: rest ->
                  if d < r.weights.(f) then Some f
                  else pick (d - r.weights.(f)) rest
            in
            pick (d - r.stay) alts)

(* A live (non-frozen) access by the current fiber: account the step,
   then let it execute, switch fibers, or abandon the run. *)
let at_live_access ctx ~loc ~kind =
  (match !Sec_analysis.Progress_monitor.active with
  | Some m -> Sec_analysis.Progress_monitor.on_event m ~fiber:ctx.current
  | None -> ());
  ctx.step <- ctx.step + 1;
  if ctx.step > ctx.max_steps then begin
    ctx.livelocked <- true;
    Effect.perform Abandon
  end
  else begin
    let forced =
      match ctx.pending with
      | { step; fiber } :: rest when step = ctx.step ->
          ctx.pending <- rest;
          Some fiber
      | _ -> None
    in
    (* Record branching opportunities for the DFS — only past the last
       forced preemption, so every schedule is generated exactly once. *)
    (if ctx.collecting then
       match ctx.strategy with
       | `Dpor ->
           (* Conflict harvesting must see every access (the tables feed
              later conflicts), including forced ones. *)
           harvest_conflicts ctx ~loc ~kind
       | `Exhaustive ->
           if forced = None && ctx.step > ctx.collect_from then (
             match runnable_others ctx with
             | [] -> ()
             | alts ->
                 if ctx.extension_count < ctx.max_extensions then begin
                   ctx.extensions <- (ctx.step, alts) :: ctx.extensions;
                   ctx.extension_count <-
                     ctx.extension_count + List.length alts
                 end
                 else ctx.extensions_truncated <- true));
    match forced with
    | Some f -> (
        match ctx.fibers.(f) with
        | Done | Frozen ->
            (* Replay drift should not happen (runs are deterministic);
               degrade to continuing rather than crashing. *)
            ()
        | Start _ | Paused _ -> Effect.perform (Switch f))
    | None -> (
        match random_choice ctx with
        | Some f ->
            (* A sampled deviation: record it so the run replays as a
               plain forced-preemption schedule, then switch. *)
            ctx.recorded <- { step = ctx.step; fiber = f } :: ctx.recorded;
            Effect.perform (Switch f)
        | None ->
        if ctx.in_quantum <= 1 then begin
          (* Baseline fairness: rotate round-robin. *)
          match next_runnable ctx with
          | None -> ctx.in_quantum <- ctx.quantum
          | Some f -> Effect.perform (Switch f)
        end
        else ctx.in_quantum <- ctx.in_quantum - 1)
  end

(* The heart: a scheduling point just before an atomic access, run on
   the accessing fiber's own stack. Returning lets the access execute;
   any other outcome performs one of the private effects. *)
let at_access ctx ~loc ~kind =
  let freeze =
    match ctx.suspend with
    | Some (victim, after) when ctx.current = victim && not ctx.suspended ->
        ctx.victim_seen <- ctx.victim_seen + 1;
        ctx.victim_seen = after
    | _ -> false
  in
  if freeze then begin
    (* Suspension adversary: park the victim forever, just before the
       access executes. The frozen access is never accounted as a step —
       it never happens. *)
    ctx.suspended <- true;
    Effect.perform Freeze
  end
  else at_live_access ctx ~loc ~kind

(* An access outside the fibers (scenario setup, final check): no
   scheduling (there is nothing to interleave with), but the virtual
   clock still ticks: the final check records drain events through
   {!Sec_spec.History}, and those need distinct timestamps so the
   linearizability checker sees them as sequential. The step budget
   applies here too (generously): a check that operates on the structure
   (e.g. a draining pop) can inherit a stalled protocol state — a
   combiner lock held by a crash-frozen fiber — and would otherwise spin
   the setup context forever. *)
let at_setup_access ctx =
  ctx.step <- ctx.step + 1;
  if ctx.step > 4 * ctx.max_steps then
    failwith "Explore: setup/check exceeded the step budget"

let rng ctx = if ctx.in_fiber then ctx.rngs.(ctx.current) else ctx.setup_rng

let dispatch_of ctx =
  {
    Sim_effects.d_new_loc =
      (fun () ->
        let id = ctx.next_loc in
        ctx.next_loc <- id + 1;
        Cache_model.line_of_id id);
    d_access =
      (fun line kind ->
        if ctx.in_fiber then
          at_access ctx ~loc:(Cache_model.line_id line) ~kind
        else at_setup_access ctx);
    d_relax = ignore;
    d_yield =
      (fun () ->
        (* A yield rotates immediately — that is its meaning. *)
        if ctx.in_fiber then
          match next_runnable ctx with
          | None -> ()
          | Some f -> Effect.perform (Switch f));
    d_now = (fun () -> Int64.of_int ctx.step);
    d_now_int = (fun () -> ctx.step);
    d_rand_int = (fun n -> Sec_prim.Rng.int (rng ctx) n);
    d_rand_bits = (fun () -> Sec_prim.Rng.bits (rng ctx));
    d_spawn =
      (fun _ -> raise (Unsupported "Sim.spawn inside an Explore scenario"));
    d_await_all =
      (fun () ->
        raise (Unsupported "Sim.await_all inside an Explore scenario"));
    d_fiber_id = (fun () -> if ctx.in_fiber then ctx.current else -1);
    d_num_workers =
      (fun () -> if ctx.in_fiber then Array.length ctx.rngs else 0);
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

type one_outcome =
  | Ok_run of bool (* final check result *)
  | Raised of string
  | Livelocked

(* Run [f] — a whole scenario run: setup, fibers, final check — with
   [ctx]'s dispatch installed, restoring the caller's on every exit.
   Shared by {!run_one} and the suspension driver {!run_frozen}. *)
let with_dispatch ctx f =
  let saved = Sim_effects.install (dispatch_of ctx) in
  Fun.protect ~finally:(fun () -> Sim_effects.restore saved) f

(* Build the scenario's state in the setup context and load its fibers;
   returns the final check. *)
let load ctx scenario =
  let fibers, check = scenario () in
  if fibers = [] then raise (Unsupported "scenario with no fibers");
  ctx.fibers <- Array.of_list (List.map (fun b -> Start b) fibers);
  ctx.rngs <-
    Array.init (Array.length ctx.fibers) (fun i ->
        Sec_prim.Rng.create (Int64.of_int (1_000 + i)));
  check

(* Run the loaded fibers from fiber 0 until none is runnable or the step
   budget abandons them. *)
let run_fibers ctx =
  ctx.in_fiber <- true;
  dispatch ctx 0;
  ctx.in_fiber <- false

let run_one ctx scenario =
  let body () =
    let check = load ctx scenario in
    (* Setup-to-fiber happens-before edges for the race detector: the
       scenario's state was built by the setup context (fiber -1). *)
    (match !Sec_analysis.Race_detector.active with
    | Some d ->
        Array.iteri
          (fun i _ -> Sec_analysis.Race_detector.on_spawn d ~parent:(-1) ~child:i)
          ctx.fibers
    | None -> ());
    run_fibers ctx;
    (match !Sec_analysis.Race_detector.active with
    | Some d ->
        Array.iteri
          (fun i _ -> Sec_analysis.Race_detector.on_exit d ~fiber:i)
          ctx.fibers;
        Sec_analysis.Race_detector.on_join d ~fiber:(-1)
    | None -> ());
    (* Guard-leak detection at fiber completion — except on livelock,
       where abandoned fibers legitimately still hold their guards. *)
    if ctx.livelocked then Livelocked
    else begin
      (match !Sec_analysis.Reclaim_checker.active with
      | Some c ->
          Array.iteri
            (fun i _ -> Sec_analysis.Reclaim_checker.on_fiber_exit c ~fiber:i)
            ctx.fibers
      | None -> ());
      Ok_run (check ())
    end
  in
  try with_dispatch ctx body with e -> Raised (Printexc.to_string e)

let make_ctx ?suspend ?rand ~strategy ~quantum ~max_steps ~placements
    ~collecting ~max_extensions () =
  let collect_from =
    List.fold_left (fun acc (p : placement) -> Int.max acc p.step) 0 placements
  in
  {
    fibers = [||];
    rngs = [||];
    current = 0;
    in_quantum = quantum;
    quantum;
    step = 0;
    pending = placements;
    next_loc = 0;
    max_steps;
    livelocked = false;
    extensions = [];
    extension_count = 0;
    collect_from;
    collecting;
    max_extensions;
    extensions_truncated = false;
    strategy;
    accesses = Hashtbl.create 64;
    branched = Hashtbl.create 64;
    in_fiber = false;
    setup_rng = Sec_prim.Rng.create 99L;
    rand;
    recorded = [];
    suspend;
    victim_seen = 0;
    suspended = false;
  }

exception Stop of violation

(* Run one schedule under the optional race/reclamation monitors —
   shared by {!for_all} and {!for_random}. *)
let monitored_run ~detect_races ~check_reclamation ctx scenario =
  let run_monitored () =
    if detect_races then begin
      let d = Sec_analysis.Race_detector.create () in
      let o =
        Sec_analysis.Race_detector.with_detector d (fun () ->
            run_one ctx scenario)
      in
      (o, Sec_analysis.Race_detector.races d)
    end
    else (run_one ctx scenario, [])
  in
  if check_reclamation then begin
    let c = Sec_analysis.Reclaim_checker.create () in
    let r = Sec_analysis.Reclaim_checker.with_checker c run_monitored in
    (r, Sec_analysis.Reclaim_checker.reports c)
  end
  else (run_monitored (), [])

(* Fold a monitored run's three failure channels into one verdict, most
   specific first (a race explains a failed check better than the check
   does). *)
let violation_kind_of ((outcome, races), lifetime_bugs) =
  match races with
  | hz :: _ ->
      Some (Race_detected (Sec_analysis.Race_detector.hazard_to_string hz))
  | [] -> (
      match lifetime_bugs with
      | r :: _ ->
          Some
            (Reclamation_violation
               (Sec_analysis.Reclaim_checker.report_to_string r))
      | [] -> (
          match outcome with
          | Raised msg -> Some (Fiber_raised msg)
          | Livelocked -> Some Livelock
          | Ok_run false -> Some Check_failed
          | Ok_run true -> None))

let for_all ?(max_preemptions = 1) ?(quantum = 8) ?(max_schedules = 20_000)
    ?(max_steps = 50_000) ?(strategy = `Exhaustive) ?(detect_races = false)
    ?(check_reclamation = false) scenario =
  let explored = ref 0 in
  let truncated = ref false in
  let rec dfs placements =
    if !explored >= max_schedules then truncated := true
    else begin
      incr explored;
      let collecting = List.length placements < max_preemptions in
      let ctx =
        make_ctx ~strategy ~quantum ~max_steps ~placements ~collecting
          ~max_extensions:4_096 ()
      in
      let monitored = monitored_run ~detect_races ~check_reclamation ctx scenario in
      (match violation_kind_of monitored with
      | Some kind ->
          raise (Stop { kind; schedule = placements; explored = !explored })
      | None -> ());
      if ctx.extensions_truncated then truncated := true;
      List.iter
        (fun (step, alts) ->
          List.iter
            (fun fiber -> dfs (placements @ [ { step; fiber } ]))
            (List.rev alts))
        (List.rev ctx.extensions)
    end
  in
  match dfs [] with
  | () -> Passed { schedules = !explored; truncated = !truncated }
  | exception Stop v -> Failed v

(* Replay a specific schedule (e.g. a reported violation) once and return
   the check's verdict — for debugging a failure interactively. With
   [detector] and/or [reclaim_checker], the run feeds them (install is
   handled here). *)
let replay ?(quantum = 8) ?(max_steps = 50_000) ?detector ?reclaim_checker
    ~schedule scenario =
  let ctx =
    make_ctx ~strategy:`Exhaustive ~quantum ~max_steps ~placements:schedule
      ~collecting:false ~max_extensions:0 ()
  in
  let go () = run_one ctx scenario in
  let go =
    match reclaim_checker with
    | Some c -> fun () -> Sec_analysis.Reclaim_checker.with_checker c go
    | None -> go
  in
  match detector with
  | Some d -> Sec_analysis.Race_detector.with_detector d go
  | None -> go ()

(* ------------------------------------------------------------------ *)
(* Weighted-random exploration (PCT-style)                              *)

let random_run ?(quantum = 8) ?(max_steps = 50_000) ?(stay_weight = 6) ~seed
    scenario =
  let rand =
    { rng = Sec_prim.Rng.create seed; weights = [||]; stay = stay_weight }
  in
  let ctx =
    make_ctx ~rand ~strategy:`Exhaustive ~quantum ~max_steps ~placements:[]
      ~collecting:false ~max_extensions:0 ()
  in
  let outcome = run_one ctx scenario in
  (outcome, List.rev ctx.recorded)

let for_random ?(quantum = 8) ?(max_steps = 50_000) ?(runs = 64)
    ?(stay_weight = 6) ?(detect_races = false) ?(check_reclamation = false)
    ~seed scenario =
  let master = Sec_prim.Rng.create seed in
  let failure = ref None in
  let k = ref 0 in
  while Option.is_none !failure && !k < runs do
    incr k;
    (* Each run gets an independent generator split off the master, so
       the whole sweep is a pure function of [seed]. *)
    let rand =
      { rng = Sec_prim.Rng.split master; weights = [||]; stay = stay_weight }
    in
    let ctx =
      make_ctx ~rand ~strategy:`Exhaustive ~quantum ~max_steps ~placements:[]
        ~collecting:false ~max_extensions:0 ()
    in
    let monitored =
      monitored_run ~detect_races ~check_reclamation ctx scenario
    in
    match violation_kind_of monitored with
    | Some kind ->
        failure :=
          Some { kind; schedule = List.rev ctx.recorded; explored = !k }
    | None -> ()
  done;
  match !failure with
  | Some v -> Failed v
  | None -> Passed { schedules = runs; truncated = false }

(* ------------------------------------------------------------------ *)
(* Counterexample shrinking                                             *)

(* Delta debugging (Zeller & Hildebrandt's ddmin) over the placement
   list: repeatedly try dropping chunks of forced preemptions, keeping
   any smaller schedule for which [still_fails] holds, until the
   schedule is 1-minimal at chunk granularity 1. [still_fails] replays
   the candidate — schedules are deterministic, so the predicate is
   stable and the loop terminates (each accepted candidate is strictly
   shorter; otherwise the granularity doubles until it exceeds the
   length). *)
let shrink_schedule ~still_fails schedule =
  if schedule = [] then []
  else if still_fails [] then []
  else
    let rec minimize current n =
      let len = List.length current in
      if len <= 1 then current
      else begin
        let n = Int.min n len in
        let chunk = (len + n - 1) / n in
        let rec try_complements i =
          if i * chunk >= len then None
          else
            let lo = i * chunk and hi = Int.min len ((i + 1) * chunk) in
            let candidate =
              List.filteri (fun j _ -> j < lo || j >= hi) current
            in
            if still_fails candidate then Some candidate
            else try_complements (i + 1)
        in
        match try_complements 0 with
        | Some candidate -> minimize candidate (Int.max 2 (n - 1))
        | None ->
            if chunk <= 1 then current else minimize current (Int.min len (2 * n))
      end
    in
    minimize schedule 2

(* ------------------------------------------------------------------ *)
(* Adversarial suspension: the mechanical lock-freedom check             *)

type progress_class = Blocking | Lock_free

type suspension_outcome =
  | Survived of { engaged : bool }
      (* every non-victim fiber completed; [engaged] is false when the
         victim finished before reaching the suspension point *)
  | Blocked (* the step budget ran out: the peers spun forever *)
  | Crashed of string

(* One run under the suspension adversary. By default the scenario's
   final check is not consulted: with a fiber parked mid-operation the
   shared state is legitimately half-updated (e.g. a value pushed but not
   yet popped), so the only question is whether the *other* fibers ran to
   completion. With [consult], the check *is* evaluated when the peers
   complete — for crash-aware refinement properties whose check already
   accounts for the victim's in-flight operation ({!crashed_run}).
   Race/reclamation hooks are not fed either way — a frozen fiber holding
   a guard is the adversary's doing, not a bug. *)
let run_frozen ?(consult = false) ctx scenario =
  let body () =
    let check = load ctx scenario in
    run_fibers ctx;
    if ctx.livelocked then (Blocked, None)
    else
      (* The driver unwound with nothing runnable: every fiber is [Done]
         except the (at most one) [Frozen] victim. *)
      let engaged = ctx.suspended in
      (Survived { engaged }, if consult then Some (check ()) else None)
  in
  try with_dispatch ctx body with e -> (Crashed (Printexc.to_string e), None)

let suspended_run ?(quantum = 8) ?(max_steps = 20_000) ~victim ~after scenario
    =
  let ctx =
    make_ctx ~suspend:(victim, after) ~strategy:`Exhaustive ~quantum
      ~max_steps ~placements:[] ~collecting:false ~max_extensions:0 ()
  in
  fst (run_frozen ctx scenario)

let crashed_run ?(quantum = 8) ?(max_steps = 20_000) ~victim ~after scenario =
  let ctx =
    make_ctx ~suspend:(victim, after) ~strategy:`Exhaustive ~quantum
      ~max_steps ~placements:[] ~collecting:false ~max_extensions:0 ()
  in
  run_frozen ~consult:true ctx scenario

type classification = {
  verdict : progress_class;
  witness : (int * int) option;
      (* (victim, access index) whose suspension blocked the peers *)
  runs : int; (* suspension runs performed *)
}

(* Sweep every single-fiber suspension point: for each victim fiber,
   freeze it just before its 1st, 2nd, ... access (under the fair
   round-robin baseline, so the schedule up to the freeze is
   deterministic) and ask whether the remaining fibers still complete.

   - Any run that exhausts the step budget is a blocking witness: some
     peer waits on a write the frozen fiber will never perform (a held
     lock, an unfrozen batch, an unserved combiner slot). Verdict
     [Blocking], with the witness point for reproduction via
     {!suspended_run}.
   - If for every victim the sweep runs off the end of the victim's own
     execution (the victim completes before reaching the point — no
     suspension point remains) with all peers completing every time, no
     single suspension can stop the system: verdict [Lock_free].

   This is lock-freedom in the operational, crash-failure sense the
   progress literature uses (Herlihy & Shavit): the system as a whole
   completes operations even if any single thread stops forever. It is a
   *bounded* check — one victim at a time, fair baseline, [max_suspensions]
   cap per victim — so [Lock_free] is evidence over the swept space, while
   [Blocking] verdicts are definitive witnesses. *)
let classify ?(quantum = 8) ?(max_steps = 20_000) ?(max_suspensions = 2_000)
    ~fibers scenario =
  let runs = ref 0 in
  let blocked = ref None in
  (try
     for victim = 0 to fibers - 1 do
       let after = ref 1 in
       let sweeping = ref true in
       while !sweeping do
         if !after > max_suspensions then sweeping := false
         else begin
           incr runs;
           match suspended_run ~quantum ~max_steps ~victim ~after:!after
                   scenario
           with
           | Survived { engaged = true } -> incr after
           | Survived { engaged = false } ->
               (* the victim completed before its [!after]th access: this
                  victim has no further suspension points *)
               sweeping := false
           | Blocked ->
               blocked := Some (victim, !after);
               raise Stdlib.Exit
           | Crashed msg ->
               failwith
                 (Printf.sprintf
                    "Explore.classify: raised under suspension of fiber %d \
                     at access %d: %s"
                    victim !after msg)
         end
       done
     done
   with Stdlib.Exit -> ());
  match !blocked with
  | Some w -> { verdict = Blocking; witness = Some w; runs = !runs }
  | None -> { verdict = Lock_free; witness = None; runs = !runs }

let progress_class_to_string = function
  | Blocking -> "blocking"
  | Lock_free -> "lock_free"
