(* Refinement-property checking — the fourth analysis prong (see
   docs/ANALYSIS.md, "Refinement prong", and refine.mli for the model).

   A property compiles to an {!Explore} scenario: each workload thread
   becomes a fiber driving the structure through the
   {!History.Instrument} recorder, timestamped by {!Seq_clock} so one
   fiber's back-to-back operations stay ordered, and the final check
   drains what survived (through recorded pops, so the drain is part of
   the history) and hands the merged event list to the declared spec's
   checker — {!Lin_check} for [Stack_sem], the bag matcher below for [Pool_sem].
   Prefill goes through the *raw* stack before the fibers start and is
   accounted for via the checkers' [~init], so it adds no concurrent
   events.

   Counterexamples shrink in two alternating phases: ddmin over the
   schedule's forced preemptions ({!Explore.shrink_schedule}), then
   greedy removal of workload operations and prefill values (replaying
   the surviving schedule after each removal), under a global replay
   budget. Violation identity across replays is the coarse *category*
   (check-failed / raised / livelock), not the exact message — a shrunk
   run may fail at a different line of the same bug. *)

module Explore = Sec_sim.Explore
module History = Sec_spec.History
module Lin_check = Sec_spec.Lin_check
module Registry = Sec_harness.Registry
module SP = Sec_sim.Sim.Prim

type op = Push of int | Pop | Peek

type workload = {
  prefill : int list;
  threads : op list list;
  max_threads : int option;
}

type adversary =
  | No_adversary
  | Cancel of { victim : int; keep_ops : int }
  | Crash_sweep of { max_points : int }

type strategy =
  | Dpor of { max_preemptions : int; max_schedules : int }
  | Weighted of { seed : int64; runs : int; stay_weight : int }

type property = {
  pname : string;
  refines : Registry.semantics;
  workload : workload;
  adversary : adversary;
}

type witness = {
  w_structure : string;
  w_property : string;
  w_strategy : string;
  w_kind : string;
  w_schedule : Explore.placement list;
  w_original_len : int;
  w_workload : workload;
  w_replayed : bool;
}

type verdict =
  | Refines of { schedules : int; truncated : bool }
  | Violates of witness
  | Inconclusive of string

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                      *)

let op_to_string = function
  | Push v -> Printf.sprintf "push %d" v
  | Pop -> "pop"
  | Peek -> "peek"

let workload_to_string w =
  Printf.sprintf "prefill=[%s]%s"
    (String.concat ";" (List.map string_of_int w.prefill))
    (String.concat ""
       (List.mapi
          (fun i ops ->
            Printf.sprintf " t%d=[%s]" i
              (String.concat "," (List.map op_to_string ops)))
          w.threads))

let witness_to_string wt =
  String.concat "\n"
    [
      "structure: " ^ wt.w_structure;
      "property:  " ^ wt.w_property;
      "strategy:  " ^ wt.w_strategy;
      "violation: " ^ wt.w_kind;
      Printf.sprintf "schedule:  [%s]  (%d -> %d placements after shrinking)"
        (Explore.schedule_to_string wt.w_schedule)
        wt.w_original_len
        (List.length wt.w_schedule);
      "workload:  " ^ workload_to_string wt.w_workload;
      Printf.sprintf "replayed:  %b" wt.w_replayed;
    ]

let verdict_to_string = function
  | Refines { schedules; truncated } ->
      Printf.sprintf "refines (%d schedules%s)" schedules
        (if truncated then ", truncated" else "")
  | Violates w ->
      Printf.sprintf "VIOLATES (%s, %d-placement witness)" w.w_kind
        (List.length w.w_schedule)
  | Inconclusive msg -> "inconclusive: " ^ msg

(* ------------------------------------------------------------------ *)
(* The bag (pool) spec checker                                          *)

(* Order-relaxed refinement: every pop that returned a value must have a
   distinct producer — a prefill value, an [optional] producer (under
   the crash adversary: a push the frozen victim may or may not have
   completed), or a recorded push whose invocation does not follow the
   pop's response. Peeked values need a producer but consume nothing.
   [Pop None] is always allowed: a pool's emptiness is not synchronised
   across shards, which is exactly the relaxation [Pool_sem] names.
   Matching is per value, earliest producer to earliest consumer — with
   the only constraint being producer.inv <= consumer.resp, the greedy
   pairing is optimal. *)
let set_check ~init ~optional events =
  let add tbl v x =
    match Hashtbl.find_opt tbl v with
    | Some l -> l := x :: !l
    | None -> Hashtbl.add tbl v (ref [ x ])
  in
  let producers : (int, int64 list ref) Hashtbl.t = Hashtbl.create 16 in
  let consumers : (int, int64 list ref) Hashtbl.t = Hashtbl.create 16 in
  let peeked : (int, int64 list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun v -> add producers v Int64.min_int) init;
  List.iter (fun v -> add producers v Int64.min_int) optional;
  List.iter
    (fun (e : int History.event) ->
      match e.History.op with
      | History.Push v -> add producers v e.inv
      | History.Pop (Some v) -> add consumers v e.resp
      | History.Peek (Some v) -> add peeked v e.resp
      | History.Pop None | History.Peek None -> ())
    events;
  let ok = ref true in
  Hashtbl.iter
    (fun v resps ->
      let prods =
        match Hashtbl.find_opt producers v with
        | Some l -> List.sort Int64.compare !l
        | None -> []
      in
      let rec matchup prods resps =
        match resps with
        | [] -> ()
        | r :: rest -> (
            match prods with
            | p :: prest when Int64.compare p r <= 0 -> matchup prest rest
            | _ -> ok := false)
      in
      matchup prods (List.sort Int64.compare !resps))
    consumers;
  Hashtbl.iter
    (fun v resps ->
      let prods =
        match Hashtbl.find_opt producers v with Some l -> !l | None -> []
      in
      List.iter
        (fun r ->
          if not (List.exists (fun p -> Int64.compare p r <= 0) prods) then
            ok := false)
        !resps)
    peeked;
  !ok

(* ------------------------------------------------------------------ *)
(* Compiling a workload to an Explore scenario                          *)

let pushes_of ops = List.filter_map (function Push v -> Some v | _ -> None) ops

let scenario_of ~maker ~refines ~gave_up ?crash_victim w () =
  let module F = (val maker : Registry.MAKER) in
  let module S = F (SP) in
  let module R = History.Instrument (Seq_clock) (S) in
  Seq_clock.reset ();
  let nthreads = List.length w.threads in
  let max_threads =
    match w.max_threads with Some m -> m | None -> Int.max 1 nthreads
  in
  (* The recorder is sized for the fiber count, the stack for the
     requested capacity — they differ in over-subscription workloads
     (more fibers than [max_threads]), which some properties use to
     drive the capacity-excluded retry paths. *)
  let r =
    {
      R.stack = S.create ~max_threads ();
      history = History.create ~max_threads:(Int.max 1 nthreads);
    }
  in
  List.iter (fun v -> S.push r.R.stack ~tid:0 v) (List.rev w.prefill);
  let bodies =
    List.mapi
      (fun i ops () ->
        List.iter
          (function
            | Push v -> R.push r ~tid:i v
            | Pop -> ignore (R.pop r ~tid:i)
            | Peek -> ignore (R.peek r ~tid:i))
          ops)
      w.threads
  in
  let drain_bound =
    List.length w.prefill + List.length (List.concat_map pushes_of w.threads) + 2
  in
  let check () =
    (* Drain through *recorded* pops: leftover contents become part of
       the checked history. The drain is bounded — a duplication bug
       could otherwise keep a pop returning values forever, and the spec
       checker convicts the duplicate regardless of where the drain
       stops. *)
    let rec drain k =
      if k > 0 then
        match R.pop r ~tid:0 with Some _ -> drain (k - 1) | None -> ()
    in
    drain drain_bound;
    let events = History.events r.R.history in
    match crash_victim with
    | Some victim ->
        (* Crash-aware relaxation (even for [Stack_sem]): the frozen
           victim's pushes may or may not have landed, so they are
           optional producers; a value its frozen pop consumed simply
           never reappears, which the bag matcher already tolerates. *)
        let optional =
          match List.nth_opt w.threads victim with
          | None -> []
          | Some ops -> pushes_of ops
        in
        set_check ~init:w.prefill ~optional events
    | None -> (
        match refines with
        | Registry.Pool_sem -> set_check ~init:w.prefill ~optional:[] events
        | Registry.Stack_sem -> (
            match Lin_check.check ~init:w.prefill events with
            | Lin_check.Linearizable -> true
            | Lin_check.Not_linearizable -> false
            | Lin_check.Gave_up ->
                gave_up := true;
                true))
  in
  (bodies, check)

(* ------------------------------------------------------------------ *)
(* Violation identity and shrinking                                     *)

let violation_category : Explore.violation_kind -> string = function
  | Explore.Check_failed -> "check-failed"
  | Explore.Fiber_raised _ -> "raised"
  | Explore.Livelock -> "livelock"
  | Explore.Race_detected _ -> "race"
  | Explore.Reclamation_violation _ -> "reclamation"

let outcome_category : Explore.one_outcome -> string option = function
  | Explore.Ok_run true -> None
  | Explore.Ok_run false -> Some "check-failed"
  | Explore.Raised _ -> Some "raised"
  | Explore.Livelocked -> Some "livelock"

let take n l = List.filteri (fun i _ -> i < n) l
let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let apply_cancel adversary w =
  match adversary with
  | Cancel { victim; keep_ops } ->
      {
        w with
        threads =
          List.mapi
            (fun i ops -> if i = victim then take keep_ops ops else ops)
            w.threads;
      }
  | No_adversary | Crash_sweep _ -> w

(* Every single-removal neighbour of a workload: one operation dropped
   from one thread (fiber count is preserved — the schedule's fiber
   indices must stay meaningful), or one prefill value dropped. *)
let workload_candidates w =
  let thread_variants =
    List.concat
      (List.mapi
         (fun i ops ->
           List.mapi
             (fun j _ ->
               {
                 w with
                 threads =
                   List.mapi
                     (fun i' ops' -> if i' = i then drop_nth j ops' else ops')
                     w.threads;
               })
             ops)
         w.threads)
  in
  let prefill_variants =
    List.mapi (fun k _ -> { w with prefill = drop_nth k w.prefill }) w.prefill
  in
  thread_variants @ prefill_variants

(* Shrink a failing (workload, schedule) pair: ddmin the schedule, then
   greedily drop operations (re-ddmin after each success), all under one
   replay budget. The predicate replays deterministically, so accepted
   candidates are genuine reproductions of the same violation
   category. *)
let shrink ~quantum ~max_steps ~maker ~refines ~category workload schedule =
  let budget = ref 400 in
  let still w s =
    !budget > 0
    && begin
         decr budget;
         let gave_up = ref false in
         let o =
           Explore.replay ~quantum ~max_steps ~schedule:s
             (scenario_of ~maker ~refines ~gave_up w)
         in
         match outcome_category o with
         | Some c -> c = category && not !gave_up
         | None -> false
       end
  in
  let sched = Explore.shrink_schedule ~still_fails:(still workload) schedule in
  let rec prune w s =
    if !budget <= 0 then (w, s)
    else
      match List.find_opt (fun w' -> still w' s) (workload_candidates w) with
      | Some w' ->
          let s' = Explore.shrink_schedule ~still_fails:(still w') s in
          prune w' s'
      | None -> (w, s)
  in
  prune workload sched

(* ------------------------------------------------------------------ *)
(* Checking                                                             *)

let strategy_label = function
  | Dpor _ -> "dpor"
  | Weighted { seed; _ } -> Printf.sprintf "weighted:0x%Lx" seed

let setup_budget_crash msg =
  (* The distinguished [Failure] from Explore's setup context: the
     check's drain inherited a stalled protocol state. *)
  let needle = "exceeded the step budget" in
  let n = String.length needle and m = String.length msg in
  let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
  scan 0

(* Crash sweep over the fair baseline, as {!Explore.classify} but
   consulting the (crash-aware) check whenever the peers complete. *)
let check_crash ~quantum ~max_steps entry prop ~max_points =
  let maker = entry.Registry.maker in
  let w = prop.workload in
  let n = List.length w.threads in
  let runs = ref 0 in
  let bad = ref None in
  (try
     for victim = 0 to n - 1 do
       let after = ref 1 in
       let sweeping = ref true in
       while !sweeping do
         if !after > max_points then sweeping := false
         else begin
           incr runs;
           let gave_up = ref false in
           let scenario =
             scenario_of ~maker ~refines:prop.refines ~gave_up
               ~crash_victim:victim w
           in
           let fail kind =
             bad := Some (victim, !after, kind);
             raise Stdlib.Exit
           in
           let consult verdict =
             match verdict with
             | Some false when not !gave_up -> fail "check-failed"
             | _ -> ()
           in
           match
             Explore.crashed_run ~quantum ~max_steps ~victim ~after:!after
               scenario
           with
           | Explore.Survived { engaged = false }, verdict ->
               (* The victim completed before the point: no further
                  suspension points on this victim. *)
               consult verdict;
               sweeping := false
           | Explore.Survived { engaged = true }, verdict ->
               consult verdict;
               incr after
           | Explore.Blocked, _ ->
               (* Peers stalled on the frozen victim — the definition of
                  a blocking protocol; a violation only for entries
                  declared lock-free (and those are test_progress's
                  business: report it here too, cheaply). *)
               if entry.Registry.progress = Registry.Blocking then incr after
               else fail "crash-blocked"
           | Explore.Crashed msg, _ ->
               if
                 setup_budget_crash msg
                 && entry.Registry.progress = Registry.Blocking
               then
                 (* The post-crash drain stalled on a held combiner/lock:
                    the blocking analogue of [Blocked], reached from the
                    setup context. *)
                 incr after
               else fail ("raised: " ^ msg)
         end
       done
     done
   with Stdlib.Exit -> ());
  match !bad with
  | None -> Refines { schedules = !runs; truncated = false }
  | Some (victim, after, kind) ->
      Violates
        {
          w_structure = entry.Registry.name;
          w_property = prop.pname;
          w_strategy = Printf.sprintf "crash:v%d@%d" victim after;
          w_kind = kind;
          w_schedule = [];
          w_original_len = 0;
          w_workload = w;
          w_replayed = true;
        }

let check ?(quantum = 6) ?(max_steps = 50_000) entry strategy prop =
  match prop.adversary with
  | Crash_sweep { max_points } ->
      check_crash ~quantum ~max_steps entry prop ~max_points
  | No_adversary | Cancel _ -> (
      let maker = entry.Registry.maker in
      let refines = prop.refines in
      let w = apply_cancel prop.adversary prop.workload in
      let gave_up = ref false in
      let scenario = scenario_of ~maker ~refines ~gave_up w in
      let result =
        match strategy with
        | Dpor { max_preemptions; max_schedules } ->
            Explore.for_all ~strategy:`Dpor ~max_preemptions ~max_schedules
              ~quantum ~max_steps scenario
        | Weighted { seed; runs; stay_weight } ->
            Explore.for_random ~quantum ~max_steps ~runs ~stay_weight ~seed
              scenario
      in
      match result with
      | Explore.Passed { schedules; truncated } ->
          if !gave_up then
            Inconclusive "the linearizability check gave up within its budget"
          else Refines { schedules; truncated }
      | Explore.Failed { kind; schedule; explored = _ } ->
          let category = violation_category kind in
          let original_len = List.length schedule in
          let w', s' =
            shrink ~quantum ~max_steps ~maker ~refines ~category w schedule
          in
          let replayed =
            let gu = ref false in
            match
              outcome_category
                (Explore.replay ~quantum ~max_steps ~schedule:s'
                   (scenario_of ~maker ~refines ~gave_up:gu w'))
            with
            | Some c -> c = category
            | None -> false
          in
          Violates
            {
              w_structure = entry.Registry.name;
              w_property = prop.pname;
              w_strategy = strategy_label strategy;
              w_kind = category;
              w_schedule = s';
              w_original_len = original_len;
              w_workload = w';
              w_replayed = replayed;
            })

(* ------------------------------------------------------------------ *)
(* Default property suites                                              *)

let mix_threads = [ [ Push 1; Pop ]; [ Push 2; Pop ] ]

let default_properties entry =
  match entry.Registry.spec with
  | Registry.Stack_sem ->
      [
        {
          pname = "lifo-mix";
          refines = Registry.Stack_sem;
          workload =
            { prefill = [ 91; 90 ]; threads = mix_threads; max_threads = None };
          adversary = No_adversary;
        };
        {
          pname = "lifo-peek";
          refines = Registry.Stack_sem;
          workload =
            {
              prefill = [ 90 ];
              threads = [ [ Push 1; Pop ]; [ Peek; Pop ] ];
              max_threads = None;
            };
          adversary = No_adversary;
        };
        {
          pname = "lifo-cancel";
          refines = Registry.Stack_sem;
          workload =
            { prefill = [ 90 ]; threads = mix_threads; max_threads = None };
          adversary = Cancel { victim = 1; keep_ops = 1 };
        };
        {
          pname = "crash-bag";
          refines = Registry.Stack_sem;
          workload =
            { prefill = [ 90 ]; threads = mix_threads; max_threads = None };
          adversary = Crash_sweep { max_points = 8 };
        };
      ]
  | Registry.Pool_sem ->
      [
        {
          pname = "bag-mix";
          refines = Registry.Pool_sem;
          workload =
            { prefill = [ 91; 90 ]; threads = mix_threads; max_threads = None };
          adversary = No_adversary;
        };
        {
          pname = "bag-cancel";
          refines = Registry.Pool_sem;
          workload =
            { prefill = [ 90 ]; threads = mix_threads; max_threads = None };
          adversary = Cancel { victim = 1; keep_ops = 1 };
        };
        {
          pname = "crash-bag";
          refines = Registry.Pool_sem;
          workload =
            { prefill = [ 90 ]; threads = mix_threads; max_threads = None };
          adversary = Crash_sweep { max_points = 8 };
        };
      ]

let default_seeds = [ 0x5ECL; 0xC0FFEEL; 0xBADC0DEL ]

(* The fault-revealing property for each seeded mutant
   (Sec_core.Config.mutation), keyed by the registry name. The default
   suite deliberately does not over-subscribe the stack, so the
   batch-overflow mutant needs its own workload: three announcers on a
   capacity-2 structure, all landing in one aggregator's batch. *)
let mutant_property entry =
  match entry.Registry.name with
  | "SEC!OVF" ->
      Some
        {
          pname = "batch-overflow";
          refines = Registry.Stack_sem;
          workload =
            {
              prefill = [];
              threads = [ [ Push 10 ]; [ Push 11 ]; [ Push 12 ] ];
              max_threads = Some 2;
            };
          adversary = No_adversary;
        }
  | "SEC!POP" ->
      Some
        {
          pname = "pop-reorder";
          refines = Registry.Stack_sem;
          workload =
            { prefill = [ 1; 2; 3 ]; threads = [ [ Pop ]; [ Pop ] ]; max_threads = None };
          adversary = No_adversary;
        }
  | _ -> None

let check_entry ?(quantum = 6) ?(max_steps = 50_000) ?(max_schedules = 400)
    ?(runs = 10) ?(seeds = default_seeds) entry =
  let props = default_properties entry in
  let dpor = Dpor { max_preemptions = 1; max_schedules } in
  List.concat
    (List.mapi
       (fun idx p ->
         let strategies =
           match p.adversary with
           | Crash_sweep _ -> [ dpor ] (* the sweep ignores the strategy *)
           | _ when idx = 0 ->
               (* The mix property carries the full strategy matrix:
                  DPOR plus every pinned seed. *)
               dpor
               :: List.map
                    (fun seed -> Weighted { seed; runs; stay_weight = 4 })
                    seeds
           | _ -> [ dpor ]
         in
         List.map
           (fun s ->
             let label =
               match p.adversary with
               | Crash_sweep _ -> "crash-sweep"
               | _ -> strategy_label s
             in
             (p.pname, label, check ~quantum ~max_steps entry s p))
           strategies)
       props)
