(* Tests for the progress layer's dynamic prong: the watermark monitor
   (starvation / suspected livelock over one schedule), the suspension
   adversary, and the mechanical lock-freedom classifier — whose verdict
   must agree with each registry entry's declared progress class. All
   of it runs under {!Explore}, the one scheduler that hosts analyses;
   {!Sim} appears only for the oversubscribed lock stack, a timing-model
   regression. *)

module Explore = Sec_sim.Explore
module Sim = Sec_sim.Sim
module Topology = Sec_sim.Topology
module SP = Sim.Prim
module PM = Sec_analysis.Progress_monitor
module Registry = Sec_harness.Registry

(* ------------------------------------------------------------------ *)
(* Watermark monitor, fed by hand                                       *)

let kinds m = List.map (fun r -> r.PM.kind) (PM.reports m)

let test_monitor_flags_starvation () =
  let m = PM.create ~starvation_ops:3 () in
  PM.on_op_start m ~fiber:1;
  for _ = 1 to 3 do
    PM.on_op_start m ~fiber:0;
    PM.on_op_end m ~fiber:0
  done;
  (match PM.reports m with
  | [ r ] ->
      Alcotest.(check string) "kind" "starvation" (PM.kind_to_string r.PM.kind);
      Alcotest.(check int) "starved fiber" 1 r.PM.fiber;
      Alcotest.(check bool) "peer completions at the bound" true
        (r.PM.peer_completions >= 3)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
  (* Throttled: the same stalled operation is reported once. *)
  PM.on_op_start m ~fiber:0;
  PM.on_op_end m ~fiber:0;
  Alcotest.(check int) "one report per operation" 1
    (List.length (PM.reports m));
  (* A fresh operation resets the watermark and can be reported again. *)
  PM.on_op_end m ~fiber:1;
  PM.on_op_start m ~fiber:1;
  for _ = 1 to 3 do
    PM.on_op_start m ~fiber:0;
    PM.on_op_end m ~fiber:0
  done;
  Alcotest.(check int) "second stalled op reported" 2
    (List.length (PM.reports m))

let test_monitor_completing_fibers_not_starved () =
  let m = PM.create ~starvation_ops:3 () in
  for _ = 1 to 20 do
    PM.on_op_start m ~fiber:0;
    PM.on_op_end m ~fiber:0;
    PM.on_op_start m ~fiber:1;
    PM.on_op_end m ~fiber:1
  done;
  Alcotest.(check int) "both fibers make progress: no reports" 0
    (List.length (PM.reports m))

let test_monitor_flags_livelock () =
  let m = PM.create ~livelock_events:10 () in
  PM.on_op_start m ~fiber:0;
  for _ = 1 to 15 do
    PM.on_event m ~fiber:0
  done;
  Alcotest.(check (list bool)) "one livelock report, throttled"
    [ true ]
    (List.map (fun k -> k = PM.Livelock_suspected) (kinds m));
  (* A completion ends the dry stretch; the next one reports afresh. *)
  PM.on_op_end m ~fiber:0;
  PM.on_op_start m ~fiber:0;
  for _ = 1 to 15 do
    PM.on_event m ~fiber:0
  done;
  Alcotest.(check int) "second dry stretch reported" 2
    (List.length (PM.reports m))

let test_monitor_idle_events_not_livelock () =
  (* Events with no operation in flight (warmup, draining) are not a
     livelock no matter how many there are. *)
  let m = PM.create ~livelock_events:10 () in
  for _ = 1 to 100 do
    PM.on_event m ~fiber:0
  done;
  Alcotest.(check int) "no in-flight op: no reports" 0
    (List.length (PM.reports m))

let test_monitor_fiber_exit_clears_in_flight () =
  let m = PM.create ~livelock_events:10 () in
  PM.on_op_start m ~fiber:0;
  PM.on_fiber_exit m ~fiber:0;
  for _ = 1 to 100 do
    PM.on_event m ~fiber:1
  done;
  Alcotest.(check int) "exited fiber no longer in flight" 0
    (List.length (PM.reports m))

let test_installation () =
  let m = PM.create () in
  Alcotest.(check bool) "nothing installed before" true (!PM.active = None);
  PM.with_monitor m (fun () ->
      Alcotest.(check bool) "installed inside with_monitor" true
        (match !PM.active with Some m' -> m' == m | None -> false));
  Alcotest.(check bool) "uninstalled after with_monitor" true
    (!PM.active = None);
  (match PM.with_monitor m (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected the body's exception"
  | exception Failure _ -> ());
  Alcotest.(check bool) "uninstalled after a raise" true (!PM.active = None)

(* ------------------------------------------------------------------ *)
(* Suspension classifier vs the registry's declared classes             *)

(* Two fibers, each one push and one pop. [tids] picks the shard mapping
   (relevant for SEC: tids 0,2 share aggregator 0 of 2; tids 0,1 land on
   different shards). The final check is irrelevant — the classifier
   only asks whether the peers complete. *)
let stack_scenario ?(tids = [| 0; 1 |]) (module M : Registry.MAKER) () =
  let module St = M (SP) in
  let s = St.create ~max_threads:8 () in
  let fiber tid () =
    St.push s ~tid tid;
    ignore (St.pop s ~tid)
  in
  (Array.to_list (Array.map fiber tids), fun () -> true)

let classify ?tids maker =
  Explore.classify ~fibers:2 (stack_scenario ?tids maker)

let check_declared_class ?tids (entry : Registry.entry) () =
  let c = classify ?tids entry.Registry.maker in
  Alcotest.(check string)
    (Printf.sprintf "%s classifies as declared (%d suspension runs)"
       entry.Registry.name c.Explore.runs)
    (Explore.progress_class_to_string entry.Registry.progress)
    (Explore.progress_class_to_string c.Explore.verdict);
  match (c.Explore.verdict, c.Explore.witness) with
  | Explore.Blocking, None ->
      Alcotest.fail "a Blocking verdict must carry a witness"
  | Explore.Lock_free, Some _ ->
      Alcotest.fail "a Lock_free verdict must not carry a witness"
  | _ -> ()

(* SEC is declared Blocking because of its combining protocol: two
   threads on the *same* shard, one suspended mid-batch, starves the
   other — and the classifier must find such a witness, reproducible
   with [suspended_run]. *)
let test_sec_same_shard_witness_replays () =
  let scenario = stack_scenario ~tids:[| 0; 2 |] Registry.sec.Registry.maker in
  let c = Explore.classify ~fibers:2 scenario in
  match (c.Explore.verdict, c.Explore.witness) with
  | Explore.Blocking, Some (victim, after) -> (
      match Explore.suspended_run ~victim ~after scenario with
      | Explore.Blocked -> ()
      | Explore.Survived _ -> Alcotest.fail "witness did not reproduce"
      | Explore.Crashed msg -> Alcotest.failf "witness crashed: %s" msg)
  | _ -> Alcotest.fail "expected Blocking with a witness"

(* ...but threads sharded onto *different* aggregators never wait on
   each other: the elimination/combining fast path is per-shard, and the
   shared top is plain lock-free CAS. This is the paper's point — the
   blocking protocol is confined to a shard. *)
let test_sec_cross_shard_lock_free () =
  let c = classify ~tids:[| 0; 1 |] Registry.sec.Registry.maker in
  Alcotest.(check string) "cross-shard SEC survives any single suspension"
    "lock_free"
    (Explore.progress_class_to_string c.Explore.verdict)

(* ------------------------------------------------------------------ *)
(* Combiner handoff under an unfair schedule (ccsynch / hsynch)         *)

(* A *preempted* (descheduled, later resumed) combiner must still drain
   every announcement — unlike a suspended one, which is what makes the
   protocol blocking. Conservation check: everything the two fibers
   pushed is there at the end, nothing lost, nothing duplicated. *)
let combiner_conservation_scenario (module M : Registry.MAKER) () =
  let module St = M (SP) in
  let s = St.create ~max_threads:4 () in
  let fiber tid () =
    St.push s ~tid (10 * tid);
    St.push s ~tid ((10 * tid) + 1)
  in
  ( [ fiber 0; fiber 1 ],
    fun () ->
      let rec drain acc =
        match St.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
      in
      List.sort compare (drain []) = [ 0; 1; 10; 11 ] )

let test_combiner_conservation entry () =
  match
    Explore.for_all ~max_preemptions:2 ~quantum:6 ~max_schedules:2_000
      (combiner_conservation_scenario entry.Registry.maker)
  with
  | Explore.Passed _ -> ()
  | Explore.Failed { kind; schedule; _ } ->
      Alcotest.failf "%s lost announcements (kind %s, schedule %s)"
        entry.Registry.name
        (match kind with
        | Explore.Check_failed -> "check_failed"
        | Explore.Livelock -> "livelock"
        | Explore.Fiber_raised m -> "raised: " ^ m
        | Explore.Race_detected m -> "race: " ^ m
        | Explore.Reclamation_violation m -> "reclamation: " ^ m)
        (Explore.schedule_to_string schedule)

(* ------------------------------------------------------------------ *)
(* One suspension with the monitor installed                            *)

(* Freeze fiber 0 just before its 2nd atomic access. For the lock stack
   that is inside the critical section (access 1 is the winning
   exchange, access 2 the release store): fiber 1 spins until the step
   budget runs out, and the monitor, fed one event per live access,
   suspects livelock on the way. *)
let monitored_suspension maker =
  let m = PM.create ~livelock_events:2_000 () in
  let scenario () =
    let module Maker = (val maker : Registry.MAKER) in
    let module St = Maker (SP) in
    let s = St.create ~max_threads:2 () in
    let fiber slot () =
      PM.on_op_start m ~fiber:slot;
      St.push s ~tid:slot slot;
      PM.on_op_end m ~fiber:slot;
      PM.on_op_start m ~fiber:slot;
      ignore (St.pop s ~tid:slot);
      PM.on_op_end m ~fiber:slot
    in
    ([ fiber 0; fiber 1 ], fun () -> true)
  in
  let outcome =
    PM.with_monitor m (fun () ->
        Explore.suspended_run ~victim:0 ~after:2 scenario)
  in
  (outcome, m)

let test_suspended_lock_holder_stalls () =
  let outcome, m = monitored_suspension Registry.lock.Registry.maker in
  Alcotest.(check bool) "suspended lock holder blocks its peer" true
    (outcome = Explore.Blocked);
  Alcotest.(check bool) "monitor suspected livelock" true
    (List.mem PM.Livelock_suspected (kinds m))

let test_suspended_treiber_completes () =
  let outcome, m = monitored_suspension Registry.treiber.Registry.maker in
  Alcotest.(check bool) "treiber peer outlives a suspended fiber" true
    (outcome = Explore.Survived { engaged = true });
  Alcotest.(check bool) "no livelock suspected" false
    (List.mem PM.Livelock_suspected (kinds m))

(* ------------------------------------------------------------------ *)
(* Lock stack with more threads than cores (testbox: 8 HW threads on 4
   physical cores). The yield-after-budget path in [acquire] is what
   lets a waiter hand its core back to a descheduled holder; the run
   completing with every pop finding a value is the regression. *)
let test_lock_stack_oversubscribed_completes () =
  let n = 8 and per = 5 in
  let popped, stats =
    Sim.run ~topology:Topology.testbox (fun () ->
        let module Maker = (val Registry.lock.Registry.maker : Registry.MAKER)
        in
        let module St = Maker (SP) in
        let s = St.create ~max_threads:n () in
        let count = SP.Atomic.make 0 in
        for slot = 0 to n - 1 do
          Sim.spawn (fun () ->
              for i = 1 to per do
                St.push s ~tid:slot ((slot * 100) + i);
                match St.pop s ~tid:slot with
                | Some _ -> ignore (SP.Atomic.fetch_and_add count 1)
                | None -> ()
              done)
        done;
        Sim.await_all ();
        SP.Atomic.get count)
  in
  Alcotest.(check int) "every pop found a value" (n * per) popped;
  Alcotest.(check int) "all fibers ran" n stats.Sim.fibers

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "progress"
    [
      ( "monitor",
        [
          quick "starvation watermark" test_monitor_flags_starvation;
          quick "progressing fibers clean"
            test_monitor_completing_fibers_not_starved;
          quick "livelock stretch" test_monitor_flags_livelock;
          quick "idle events clean" test_monitor_idle_events_not_livelock;
          quick "fiber exit clears in-flight"
            test_monitor_fiber_exit_clears_in_flight;
          quick "installation" test_installation;
        ] );
      ( "classifier",
        List.map
          (fun (entry : Registry.entry) ->
            let tids =
              (* SEC's Blocking declaration is a same-shard fact. *)
              if entry.Registry.name = "SEC" then Some [| 0; 2 |] else None
            in
            slow
              (Printf.sprintf "%s is %s" entry.Registry.name
                 (Explore.progress_class_to_string entry.Registry.progress))
              (check_declared_class ?tids entry))
          (Registry.paper_set @ [ Registry.lock; Registry.hsynch ])
        @ [
            slow "SEC same-shard witness replays"
              test_sec_same_shard_witness_replays;
            slow "SEC cross-shard is lock-free" test_sec_cross_shard_lock_free;
          ] );
      ( "combiner-handoff",
        [
          slow "ccsynch conservation under preemption"
            (test_combiner_conservation Registry.cc);
          slow "hsynch conservation under preemption"
            (test_combiner_conservation Registry.hsynch);
        ] );
      (* Simulated fibers under [Explore]'s suspension adversary. *)
      ( "sim-suspension",
        [
          quick "suspended lock holder stalls"
            test_suspended_lock_holder_stalls;
          quick "treiber survives suspension"
            test_suspended_treiber_completes;
        ] );
      ( "oversubscription",
        [
          quick "lock stack, threads > cores"
            test_lock_stack_oversubscribed_completes;
        ] );
    ]
