(* Tests for the SEC stack itself: the standard battery plus SEC-specific
   behaviour — freezing, batch accounting, aggregator sweeps, elimination
   degree, and pop-beyond-depth semantics. *)

module P = Sec_prim.Native
module Sec = Sec_core.Sec_stack.Make (P)
module Config = Sec_core.Config
module Stats = Sec_core.Sec_stats

let with_aggs ?(stats = false) k =
  { Config.default with Config.num_aggregators = k; collect_stats = stats }

(* Adapter fixing a configuration, so the generic test kit can drive SEC
   under any aggregator count. *)
module Sec_with (C : sig
  val config : Config.t
end) : Sec_spec.Stack_intf.S = struct
  include Sec

  let create ?max_threads () = Sec.create_with ~config:C.config ?max_threads ()
end

module Sec_agg1 = Sec_with (struct let config = with_aggs 1 end)
module Sec_agg2 = Sec_with (struct let config = with_aggs 2 end)
module Sec_agg3 = Sec_with (struct let config = with_aggs 3 end)
module Sec_agg5 = Sec_with (struct let config = with_aggs 5 end)

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)

let test_config_validation () =
  Alcotest.check_raises "zero aggregators rejected"
    (Invalid_argument "Sec_core.Config: num_aggregators must be at least 1")
    (fun () ->
      ignore (Sec.create_with ~config:(with_aggs 0) ()));
  Alcotest.check_raises "negative backoff rejected"
    (Invalid_argument "Sec_core.Config: freeze_backoff must be non-negative")
    (fun () ->
      ignore
        (Sec.create_with
           ~config:{ Config.default with Config.freeze_backoff = -1 }
           ()))

let test_config_accessor () =
  let s = Sec.create_with ~config:(with_aggs 3) () in
  Alcotest.(check int) "aggregators" 3 (Sec.config s).Config.num_aggregators

(* ------------------------------------------------------------------ *)
(* Single-thread behaviour through the full batch machinery             *)

let test_depth () =
  let s = Sec.create () in
  Alcotest.(check int) "empty depth" 0 (Sec.depth s);
  for i = 1 to 10 do
    Sec.push s ~tid:0 i
  done;
  Alcotest.(check int) "depth after pushes" 10 (Sec.depth s);
  ignore (Sec.pop s ~tid:0);
  ignore (Sec.pop s ~tid:0);
  Alcotest.(check int) "depth after pops" 8 (Sec.depth s)

let test_pop_beyond_depth () =
  (* A batch of pops larger than the stack: the excess must see EMPTY. *)
  let s = Sec.create () in
  Sec.push s ~tid:0 1;
  Alcotest.(check (option int)) "first pop" (Some 1) (Sec.pop s ~tid:0);
  Alcotest.(check (option int)) "second pop empty" None (Sec.pop s ~tid:0);
  Alcotest.(check (option int)) "third pop empty" None (Sec.pop s ~tid:0)

let test_interleaved_types () =
  let s = Sec.create () in
  Sec.push s ~tid:0 1;
  Sec.push s ~tid:0 2;
  Alcotest.(check (option int)) "peek reads top" (Some 2) (Sec.peek s ~tid:0);
  Alcotest.(check (option int)) "pop" (Some 2) (Sec.pop s ~tid:0);
  Sec.push s ~tid:0 3;
  Alcotest.(check (option int)) "pop 3" (Some 3) (Sec.pop s ~tid:0);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Sec.pop s ~tid:0)

(* ------------------------------------------------------------------ *)
(* Batch statistics                                                     *)

let test_stats_single_thread () =
  (* One thread: every operation forms its own batch of size 1, nothing is
     eliminated, everything is combined. *)
  let s = Sec.create_with ~config:(with_aggs ~stats:true 1) () in
  for i = 1 to 50 do
    Sec.push s ~tid:0 i
  done;
  for _ = 1 to 50 do
    ignore (Sec.pop s ~tid:0)
  done;
  let st = Sec.stats s in
  Alcotest.(check int) "one batch per op" 100 st.Stats.batches;
  Alcotest.(check int) "ops accounted" 100 st.Stats.operations;
  Alcotest.(check int) "nothing eliminated" 0 st.Stats.eliminated;
  Alcotest.(check int) "everything combined" 100 st.Stats.combined;
  Alcotest.(check (float 0.001)) "batching degree 1" 1.0
    (Stats.batching_degree st)

let test_stats_accounting_invariant () =
  (* Under concurrency: eliminated + combined = operations, and all
     operations that completed are accounted for in some batch. *)
  let threads = 4 and ops = 2_000 in
  let s =
    Sec.create_with ~config:(with_aggs ~stats:true 2) ~max_threads:threads ()
  in
  let body tid () =
    let rng = Sec_prim.Rng.create (Int64.of_int (tid + 1)) in
    for i = 1 to ops do
      if Sec_prim.Rng.int rng 2 = 0 then Sec.push s ~tid i
      else ignore (Sec.pop s ~tid)
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  let st = Sec.stats s in
  Alcotest.(check int) "eliminated + combined = operations"
    st.Stats.operations
    (st.Stats.eliminated + st.Stats.combined);
  Alcotest.(check int) "all completed ops belong to a batch"
    (threads * ops) st.Stats.operations;
  Alcotest.(check bool) "eliminated count is even" true
    (st.Stats.eliminated mod 2 = 0)

let test_stats_elimination_under_symmetry () =
  (* Balanced concurrent pushes and pops with a freezer backoff must
     achieve a non-trivial elimination degree. *)
  let threads = 4 and ops = 4_000 in
  let s =
    Sec.create_with
      ~config:{ (with_aggs ~stats:true 1) with Config.freeze_backoff = 256 }
      ~max_threads:threads ()
  in
  let body tid () =
    for i = 1 to ops do
      if tid mod 2 = 0 then Sec.push s ~tid i else ignore (Sec.pop s ~tid)
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  let st = Sec.stats s in
  Alcotest.(check bool)
    (Printf.sprintf "some elimination happened (%.1f%%)"
       (Stats.pct_eliminated st))
    true
    (st.Stats.eliminated > 0)

let test_stats_helpers () =
  let st =
    { Stats.batches = 4; operations = 40; eliminated = 30; combined = 10;
      excluded = 0 }
  in
  Alcotest.(check (float 1e-6)) "batching degree" 10. (Stats.batching_degree st);
  Alcotest.(check (float 1e-6)) "pct eliminated" 75. (Stats.pct_eliminated st);
  Alcotest.(check (float 1e-6)) "pct combined" 25. (Stats.pct_combined st);
  Alcotest.(check (float 1e-6)) "empty degree" 0.
    (Stats.batching_degree Stats.empty)

(* ------------------------------------------------------------------ *)
(* Push-only / pop-only batches under concurrency                       *)

let test_push_only_parallel () =
  let threads = 4 and ops = 2_000 in
  let s = Sec.create ~max_threads:threads () in
  let body tid () =
    for i = 1 to ops do
      Sec.push s ~tid (Testkit.tag ~tid i)
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "all nodes present" (threads * ops) (Sec.depth s)

let test_pop_only_parallel () =
  let threads = 4 and prefill = 5_000 in
  let s = Sec.create ~max_threads:threads () in
  for i = 1 to prefill do
    Sec.push s ~tid:0 i
  done;
  let counts = Array.make threads 0 in
  let body tid () =
    let continue = ref true in
    while !continue do
      match Sec.pop s ~tid with
      | Some _ -> counts.(tid) <- counts.(tid) + 1
      | None -> continue := false
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "every node popped exactly once" prefill
    (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "stack empty" 0 (Sec.depth s)

(* ------------------------------------------------------------------ *)
(* Property tests across configurations                                 *)

let qcheck_sequential_any_config =
  (* Sequential LIFO semantics must hold under every aggregator count and
     freezer-backoff setting. *)
  QCheck.Test.make ~name:"SEC: sequential model under any config" ~count:100
    QCheck.(
      triple (int_range 1 5) (int_range 0 64) (list_of_size (Gen.int_range 0 40) (option small_int)))
    (fun (aggs, backoff, ops) ->
      let config =
        {
          Config.default with
          Config.num_aggregators = aggs;
          freeze_backoff = backoff;
        }
      in
      let s = Sec.create_with ~config ~max_threads:1 () in
      let model = Sec_spec.Seq_stack.create () in
      List.for_all
        (function
          | Some v ->
              Sec.push s ~tid:0 v;
              Sec_spec.Seq_stack.push model v;
              true
          | None ->
              Sec.pop s ~tid:0 = Sec_spec.Seq_stack.pop model
              && Sec.peek s ~tid:0 = Sec_spec.Seq_stack.peek model)
        ops)

let qcheck_stats_percentages =
  (* However the counters land, the derived percentages are consistent. *)
  QCheck.Test.make ~name:"SEC stats: percentages sum to 100" ~count:200
    QCheck.(pair (int_range 1 1000) (int_range 0 1000))
    (fun (ops, elim_pairs) ->
      let eliminated = min ops (2 * elim_pairs) in
      let eliminated = eliminated - (eliminated mod 2) in
      let st =
        {
          Stats.batches = 1;
          operations = ops;
          eliminated;
          combined = ops - eliminated;
          excluded = 0;
        }
      in
      abs_float (Stats.pct_eliminated st +. Stats.pct_combined st -. 100.)
      < 1e-9)

(* Regression: more announcements than a batch's capacity landing in one
   batch used to trip [assert (seq < capacity)] — and, without the
   assert, write past the elimination array — on the push path, because
   every retry FAAs a fresh sequence number. Deterministically provoked
   in the simulator: a long freeze window and six pushers into a stack
   sized for two, so three per shard. With one aggregator a batch holds
   P = 2 announcements; with two, P = 1. Overflowing announcers must now
   wait out the batch and retry. *)
let check_capacity_overflow num_aggregators =
  let module SP = Sec_sim.Sim.Prim in
  let module SimSec = Sec_core.Sec_stack.Make (SP) in
  let config =
    {
      Config.default with
      Config.num_aggregators;
      freeze_backoff = 50_000;
      collect_stats = true;
    }
  in
  let (popped, excluded), _ =
    Sec_sim.Sim.run ~seed:7 ~topology:Sec_sim.Topology.testbox (fun () ->
        let s = SimSec.create_with ~config ~max_threads:2 () in
        for i = 1 to 6 do
          Sec_sim.Sim.spawn (fun () -> SimSec.push s ~tid:(i mod 2) i)
        done;
        Sec_sim.Sim.await_all ();
        let out = ref [] in
        (try
           while true do
             match SimSec.pop s ~tid:0 with
             | Some v -> out := v :: !out
             | None -> raise Exit
           done
         with Exit -> ());
        (List.sort compare !out, (SimSec.stats s).Stats.excluded))
  in
  let label what = Printf.sprintf "K = %d: %s" num_aggregators what in
  Alcotest.(check (list int)) (label "all pushes land") [ 1; 2; 3; 4; 5; 6 ]
    popped;
  Alcotest.(check bool) (label "overflow path exercised") true (excluded > 0)

let test_capacity_overflow () = List.iter check_capacity_overflow [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Freezer wait (simulated emerald, 100% updates, fixed seeds)          *)

module SP = Sec_sim.Sim.Prim
module SimSec = Sec_core.Sec_stack.Make (SP)
module SR = Sec_harness.Runner.Make (SP)

(* A timed SEC run in the shape of the simulated benchmark workloads
   (prefill 1 000, the simulated runner's loop overhead and jitter of 2)
   at a shorter budget: per-fiber completed operations and the
   simulator's stats. *)
let sim_update_run ?(config = Config.default) ~seed ~threads ~cycles () =
  Sec_sim.Sim.run ~seed ~jitter:2 ~topology:Sec_sim.Topology.emerald (fun () ->
      let s = SimSec.create_with ~config ~max_threads:threads () in
      for i = 1 to 1_000 do
        SimSec.push s ~tid:0 i
      done;
      let outcome =
        SR.drive ~op_overhead:Sec_harness.Sim_runner.loop_overhead ~threads
          ~stop:(SR.Timed cycles) ~mix:Sec_harness.Workload.update_heavy
          ~push:(fun ~tid v -> SimSec.push s ~tid v)
          ~pop:(fun ~tid -> SimSec.pop s ~tid)
          ~peek:(fun ~tid -> SimSec.peek s ~tid)
          ()
      in
      outcome.SR.counts)

let sim_update_counts ~seed ~threads ~cycles =
  fst (sim_update_run ~seed ~threads ~cycles ())

(* Batch statistics are plain per-thread tallies, invisible to the
   simulator: collecting them must not move a single scheduling
   decision. *)
let test_stats_schedule_neutral () =
  List.iter
    (fun threads ->
      let run config =
        let counts, st =
          sim_update_run ~config ~seed:1 ~threads ~cycles:1_000_000 ()
        in
        (Array.fold_left ( + ) 0 counts, st.Sec_sim.Sim.schedule_digest)
      in
      let ops, digest = run Config.default in
      let ops', digest' = run (Config.with_stats Config.default) in
      Alcotest.(check int) (Printf.sprintf "%d fibers: ops" threads) ops ops';
      Alcotest.(check int)
        (Printf.sprintf "%d fibers: schedule digest" threads)
        digest digest')
    [ 4; 56 ]

(* The freezer stops waiting once its batch is as large as the previous
   one. That must not leave a thread whose announcement keeps arriving
   just after the freeze behind: every fiber completes at least 90% of
   the mean. *)
let check_fair ~threads =
  let counts = sim_update_counts ~seed:1 ~threads ~cycles:1_000_000 in
  let total = Array.fold_left ( + ) 0 counts in
  let lo = Array.fold_left Int.min max_int counts in
  let ratio = float_of_int (lo * threads) /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "%d fibers: min/mean %.3f >= 0.9" threads ratio)
    true (ratio >= 0.9)

let test_freezer_fair_56 () = check_fair ~threads:56
let test_freezer_fair_12 () = check_fair ~threads:12

(* Pinned throughput of the sim-uncontended shape (4 fibers, 2
   aggregators, so 2 per shard): a freezer edit that moves it fails
   here. A freezer that waits out its extension after both fibers of a
   shard have announced completes about 2.5x fewer. Freeze waiters that
   probed from 4 units (not [poll_step]) completed 5 728. Read hits that
   no write can overtake stopped rescheduling, which moved the jitter
   draws: 5 812 before. *)
let pinned_uncontended_ops = 5_819

let test_freezer_uncontended_pin () =
  let counts = sim_update_counts ~seed:1 ~threads:4 ~cycles:1_000_000 in
  Alcotest.(check int) "ops (seed 1, 4 fibers, 1M cycles)"
    pinned_uncontended_ops
    (Array.fold_left ( + ) 0 counts)

(* Pinned throughput of the sim-contended shape (56 fibers, 2
   aggregators, 28 per shard). The freezer polls its extension window
   and freezes the moment [expected] have announced; one that checks
   only at the window's end completes 16 935 here, and freeze waiters
   that probed from 4 units (not [poll_step]) completed 18 858. Read
   hits that no write can overtake stopped rescheduling, which moved the
   jitter draws: 18 979 before (seeds 1-5 read 18 768-18 979 then and
   18 883-19 023 now). *)
let pinned_contended_ops = 19_008

let test_freezer_contended_pin () =
  let counts = sim_update_counts ~seed:1 ~threads:56 ~cycles:1_000_000 in
  Alcotest.(check int) "ops (seed 1, 56 fibers, 1M cycles)"
    pinned_contended_ops
    (Array.fold_left ( + ) 0 counts)

(* Pinned simulator cost of the same two shapes: the scheduling events
   ([Sim.stats.events]) a run takes, which set its wall-clock time. An
   announcer that loses the freezer race first probes the batch pointer
   [poll_step] units after announcing, since the freezer cannot install
   the next batch sooner, and a combiner reads an elimination slot that
   is already filled once. Before both (generic 4-unit probe start, two
   reads per slot) the 4-fiber run took 137 250 events for 5 728 ops
   (23.96 per op) and the 56-fiber run 636 918 for 18 858 (33.77 per
   op); then 19.67 and 26.29 per op (114 310 and 498 994 events).
   Serving read hits without a switch moved the jitter draws: now 19.63
   and 26.42 per op (seeds 1-5 at 56 fibers: 26.29-26.71 before,
   26.30-26.56 now).

   The context switches ([Sim.stats.switches]) of the same runs are
   pinned beside them. Each freeze or [batch_applied] probe is a relax
   and a read hit, and while a hit also rescheduled, each cost two
   switches: 47 989 (8.26 per op) at 4 fibers and 477 703 (25.17 per
   op) at 56. Now a hit that no write can overtake runs on, and only
   the relax parks. The counts include the 1 000-push prefill.

   The simulated cells the runs create ([Sim.stats.cells]) are pinned
   last: one batch is 7 cells plus its elimination array, so they track
   how many batches a run takes and how large each is. While every batch
   was sized [max_threads], not its shard's P, the same runs created
   43 035 (7.40 per op) at 4 fibers and 106 347 (5.59 per op) at 56. *)
let pinned_events =
  [ (4, 114_226, 42_123, 35_211); (56, 502_256, 334_839, 59_083) ]

let test_freezer_events_pin () =
  List.iter
    (fun (threads, pinned_events, pinned_switches, pinned_cells) ->
      let counts, st =
        sim_update_run ~seed:1 ~threads ~cycles:1_000_000 ()
      in
      let ops = Array.fold_left ( + ) 0 counts in
      let per_op n = float_of_int n /. float_of_int ops in
      let events = st.Sec_sim.Sim.events in
      let switches = st.Sec_sim.Sim.switches in
      Alcotest.(check int)
        (Printf.sprintf "events (seed 1, %d fibers, 1M cycles; %.2f per op)"
           threads (per_op events))
        pinned_events events;
      Alcotest.(check int)
        (Printf.sprintf "switches (seed 1, %d fibers, 1M cycles; %.2f per op)"
           threads (per_op switches))
        pinned_switches switches;
      Alcotest.(check int)
        (Printf.sprintf "cells (seed 1, %d fibers, 1M cycles; %.2f per op)"
           threads (per_op st.Sec_sim.Sim.cells))
        pinned_cells st.Sec_sim.Sim.cells)
    pinned_events

(* A native substrate that counts [relax] calls and the atomic cells
   created, for the two tests below. *)
let relax_calls = ref 0
let cells_made = ref 0

module Counting_prim = struct
  include Sec_prim.Native

  module Atomic = struct
    include Sec_prim.Native.Atomic

    let make v =
      Stdlib.incr cells_made;
      Sec_prim.Native.Atomic.make v

    let make_padded v =
      Stdlib.incr cells_made;
      Sec_prim.Native.Atomic.make_padded v
  end

  let relax n =
    incr relax_calls;
    Sec_prim.Native.relax n
end

module Counting_sec = Sec_core.Sec_stack.Make (Counting_prim)

(* [freeze_backoff = 0] freezes at once: a lone thread's operations
   never relax, while the default budget relaxes once per operation (the
   initial probe). *)
let test_no_probe_without_backoff () =
  let relaxes freeze_backoff =
    let config = { Config.default with Config.freeze_backoff } in
    let s = Counting_sec.create_with ~config ~max_threads:1 () in
    relax_calls := 0;
    for i = 1 to 50 do
      Counting_sec.push s ~tid:0 i
    done;
    for _ = 1 to 50 do
      ignore (Counting_sec.pop s ~tid:0)
    done;
    !relax_calls
  in
  Alcotest.(check int) "freeze_backoff = 0" 0 (relaxes 0);
  Alcotest.(check int) "default budget: one probe per op" 100
    (relaxes Config.default.Config.freeze_backoff)

(* The batch footprint: a lone push freezes its batch and installs a
   fresh one, 7 padded cells (counters, freeze snapshots, flags, the
   substack) plus an elimination array of the shard's P =
   ceil(max_threads / K) slots (paper, Figure 1). Batches sized by
   [max_threads] instead made 63 cells at 56 threads, whatever K. *)
let test_batch_footprint () =
  List.iter
    (fun (max_threads, k, expected) ->
      let s = Counting_sec.create_with ~config:(with_aggs k) ~max_threads () in
      cells_made := 0;
      Counting_sec.push s ~tid:0 1;
      Alcotest.(check int)
        (Printf.sprintf "max_threads %d, K = %d: cells per lone push"
           max_threads k)
        expected !cells_made)
    [ (56, 2, 35); (56, 5, 19); (56, 1, 63); (192, 2, 103) ]

let test_tid_to_aggregator_coverage () =
  (* Every aggregator must receive traffic when tids cover [0, K). *)
  for aggs = 1 to 5 do
    let s =
      Sec.create_with ~config:(with_aggs ~stats:true aggs) ~max_threads:8 ()
    in
    for tid = 0 to 7 do
      Sec.push s ~tid tid
    done;
    Alcotest.(check int)
      (Printf.sprintf "%d aggregators hold all pushes" aggs)
      8 (Sec.depth s)
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sec"
    [
      ("standard (2 aggregators)", Testkit.standard_suite (module Sec_agg2));
      ("standard (1 aggregator)", Testkit.standard_suite (module Sec_agg1));
      ( "standard (3 aggregators)",
        Testkit.standard_suite ~threads:6 (module Sec_agg3) );
      ( "standard (5 aggregators)",
        Testkit.standard_suite ~threads:5 (module Sec_agg5) );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "accessor" `Quick test_config_accessor;
        ] );
      ( "single thread",
        [
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "pop beyond depth" `Quick test_pop_beyond_depth;
          Alcotest.test_case "interleaved types" `Quick test_interleaved_types;
        ] );
      ( "stats",
        [
          Alcotest.test_case "single thread batches" `Quick
            test_stats_single_thread;
          Alcotest.test_case "accounting invariant" `Quick
            test_stats_accounting_invariant;
          Alcotest.test_case "elimination under symmetry" `Quick
            test_stats_elimination_under_symmetry;
          Alcotest.test_case "helpers" `Quick test_stats_helpers;
          Alcotest.test_case "schedule-neutral" `Quick
            test_stats_schedule_neutral;
        ] );
      ( "homogeneous workloads",
        [
          Alcotest.test_case "parallel push-only" `Quick test_push_only_parallel;
          Alcotest.test_case "parallel pop-only" `Quick test_pop_only_parallel;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_sequential_any_config;
          QCheck_alcotest.to_alcotest qcheck_stats_percentages;
          Alcotest.test_case "aggregator coverage" `Quick
            test_tid_to_aggregator_coverage;
          Alcotest.test_case "batch capacity overflow" `Quick
            test_capacity_overflow;
          Alcotest.test_case "batch footprint" `Quick test_batch_footprint;
        ] );
      ( "freezer",
        [
          Alcotest.test_case "fair at 56 fibers" `Quick test_freezer_fair_56;
          Alcotest.test_case "fair at 12 fibers" `Quick test_freezer_fair_12;
          Alcotest.test_case "uncontended ops pin" `Quick
            test_freezer_uncontended_pin;
          Alcotest.test_case "contended ops pin" `Quick
            test_freezer_contended_pin;
          Alcotest.test_case "events per op pin" `Quick
            test_freezer_events_pin;
          Alcotest.test_case "no probe without backoff" `Quick
            test_no_probe_without_backoff;
        ] );
    ]
