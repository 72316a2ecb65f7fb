(* Tests for the baseline stacks (TRB, LCK, EB, FC, CC, TSI) and their
   substrates (exchanger, flat-combining and CC-Synch executors). *)

module P = Sec_prim.Native
module Treiber = Sec_stacks.Treiber.Make (P) (Sec_reclaim.Reclaim.Gc)
module Lock_stack = Sec_stacks.Serial_stack.Lck (P)
module Eb = Sec_stacks.Eb_stack.Make (P)
module Fc_stack = Sec_stacks.Serial_stack.Fc (P)
module Cc_stack = Sec_stacks.Serial_stack.Cc (P)
module Ts = Sec_stacks.Ts_stack.Make (P) (Sec_reclaim.Reclaim.Gc)
module Exchanger = Sec_stacks.Exchanger.Make (P)
module Fc = Sec_stacks.Fc.Make (P)
module Ccsynch = Sec_stacks.Ccsynch.Make (P)

(* ------------------------------------------------------------------ *)
(* Exchanger                                                            *)

let test_exchanger_timeout () =
  let x = Exchanger.create () in
  match Exchanger.exchange x 1 ~timeout:1000 with
  | Exchanger.Timed_out { crowded } ->
      Alcotest.(check bool) "lonely, not crowded" false crowded
  | Exchanger.Exchanged _ -> Alcotest.fail "lonely exchange must time out"

let test_exchanger_pairs () =
  (* Two threads exchanging must each receive the other's offer. *)
  let x = Exchanger.create () in
  let got = Array.make 2 (-1) in
  let body tid offer () =
    let rec go () =
      match Exchanger.exchange x offer ~timeout:100_000 with
      | Exchanger.Exchanged v -> got.(tid) <- v
      | Exchanger.Timed_out _ -> go ()
    in
    go ()
  in
  let d = Domain.spawn (body 1 200) in
  body 0 100 ();
  Domain.join d;
  Alcotest.(check int) "thread 0 got 200" 200 got.(0);
  Alcotest.(check int) "thread 1 got 100" 100 got.(1)

let test_exchanger_many_pairs () =
  (* Four threads exchange opportunistically until a global number of
     successes is reached (a fixed per-thread quota could strand the last
     thread without a partner). Every received offer must be unique: the
     exchanger never delivers an offer twice. *)
  let x = Exchanger.create () in
  let n = 4 and target = 200 in
  let successes = Atomic.make 0 in
  let received = Array.make n [] in
  let body tid () =
    let attempt = ref 0 in
    while Atomic.get successes < target do
      incr attempt;
      let offer = (tid * 1_000_000) + !attempt in
      match Exchanger.exchange x offer ~timeout:20_000 with
      | Exchanger.Exchanged v ->
          received.(tid) <- v :: received.(tid);
          Atomic.incr successes
      | Exchanger.Timed_out _ -> ()
    done
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  let all = Array.to_list received |> List.concat in
  Alcotest.(check bool) "reached the target" true (List.length all >= target);
  let unique = List.sort_uniq compare all in
  Alcotest.(check int) "offers received at most once" (List.length all)
    (List.length unique)

(* ------------------------------------------------------------------ *)
(* Flat-combining executor                                              *)

let test_fc_counter () =
  (* Use FC to protect a sequential counter; no increments may be lost and
     some requests must have been executed by a combiner. *)
  let counter = ref 0 in
  let fc =
    Fc.create ~max_threads:4
      ~apply:(fun n ->
        counter := !counter + n;
        !counter)
      ()
  in
  let n = 4 and per_thread = 2_000 in
  let body tid () =
    for _ = 1 to per_thread do
      ignore (Fc.apply fc ~tid 1)
    done
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (n * per_thread) !counter;
  Alcotest.(check bool) "combining happened" true (Fc.combined_ops fc > 0)

let test_fc_result_routing () =
  (* Results must go back to the requester: each thread adds its own tag
     and checks the running value is consistent (monotone). *)
  let fc = Fc.create ~max_threads:2 ~apply:(fun x -> x * 2) () in
  for i = 1 to 100 do
    Alcotest.(check int) "doubled" (2 * i) (Fc.apply fc ~tid:0 i)
  done

(* ------------------------------------------------------------------ *)
(* CC-Synch executor                                                    *)

let test_ccsynch_counter () =
  let counter = ref 0 in
  let cc =
    Ccsynch.create ~max_threads:4
      ~apply:(fun n ->
        counter := !counter + n;
        !counter)
      ()
  in
  let n = 4 and per_thread = 2_000 in
  let body tid () =
    for _ = 1 to per_thread do
      ignore (Ccsynch.apply cc ~tid 1)
    done
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (n * per_thread) !counter

let test_ccsynch_sequential () =
  let cc = Ccsynch.create ~max_threads:1 ~apply:(fun x -> x + 1) () in
  for i = 0 to 50 do
    Alcotest.(check int) "increment result" (i + 1) (Ccsynch.apply cc ~tid:0 i)
  done

let test_ccsynch_combine_limit () =
  (* With a tiny combine limit the role must hand off rather than starve:
     the run still completes and sums correctly. *)
  let counter = ref 0 in
  let cc =
    Ccsynch.create ~max_threads:3 ~combine_limit:2
      ~apply:(fun n ->
        counter := !counter + n;
        !counter)
      ()
  in
  let body tid () =
    for _ = 1 to 1_000 do
      ignore (Ccsynch.apply cc ~tid 1)
    done
  in
  let ds = List.init 2 (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "sum with handoffs" 3_000 !counter;
  Alcotest.(check bool) "handoffs happened" true (Ccsynch.handoffs cc > 0)

(* ------------------------------------------------------------------ *)
(* TSI specifics                                                        *)

let test_tsi_cross_thread_pop () =
  (* Values pushed by one thread must be poppable by another. *)
  let s = Ts.create ~max_threads:2 () in
  Ts.push s ~tid:0 11;
  Ts.push s ~tid:1 22;
  let a = Ts.pop s ~tid:0 and b = Ts.pop s ~tid:0 in
  let got = List.sort compare [ a; b ] in
  Alcotest.(check (list (option int))) "both values" [ Some 11; Some 22 ] got;
  Alcotest.(check (option int)) "then empty" None (Ts.pop s ~tid:1)

let test_tsi_pool_trimming () =
  (* Push/pop churn in one pool must not grow scans unboundedly: after
     draining, a fresh pop returns quickly with None. *)
  let s = Ts.create ~max_threads:1 () in
  for round = 1 to 100 do
    Ts.push s ~tid:0 round;
    Alcotest.(check (option int)) "lifo" (Some round) (Ts.pop s ~tid:0)
  done;
  Alcotest.(check (option int)) "drained" None (Ts.pop s ~tid:0)

(* ------------------------------------------------------------------ *)
(* Degenerate configurations                                            *)

let test_single_slot_configs () =
  (* Every implementation must work with max_threads = 1 (single-slot
     exchanger arrays, one publication record, one pool, ...). *)
  List.iter
    (fun (name, push, pop) ->
      push 5;
      push 6;
      Alcotest.(check (option int)) (name ^ " pop 6") (Some 6) (pop ());
      Alcotest.(check (option int)) (name ^ " pop 5") (Some 5) (pop ());
      Alcotest.(check (option int)) (name ^ " empty") None (pop ()))
    [
      (let s = Treiber.create ~max_threads:1 () in
       ("treiber", Treiber.push s ~tid:0, fun () -> Treiber.pop s ~tid:0));
      (let s = Eb.create ~max_threads:1 () in
       ("eb", Eb.push s ~tid:0, fun () -> Eb.pop s ~tid:0));
      (let s = Fc_stack.create ~max_threads:1 () in
       ("fc", Fc_stack.push s ~tid:0, fun () -> Fc_stack.pop s ~tid:0));
      (let s = Cc_stack.create ~max_threads:1 () in
       ("cc", Cc_stack.push s ~tid:0, fun () -> Cc_stack.pop s ~tid:0));
      (let s = Ts.create ~max_threads:1 () in
       ("tsi", Ts.push s ~tid:0, fun () -> Ts.pop s ~tid:0));
      (let s = Lock_stack.create ~max_threads:1 () in
       ("lock", Lock_stack.push s ~tid:0, fun () -> Lock_stack.pop s ~tid:0));
    ]

let test_fc_stats_accessors () =
  let fc = Fc.create ~max_threads:2 ~apply:(fun x -> x) () in
  ignore (Fc.apply fc ~tid:0 1);
  Alcotest.(check bool) "acquisitions counted" true
    (Fc.lock_acquisitions fc >= 1);
  Alcotest.(check bool) "combines counted" true (Fc.combined_ops fc >= 1)

let test_tsi_take_now_elimination () =
  (* A pop that starts before a push completes may take the in-flight node
     immediately (interval elimination). Sequentially: a pop after a push
     must of course find it — this exercises the Take_now path because the
     node's interval begins after the pop's start only under concurrency,
     so here we just pin the basic visibility guarantee. *)
  let s = Ts.create ~max_threads:2 () in
  Ts.push s ~tid:0 1;
  Alcotest.(check (option int)) "peek sees it" (Some 1) (Ts.peek s ~tid:1);
  Alcotest.(check (option int)) "pop takes it" (Some 1) (Ts.pop s ~tid:1)

let test_tsi_peek_skips_taken () =
  let s = Ts.create ~max_threads:1 () in
  Ts.push s ~tid:0 1;
  Ts.push s ~tid:0 2;
  ignore (Ts.pop s ~tid:0);
  Alcotest.(check (option int)) "peek skips the taken node" (Some 1)
    (Ts.peek s ~tid:0)

let qcheck_stack_pairwise_agreement =
  (* All implementations must agree with each other on any sequential op
     sequence (not just with the model) — catches divergence in empty /
     duplicate handling. *)
  QCheck.Test.make ~name:"all stacks agree pairwise" ~count:100
    QCheck.(list (option small_int))
    (fun ops ->
      let trace push pop =
        List.map
          (function
            | Some v ->
                push v;
                None
            | None -> pop ())
          ops
      in
      let t_trb =
        let s = Treiber.create () in
        trace (Treiber.push s ~tid:0) (fun () -> Treiber.pop s ~tid:0)
      in
      let t_eb =
        let s = Eb.create () in
        trace (Eb.push s ~tid:0) (fun () -> Eb.pop s ~tid:0)
      in
      let t_fc =
        let s = Fc_stack.create () in
        trace (Fc_stack.push s ~tid:0) (fun () -> Fc_stack.pop s ~tid:0)
      in
      let t_cc =
        let s = Cc_stack.create () in
        trace (Cc_stack.push s ~tid:0) (fun () -> Cc_stack.pop s ~tid:0)
      in
      let t_ts =
        let s = Ts.create () in
        trace (Ts.push s ~tid:0) (fun () -> Ts.pop s ~tid:0)
      in
      let t_sec =
        let module Sec = Sec_core.Sec_stack.Make (P) in
        let s = Sec.create () in
        trace (Sec.push s ~tid:0) (fun () -> Sec.pop s ~tid:0)
      in
      t_trb = t_eb && t_eb = t_fc && t_fc = t_cc && t_cc = t_ts
      && t_ts = t_sec)

(* ------------------------------------------------------------------ *)
(* Schedule pins (Testkit.check_schedule_pins) of the lock and combining
   baselines. BENCH_sim.json gates only the paper set, and only within
   10%; a change to an executor's simulated accesses moves a digest here.

   FC and CC are pinned with their statistics counted in per-thread
   tallies. With a simulated fetch-and-add per counted event they read
   FC (579, 2430246457068166037) and (698, 1559653859243099279), CC (381,
   3779761091714179767) and (545, 1746916325158910419) at 4 and 8
   threads. *)

let test_baseline_pins () =
  Testkit.check_schedule_pins
    [
      ("FC", 4, 747, 130538909938854189);
      ("FC", 8, 789, 4284007171542472643);
      ("CC", 4, 447, 1471608554253264337);
      ("CC", 8, 597, 2117641946945201566);
      ("HS", 4, 403, 1479315839339158650);
      ("HS", 8, 592, 1587870930945828095);
      ("LCK", 4, 229, 1088474989790221585);
      ("LCK", 8, 254, 2566373623965135064);
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stacks"
    [
      ("treiber", Testkit.standard_suite (module Treiber));
      ("lock", Testkit.standard_suite (module Lock_stack));
      ("eb", Testkit.standard_suite (module Eb));
      ("fc", Testkit.standard_suite (module Fc_stack));
      ("cc", Testkit.standard_suite (module Cc_stack));
      ("tsi", Testkit.standard_suite (module Ts));
      ( "exchanger",
        [
          Alcotest.test_case "timeout" `Quick test_exchanger_timeout;
          Alcotest.test_case "pairs" `Quick test_exchanger_pairs;
          Alcotest.test_case "many pairs" `Quick test_exchanger_many_pairs;
        ] );
      ( "fc executor",
        [
          Alcotest.test_case "protected counter" `Quick test_fc_counter;
          Alcotest.test_case "result routing" `Quick test_fc_result_routing;
        ] );
      ( "ccsynch executor",
        [
          Alcotest.test_case "protected counter" `Quick test_ccsynch_counter;
          Alcotest.test_case "sequential" `Quick test_ccsynch_sequential;
          Alcotest.test_case "combine limit handoff" `Quick
            test_ccsynch_combine_limit;
        ] );
      ( "tsi details",
        [
          Alcotest.test_case "cross-thread pop" `Quick test_tsi_cross_thread_pop;
          Alcotest.test_case "pool trimming" `Quick test_tsi_pool_trimming;
          Alcotest.test_case "visibility" `Quick test_tsi_take_now_elimination;
          Alcotest.test_case "peek skips taken" `Quick test_tsi_peek_skips_taken;
        ] );
      ( "degenerate configs",
        [
          Alcotest.test_case "max_threads = 1 everywhere" `Quick
            test_single_slot_configs;
          Alcotest.test_case "fc stats accessors" `Quick test_fc_stats_accessors;
          QCheck_alcotest.to_alcotest qcheck_stack_pairwise_agreement;
        ] );
      ( "schedule pins",
        [
          Alcotest.test_case "FC, CC, HS and LCK" `Quick test_baseline_pins;
        ] );
    ]
