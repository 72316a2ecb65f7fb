(* Tests for the extension modules: hierarchical H-Synch combining,
   Treiber's stack over epoch-based reclamation (paper Section 4), and
   latency histograms. *)

module P = Sec_prim.Native
module Hsynch = Sec_stacks.Hsynch.Make (P)
module H_stack = Sec_stacks.Serial_stack.Hs (P)
module SimH = Sec_stacks.Serial_stack.Hs (Sec_sim.Sim.Prim)
module Observed = Testkit.Observed_ebr (P)
module Reclaimed = Sec_stacks.Treiber.Make (P) (Observed)
module Latency = Sec_harness.Latency

(* ------------------------------------------------------------------ *)
(* H-Synch                                                              *)

let test_hsynch_counter () =
  let counter = ref 0 in
  let h =
    Hsynch.create ~max_threads:4 ~cluster_size:2
      ~apply:(fun n ->
        counter := !counter + n;
        !counter)
      ()
  in
  let n = 4 and per_thread = 2_000 in
  let body tid () =
    for _ = 1 to per_thread do
      ignore (Hsynch.apply h ~tid 1)
    done
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments across clusters" (n * per_thread)
    !counter

let test_hsynch_sequential () =
  let h = Hsynch.create ~max_threads:1 ~apply:(fun x -> x * 3) () in
  for i = 1 to 50 do
    Alcotest.(check int) "result routing" (3 * i) (Hsynch.apply h ~tid:0 i)
  done

let test_hstack_simulated_at_scale () =
  (* Conservation at 48 fibers spanning both simulated sockets. *)
  let module SP = Sec_sim.Sim.Prim in
  let delta, _ =
    Sec_sim.Sim.run ~topology:Sec_sim.Topology.emerald (fun () ->
        let s = SimH.create ~max_threads:48 () in
        let pushed = ref 0 and popped = ref 0 in
        for _ = 1 to 48 do
          Sec_sim.Sim.spawn (fun () ->
              let tid = Sec_sim.Sim.fiber_id () in
              for i = 1 to 60 do
                if SP.rand_int 2 = 0 then begin
                  SimH.push s ~tid i;
                  incr pushed
                end
                else
                  match SimH.pop s ~tid with
                  | Some _ -> incr popped
                  | None -> ()
              done)
        done;
        Sec_sim.Sim.await_all ();
        let rec drain n =
          match SimH.pop s ~tid:0 with Some _ -> drain (n + 1) | None -> n
        in
        !pushed - !popped - drain 0)
  in
  Alcotest.(check int) "pushed = popped + drained" 0 delta

(* ------------------------------------------------------------------ *)
(* Reclaimed stack                                                      *)

let test_reclaimed_lifo () =
  let s = Reclaimed.create ~max_threads:1 () in
  Reclaimed.push s ~tid:0 1;
  Reclaimed.push s ~tid:0 2;
  Alcotest.(check (option int)) "peek" (Some 2) (Reclaimed.peek s ~tid:0);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Reclaimed.pop s ~tid:0);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Reclaimed.pop s ~tid:0);
  Alcotest.(check (option int)) "empty" None (Reclaimed.pop s ~tid:0)

let test_reclaimed_destructors_run () =
  let s = Reclaimed.create ~max_threads:2 () in
  let r = Observed.state () in
  (* A reader pinned in a critical section holds back every destructor
     until it leaves: each node outlives its grace period. *)
  Observed.enter r ~tid:1;
  for i = 1 to 100 do
    Reclaimed.push s ~tid:0 i
  done;
  for _ = 1 to 100 do
    ignore (Reclaimed.pop s ~tid:0)
  done;
  Observed.flush r ~tid:0;
  Alcotest.(check int) "none reclaimed while a reader is pinned" 0
    (Atomic.get Observed.freed);
  Observed.exit r ~tid:1;
  Observed.flush r ~tid:0;
  Alcotest.(check int) "every popped node reclaimed" 100
    (Atomic.get Observed.freed);
  let stats = Observed.stats r in
  Alcotest.(check int) "stats agree" 100 stats.Observed.reclaimed;
  Alcotest.(check int) "nothing pending" 0 stats.Observed.pending

let test_reclaimed_concurrent_safety () =
  (* Every pop retires its node, and once every thread is quiescent and
     flushed each retired node's destructor has run exactly once. *)
  let threads = 4 in
  let s = Reclaimed.create ~max_threads:threads () in
  let anomalies = Atomic.make 0 in
  let body tid () =
    for i = 1 to 3_000 do
      Reclaimed.push s ~tid i;
      match Reclaimed.pop s ~tid with
      | Some _ -> ()
      | None -> Atomic.incr anomalies (* can't happen: we just pushed *)
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no anomalies" 0 (Atomic.get anomalies);
  let r = Observed.state () in
  for tid = 0 to threads - 1 do
    Observed.flush r ~tid
  done;
  let stats = Observed.stats r in
  Alcotest.(check int) "all pops retired a node" (threads * 3_000)
    stats.Observed.retired;
  Alcotest.(check int) "each destructor ran once" (threads * 3_000)
    (Atomic.get Observed.freed)

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                    *)

let test_latency_empty () =
  let h = Latency.create () in
  Alcotest.(check int) "count" 0 (Latency.count h);
  Alcotest.(check (float 0.0)) "mean" 0. (Latency.mean h);
  Alcotest.(check int) "p99" 0 (Latency.percentile h 99.)

let test_latency_percentiles () =
  let h = Latency.create () in
  (* 90 fast ops (~8 cycles), 10 slow (~1000 cycles). *)
  for _ = 1 to 90 do
    Latency.add h 8
  done;
  for _ = 1 to 10 do
    Latency.add h 1000
  done;
  Alcotest.(check int) "count" 100 (Latency.count h);
  Alcotest.(check bool) "p50 is fast" true (Latency.percentile h 50. <= 8);
  Alcotest.(check bool) "p99 is slow" true (Latency.percentile h 99. >= 1000);
  Alcotest.(check bool) "p99 within 2x" true (Latency.percentile h 99. <= 2048);
  Alcotest.(check (float 1.)) "mean" 107.2 (Latency.mean h)

let test_latency_merge () =
  let a = Latency.create () and b = Latency.create () in
  Latency.add a 4;
  Latency.add b 4096;
  let m = Latency.merge a b in
  Alcotest.(check int) "merged count" 2 (Latency.count m);
  Alcotest.(check bool) "max preserved" true (Latency.percentile m 100. >= 4096)

let qcheck_latency_percentile_monotone =
  QCheck.Test.make ~name:"latency: percentiles are monotone" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (int_range 1 100_000))
    (fun samples ->
      let h = Latency.create () in
      List.iter (Latency.add h) samples;
      let p50 = Latency.percentile h 50. in
      let p90 = Latency.percentile h 90. in
      let p99 = Latency.percentile h 99. in
      p50 <= p90 && p90 <= p99
      && p99 >= List.fold_left max 1 samples / 2
      (* upper bound property: p100 >= max sample *)
      && Latency.percentile h 100. >= List.fold_left max 1 samples)

let () =
  Alcotest.run "extensions"
    [
      ( "hsynch",
        [
          Alcotest.test_case "counter across clusters" `Quick
            test_hsynch_counter;
          Alcotest.test_case "sequential" `Quick test_hsynch_sequential;
          Alcotest.test_case "48-fiber conservation" `Quick
            test_hstack_simulated_at_scale;
        ]
        @ Testkit.standard_suite (module H_stack) );
      ( "reclaimed stack",
        [
          Alcotest.test_case "lifo" `Quick test_reclaimed_lifo;
          Alcotest.test_case "destructors run" `Quick
            test_reclaimed_destructors_run;
          Alcotest.test_case "concurrent safety" `Quick
            test_reclaimed_concurrent_safety;
        ] );
      ( "latency histogram",
        [
          Alcotest.test_case "empty" `Quick test_latency_empty;
          Alcotest.test_case "percentiles" `Quick test_latency_percentiles;
          Alcotest.test_case "merge" `Quick test_latency_merge;
          QCheck_alcotest.to_alcotest qcheck_latency_percentile_monotone;
        ] );
    ]
