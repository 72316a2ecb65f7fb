(* Tests for the benchmark harness: workload mixes, the algorithm
   registry, both runners, reporting, and the experiment registry. *)

module W = Sec_harness.Workload
module Registry = Sec_harness.Registry
module Measurement = Sec_harness.Measurement
module Native_runner = Sec_harness.Native_runner
module Sim_runner = Sec_harness.Sim_runner
module Report = Sec_harness.Report
module Experiments = Sec_harness.Experiments

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

let test_workload_presets () =
  List.iter
    (fun m ->
      Alcotest.(check int)
        (m.W.label ^ " sums to 100")
        100
        (m.W.push_pct + m.W.pop_pct + m.W.peek_pct))
    W.all;
  Alcotest.(check string) "lookup by label" "50%upd" (W.by_name "50%upd").W.label;
  Alcotest.check_raises "unknown workload"
    (Invalid_argument "unknown workload: nope") (fun () ->
      ignore (W.by_name "nope"))

let test_workload_pick_boundaries () =
  let m = W.update_heavy in
  Alcotest.(check bool) "0 is push" true (W.pick m 0 = W.Push);
  Alcotest.(check bool) "49 is push" true (W.pick m 49 = W.Push);
  Alcotest.(check bool) "50 is pop" true (W.pick m 50 = W.Pop);
  Alcotest.(check bool) "99 is pop" true (W.pick m 99 = W.Pop);
  let r = W.read_heavy in
  Alcotest.(check bool) "read-heavy 10 is peek" true (W.pick r 10 = W.Peek);
  Alcotest.(check bool) "read-heavy 99 is peek" true (W.pick r 99 = W.Peek)

let qcheck_workload_distribution =
  QCheck.Test.make ~name:"pick follows the declared percentages" ~count:20
    QCheck.(int_range 0 3)
    (fun which ->
      let m = List.nth W.all which in
      let rng = Sec_prim.Rng.create 7L in
      let push = ref 0 and pop = ref 0 and peek = ref 0 in
      let n = 20_000 in
      for _ = 1 to n do
        match W.pick m (Sec_prim.Rng.int rng 100) with
        | W.Push -> incr push
        | W.Pop -> incr pop
        | W.Peek -> incr peek
      done;
      let close pct count = abs ((pct * n / 100) - count) < n / 20 in
      close m.W.push_pct !push && close m.W.pop_pct !pop
      && close m.W.peek_pct !peek)

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)

let test_registry_names () =
  Alcotest.(check (list string))
    "paper set order"
    [ "SEC"; "TRB"; "EB"; "FC"; "CC"; "TSI" ]
    (List.map (fun e -> e.Registry.name) Registry.paper_set);
  Alcotest.(check string) "find TSI" "TSI" (Registry.find "TSI").Registry.name;
  Alcotest.(check string) "find SEC_Agg3" "SEC_Agg3"
    (Registry.find "SEC_Agg3").Registry.name;
  Alcotest.check_raises "unknown algorithm"
    (Invalid_argument "unknown algorithm: XYZ") (fun () ->
      ignore (Registry.find "XYZ"))

let test_registry_entries_work () =
  (* Every registered maker must yield a working stack on both substrates. *)
  List.iter
    (fun (e : Registry.entry) ->
      let module Maker = (val e.Registry.maker) in
      let module S = Maker (Sec_prim.Native) in
      let s = S.create ~max_threads:2 () in
      S.push s ~tid:0 7;
      Alcotest.(check (option int)) (e.Registry.name ^ " native pop") (Some 7)
        (S.pop s ~tid:0))
    (Registry.all @ Registry.sec_aggregator_sweep)

let test_registry_sec_config () =
  let e = Registry.sec_with ~freeze_backoff:0 ~aggregators:4 ~label:"X" () in
  let module Maker = (val e.Registry.maker) in
  let module S = Maker (Sec_prim.Native) in
  Alcotest.(check string) "label" "X" S.name

(* perfbench's native-mixed workload looks SEC up as "SEC+MAG": the
   name must run exactly SEC, schedule for schedule (the shape of
   perfbench/test_perfbench.ml). *)
let test_registry_perfbench_alias () =
  let module R = Sec_harness.Runner.Make (Sec_sim.Sim.Prim) in
  let run (e : Registry.entry) =
    let outcome, stats =
      Sec_sim.Sim.run ~seed:7 ~jitter:2 ~topology:Sec_sim.Topology.emerald
        (fun () ->
          snd
            (R.run_maker e.Registry.maker ~op_overhead:10 ~threads:8
               ~stop:(R.Timed 300_000) ~mix:W.update_heavy ()))
    in
    (stats.Sec_sim.Sim.schedule_digest, outcome.R.counts)
  in
  let sec_digest, sec_counts = run Registry.sec in
  let alias_digest, alias_counts = run (Registry.find "SEC+MAG") in
  Alcotest.(check int) "schedule digest" sec_digest alias_digest;
  Alcotest.(check (array int)) "per-thread counts" sec_counts alias_counts

(* ------------------------------------------------------------------ *)
(* Runners                                                              *)

let test_native_runner_smoke () =
  let m =
    Native_runner.run Registry.treiber.Registry.maker ~threads:2 ~duration:0.05
      ~mix:W.update_heavy ()
  in
  Alcotest.(check string) "algorithm" "TRB" m.Measurement.algorithm;
  Alcotest.(check int) "threads" 2 m.Measurement.threads;
  Alcotest.(check bool) "did work" true (m.Measurement.ops > 0);
  Alcotest.(check bool) "throughput positive" true (m.Measurement.mops > 0.)

let test_sim_runner_smoke () =
  let m, _ =
    Sim_runner.run_with_stats Registry.sec.Registry.maker
      ~topology:Sec_sim.Topology.testbox ~threads:8 ~duration_cycles:30_000
      ~mix:W.mixed ()
  in
  Alcotest.(check string) "algorithm" "SEC" m.Measurement.algorithm;
  Alcotest.(check bool) "did work" true (m.Measurement.ops > 0)

let test_sim_runner_deterministic () =
  let run () =
    fst
      (Sim_runner.run_with_stats Registry.treiber.Registry.maker
         ~topology:Sec_sim.Topology.testbox ~threads:4 ~duration_cycles:20_000
         ~mix:W.update_heavy ~seed:5 ())
  in
  Alcotest.(check int) "same seed, same ops" (run ()).Measurement.ops
    (run ()).Measurement.ops

let test_sim_runner_sec_stats () =
  let stats, _ =
    Sim_runner.run_sec_stats_with ~config:Sec_core.Config.default
      ~topology:Sec_sim.Topology.testbox ~threads:8 ~duration_cycles:50_000
      ~mix:W.update_heavy ()
  in
  let module St = Sec_core.Sec_stats in
  Alcotest.(check bool) "batches formed" true (stats.St.batches > 0);
  Alcotest.(check int) "accounting holds" stats.St.operations
    (stats.St.eliminated + stats.St.combined);
  (* The prefill (one single-op batch per push) must have been excluded:
     with 8 symmetric threads the average batch exceeds 1 op. *)
  Alcotest.(check bool) "prefill excluded from degree" true
    (St.batching_degree stats > 1.05)

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

let test_measurement_scaling () =
  let native =
    Measurement.of_native ~algorithm:"x" ~threads:1 ~ops:2_000_000 ~elapsed:1.0
  in
  Alcotest.(check (float 1e-6)) "native mops" 2.0 native.Measurement.mops;
  let sim =
    Measurement.of_simulated ~algorithm:"x" ~threads:1 ~ops:3_000 ~cycles:3_000
  in
  (* 3000 ops in 3000 cycles at 3 GHz = 3000 Mops/s. *)
  Alcotest.(check (float 1e-3)) "simulated mops" 3_000. sim.Measurement.mops

let test_csv_roundtrip () =
  let tmp = Filename.temp_file "sec" "" in
  Sys.remove tmp;
  (* Two missing levels: the writer creates every parent. *)
  let dir = Filename.concat (Filename.concat tmp "a") "b" in
  Report.csv ~dir ~file:"t.csv" ~header:[ "a"; "b" ]
    ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in (Filename.concat dir "t.csv") in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Alcotest.(check (list string)) "content" [ "a,b"; "1,2"; "3,4" ] lines

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                  *)

let test_experiment_ids () =
  let ids = Experiments.ids () in
  List.iter
    (fun id ->
      if not (List.mem id ids) then Alcotest.failf "missing experiment %s" id)
    [
      "fig2"; "fig3"; "fig4"; "table1"; "fig5"; "fig6"; "fig7"; "fig8";
      "table2"; "fig9"; "fig10"; "fig11"; "fig12"; "table3";
      "ablation-backoff"; "ablation-funnel";
    ];
  Alcotest.(check bool) "find works" true (Experiments.find "fig2" <> None);
  Alcotest.(check bool) "unknown is None" true (Experiments.find "nope" = None)

(* Every experiment has a plan, with every backend selected, and no two
   cells share an id or a CSV file. *)
let test_experiment_cells_unique () =
  let opts = { Experiments.default_opts with Experiments.backend = `Both } in
  let cells =
    List.concat_map
      (fun (e : Experiments.t) ->
        match e.plan opts with
        | [] -> Alcotest.failf "experiment %s has no cells" e.id
        | cs -> cs)
      Experiments.all
  in
  let unique what keys =
    let sorted = List.sort compare keys in
    let rec dup = function
      | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
      | _ -> None
    in
    Option.iter (Alcotest.failf "duplicate %s %S" what) (dup sorted)
  in
  unique "cell id" (List.map (fun c -> c.Experiments.cell_id) cells);
  unique "CSV file" (List.map (fun c -> c.Experiments.cell_file) cells)

(* A sim bench row (SEC at 4 threads, 100 operations) carrying the
   given counts, a document of such rows, and the metrics [--against]
   flags between two documents. *)
module J = Sec_harness.Bench_json

let bench_row ?(threads = 4) ?(allocs = 50) ?(events = 2_000)
    ?(switches = 1_000) ?(cells = 500) () =
  {
    J.algorithm = "SEC";
    threads;
    ops = 100;
    allocs;
    events;
    switches;
    cells;
    throughput = 0.001;
  }

let bench_doc rows =
  { J.machine = "testbox"; seed = 1; duration = 100_000.; rows }

let bench_regressions ?threshold ~baseline ~current () =
  List.map
    (fun (r : J.regression) -> r.J.r_metric)
    (J.check ?threshold ~baseline ~current ())

(* The per-operation count columns gate alike: a count per operation
   rising past the threshold fails [--against], one within it or a
   fall passes, and the column survives a write and a read back. *)
let check_count_gate metric base row column =
  let doc n = bench_doc [ row n ] in
  let gate name expected n =
    Alcotest.(check (list string))
      (metric ^ " " ^ name) expected
      (bench_regressions ~baseline:(doc base) ~current:(doc n) ())
  in
  gate "within 10%" [] (base * 11 / 10);
  gate "past 10%" [ metric ] ((base * 11 / 10) + 1);
  gate "fewer pass" [] (base / 2);
  Alcotest.(check int)
    (metric ^ " written and read back")
    base
    (column (List.hd (J.of_string (J.to_string (doc base))).J.rows))

(* Simulated scheduling events per operation. *)
let test_bench_events_gate () =
  check_count_gate "events/op" 2_000
    (fun events -> bench_row ~events ())
    (fun r -> r.J.events)

(* Context switches per operation, gated independently of events. *)
let test_bench_switches_gate () =
  check_count_gate "switches/op" 1_000
    (fun switches -> bench_row ~switches ())
    (fun r -> r.J.switches);
  Alcotest.(check (list string))
    "both counts gate" [ "events/op"; "switches/op" ]
    (bench_regressions
       ~baseline:(bench_doc [ bench_row () ])
       ~current:(bench_doc [ bench_row ~events:3_000 ~switches:2_000 () ])
       ())

(* Simulated cells created per operation (SEC's batch footprint). *)
let test_bench_cells_gate () =
  check_count_gate "cells/op" 500
    (fun cells -> bench_row ~cells ())
    (fun r -> r.J.cells)

(* One [~threshold] sets every gate, allocations per op included. *)
let test_bench_allocs_threshold () =
  check_count_gate "allocs/op" 50
    (fun allocs -> bench_row ~allocs ())
    (fun r -> r.J.allocs);
  let baseline = bench_doc [ bench_row ~allocs:50 () ]
  and current = bench_doc [ bench_row ~allocs:70 () ] in
  Alcotest.(check (list string))
    "+40% under a 50% threshold" []
    (bench_regressions ~threshold:0.5 ~baseline ~current ());
  Alcotest.(check (list string))
    "+40% past a 20% threshold" [ "allocs/op" ]
    (bench_regressions ~threshold:0.2 ~baseline ~current ())

(* A paper-set row the current run lacks is a regression, not a pass;
   a missing row of a non-gating structure is not. *)
let test_bench_missing_row () =
  let ebr = { (bench_row ()) with J.algorithm = "TRB-EBR" } in
  let baseline =
    bench_doc [ bench_row (); bench_row ~threads:8 (); ebr ]
  in
  Alcotest.(check (list string))
    "SEC t=8 dropped" [ "missing" ]
    (bench_regressions ~baseline ~current:(bench_doc [ bench_row (); ebr ]) ());
  Alcotest.(check (list string))
    "TRB-EBR dropped" []
    (bench_regressions ~baseline
       ~current:(bench_doc [ bench_row (); bench_row ~threads:8 () ])
       ())

(* Every column is required; keys the reader does not know are
   ignored. *)
let test_bench_missing_column () =
  let doc row =
    Printf.sprintf
      {|{"machine": "testbox", "seed": 1, "duration": 100000.0,
         "rows": [{"algorithm": "SEC", "threads": 4, "ops": 100,
                   "allocs": 50, "events": 2000, "switches": 1000,
                   %s"throughput": 0.001}]}|}
      row
  in
  Alcotest.check_raises "no cells column"
    (J.Parse_error "missing field cells") (fun () ->
      ignore (J.of_string (doc "")));
  Alcotest.(check int) "an unknown key is ignored" 500
    (List.hd (J.of_string (doc {|"cells": 500, "gc_major_colls": 0, |})).J.rows)
      .J.cells

(* A \u escape with non-hex digits is a parse error at its byte, not
   an exception from [int_of_string]. *)
let test_bench_bad_escape () =
  List.iter
    (fun src ->
      Alcotest.check_raises src (J.Parse_error "bad \\u escape at byte 3")
        (fun () -> ignore (J.parse src)))
    [ {|"\u00zz"|}; {|"\u_0_1"|}; {|"\u00"|} ];
  Alcotest.(check bool) "a hex escape decodes" true
    (J.parse {|"\u0041"|} = J.Str "A")

(* Every two-character escape JSON defines decodes; the lint's SARIF
   writer emits [\r] for a carriage return. *)
let test_bench_escapes () =
  List.iter
    (fun (src, want) ->
      Alcotest.(check bool) src true (J.parse src = J.Str want))
    [
      ({|"a\rb"|}, "a\rb");
      ({|"a\/b"|}, "a/b");
      ({|"a\bb"|}, "a\bb");
      ({|"a\fb"|}, "a\012b");
      ({|"\"\\\n\t"|}, "\"\\\n\t");
    ];
  Alcotest.check_raises "an unknown escape" (J.Parse_error "bad escape at byte 2")
    (fun () -> ignore (J.parse {|"\x"|}))

let test_experiment_thread_lists () =
  let top = Experiments.threads_for Sec_sim.Topology.emerald in
  Alcotest.(check int) "emerald sweep tops out at 56" 56
    (List.fold_left max 0 top);
  let sap = Experiments.threads_for Sec_sim.Topology.sapphire in
  Alcotest.(check int) "sapphire sweep tops out at 192" 192
    (List.fold_left max 0 sap)

let test_experiment_duration_scaling () =
  let base = Experiments.duration_cycles Experiments.default_opts in
  let half =
    Experiments.duration_cycles
      { Experiments.default_opts with Experiments.scale = 0.5 }
  in
  Alcotest.(check bool) "scale halves duration" true
    (abs ((base / 2) - half) <= 1);
  let tiny =
    Experiments.duration_cycles
      { Experiments.default_opts with Experiments.scale = 0.000001 }
  in
  Alcotest.(check bool) "duration floored" true (tiny >= 10_000)

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "presets" `Quick test_workload_presets;
          Alcotest.test_case "pick boundaries" `Quick
            test_workload_pick_boundaries;
          QCheck_alcotest.to_alcotest qcheck_workload_distribution;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "entries work" `Quick test_registry_entries_work;
          Alcotest.test_case "sec config" `Quick test_registry_sec_config;
          Alcotest.test_case "perfbench alias" `Quick
            test_registry_perfbench_alias;
        ] );
      ( "runners",
        [
          Alcotest.test_case "native smoke" `Quick test_native_runner_smoke;
          Alcotest.test_case "sim smoke" `Quick test_sim_runner_smoke;
          Alcotest.test_case "sim deterministic" `Quick
            test_sim_runner_deterministic;
          Alcotest.test_case "sec stats run" `Quick test_sim_runner_sec_stats;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "measurement scaling" `Quick
            test_measurement_scaling;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "bench events gate" `Quick
            test_bench_events_gate;
          Alcotest.test_case "bench switches gate" `Quick
            test_bench_switches_gate;
          Alcotest.test_case "bench cells gate" `Quick test_bench_cells_gate;
          Alcotest.test_case "bench allocs threshold" `Quick
            test_bench_allocs_threshold;
          Alcotest.test_case "bench missing row" `Quick test_bench_missing_row;
          Alcotest.test_case "bench missing column" `Quick
            test_bench_missing_column;
          Alcotest.test_case "bench bad escape" `Quick test_bench_bad_escape;
          Alcotest.test_case "bench escapes" `Quick test_bench_escapes;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "ids" `Quick test_experiment_ids;
          Alcotest.test_case "cells unique" `Quick
            test_experiment_cells_unique;
          Alcotest.test_case "thread lists" `Quick test_experiment_thread_lists;
          Alcotest.test_case "duration scaling" `Quick
            test_experiment_duration_scaling;
        ] );
    ]
