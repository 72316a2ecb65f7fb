(* Full benchmark harness.

   Part 1 (bechamel): uncontended single-threaded operation latency for
   every algorithm — one Test.make per algorithm, one group per paper
   table/figure, so regressions in the fast path of any implementation
   show up even without concurrency.

   Part 2 (reproduction): regenerates every figure and table of the
   paper's evaluation, then the supporting experiments, via the
   experiment registry (simulated NUMA machines; see DESIGN.md). Both
   sets fan their jobs out over the sweep pool; REPORT.md covers the
   paper set only. Scale with BENCH_SCALE (default 0.5); CSVs land in
   results/. *)

open Bechamel

module W = Sec_harness.Workload

(* A single-threaded operation stream following [mix], against a prefilled
   stack. Pops refill on empty so the working set stays bounded no matter
   how many iterations bechamel decides to run. *)
let op_test (entry : Sec_harness.Registry.entry) (mix : W.mix) =
  let module Maker = (val entry.Sec_harness.Registry.maker) in
  let module S = Maker (Sec_prim.Native) in
  let stack = S.create ~max_threads:1 () in
  for i = 1 to 256 do
    S.push stack ~tid:0 i
  done;
  let rng = Sec_prim.Rng.create 17L in
  Test.make ~name:entry.Sec_harness.Registry.name
    (Staged.stage (fun () ->
         match W.pick mix (Sec_prim.Rng.int rng 100) with
         | W.Push -> S.push stack ~tid:0 42
         | W.Pop ->
             if S.pop stack ~tid:0 = None then S.push stack ~tid:0 1
         | W.Peek -> ignore (S.peek stack ~tid:0)))

let latency_groups =
  (* One group per table/figure family; each group holds one Test.make per
     algorithm under that family's characteristic workload. *)
  [
    Test.make_grouped ~name:"fig2/fig5/fig9 (100% updates)"
      (List.map
         (fun e -> op_test e W.update_heavy)
         Sec_harness.Registry.paper_set);
    Test.make_grouped ~name:"fig2/fig5/fig9 (10% updates)"
      (List.map (fun e -> op_test e W.read_heavy) Sec_harness.Registry.paper_set);
    Test.make_grouped ~name:"fig3/fig6/fig10 (push+pop)"
      (List.map (fun e -> op_test e W.update_heavy) [ Sec_harness.Registry.tsi ]);
    Test.make_grouped ~name:"fig4 (SEC aggregators)"
      (List.map
         (fun e -> op_test e W.update_heavy)
         Sec_harness.Registry.sec_aggregator_sweep);
  ]

let run_latency () =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  print_endline "== Uncontended operation latency (bechamel, ns/op) ==";
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ instance ] group in
      let results = Analyze.all ols instance raw in
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            let ns =
              match Analyze.OLS.estimates ols with
              | Some (t :: _) -> t
              | _ -> nan
            in
            (name, ns) :: acc)
          results []
      in
      List.iter
        (fun (name, ns) -> Printf.printf "  %-40s %8.1f ns/op\n" name ns)
        (List.sort compare rows);
      print_newline ())
    latency_groups

let () =
  let scale =
    match Sys.getenv_opt "BENCH_SCALE" with
    | Some s -> float_of_string s
    | None -> 0.5
  in
  run_latency ();
  let opts =
    {
      Sec_harness.Experiments.default_opts with
      Sec_harness.Experiments.scale;
      csv_dir = Some "results";
    }
  in
  print_endline "\n== Paper reproduction (simulated NUMA machines) ==";
  let jobs = Sec_harness.Sweep.default_jobs () in
  Sec_harness.Experiments.run_figures opts ~jobs
    ~report_path:"results/REPORT.md" ();
  Sec_harness.Experiments.run_figures opts ~jobs
    ~only:
      (List.map
         (fun (e : Sec_harness.Experiments.t) -> e.id)
         Sec_harness.Experiments.supporting)
    ()
