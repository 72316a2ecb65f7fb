(* The experiment registry: one entry per figure and table of the paper's
   evaluation, plus the supporting runs (ablations, the pool extension,
   latency percentiles, seed spread and the pinned smoke run); DESIGN.md
   §4 holds the index.

   Every experiment is a [plan]: a list of [cell]s (one table, or one
   mix's series on one backend) whose jobs are independent runs, one data
   point each. `sec_bench run` executes a plan's jobs in order and
   `sec_bench figures` fans them out over a domain pool; both render the
   same cells, so their CSVs are byte-identical.

   Series cells run on a {!Runner.BACKEND}. The paper's throughput
   figures and the latency percentiles run on the backends
   [opts.backend] selects; every other cell simulates a fixed machine
   (docs/HARNESS.md says why, per cell). *)

type backend_choice = [ `Sim | `Native | `Both ]

type opts = {
  scale : float; (* duration multiplier; 1.0 ~ a few seconds per figure *)
  csv_dir : string option;
  backend : backend_choice;
  seed : int;
}

let default_opts = { scale = 1.0; csv_dir = None; backend = `Sim; seed = 1 }

type t = { id : string; title : string; plan : opts -> cell list }

and cell = {
  cell_id : string;  (* "fig2/100%upd"; tables use the bare id *)
  cell_fig : string;  (* experiment id this cell belongs to *)
  cell_topology : string;
  cell_title : string;
  cell_file : string;  (* CSV file name under [opts.csv_dir] *)
  cell_jobs : (unit -> job_result) array;
  cell_render : job_result array -> output;  (* pure *)
}

and job_result =
  | Mops of float * int option  (* throughput point, schedule digest *)
  | Degrees of (float * float * float) * int
      (* (batching degree, %elimination, %combining), schedule digest *)
  | Histogram of Latency.t

and output =
  | Series of { columns : int list; rows : (string * float array) list }
  | Keyed of {
      key : string;  (* CSV header of the row-name column *)
      columns : string list;
      rows : (string * string list) list;
    }

let digest_of = function
  | Mops (_, d) -> d
  | Degrees (_, d) -> Some d
  | Histogram _ -> None

let mops_of = function
  | Mops (v, _) -> v
  | Degrees _ | Histogram _ -> assert false

(* ------------------------------------------------------------------ *)
(* Backends                                                             *)

let base_cycles = 300_000

let duration_cycles opts =
  max 10_000 (int_of_float (float_of_int base_cycles *. opts.scale))

let native_duration opts = 0.25 *. opts.scale
let threads_for = Sim_runner.threads_for

let sim_only opts ~topology : (module Runner.BACKEND) list =
  [ Sim_runner.backend ~topology ~duration_cycles:(duration_cycles opts) ]

(* The backends selected by [opts.backend], in report order. The native
   backend ignores the topology (it runs on whatever this host is). *)
let backends_of opts ~topology : (module Runner.BACKEND) list =
  let native () = Native_runner.backend ~duration:(native_duration opts) in
  match opts.backend with
  | `Sim -> sim_only opts ~topology
  | `Native -> [ native () ]
  | `Both -> sim_only opts ~topology @ [ native () ]

(* ------------------------------------------------------------------ *)
(* Cells                                                                *)

(* A cell of one job per (row, col), in row-major order. [render] gets
   [row], where [row i] reads row [i]'s results back in the same order. *)
let grid_cell ~fig ~cell_id ~topology ~title ~file rows cols job render =
  let k = List.length cols in
  {
    cell_id;
    cell_fig = fig;
    cell_topology = topology.Sec_sim.Topology.name;
    cell_title = title;
    cell_file = file;
    cell_jobs =
      Array.of_list (List.concat_map (fun r -> List.map (job r) cols) rows);
    cell_render =
      (fun results -> render (fun i -> Array.sub results (i * k) k));
  }

(* Throughput rows (named first) across thread counts. *)
let series_render threads rows row =
  Series
    {
      columns = threads;
      rows =
        List.mapi (fun i (name, _) -> (name, Array.map mops_of (row i))) rows;
    }

(* One row per registry entry, printed by [format] from its results. *)
let entries_render ~columns entries format row =
  Keyed
    {
      key = "algorithm";
      columns;
      rows =
        List.mapi
          (fun i (e : Registry.entry) -> (e.name, format (row i)))
          entries;
    }

(* One throughput point on backend [B]. *)
let mops_job (module B : Runner.BACKEND) maker ~mix ~seed threads () =
  let m, digest =
    B.run_mix maker ~threads ~mix ~prefill:(B.prefill_for mix) ~seed ()
  in
  Mops (m.Measurement.mops, digest)

(* One mix's series over [entries] on backend [B]. The CSV is
   [<file>_<mix><suffix>.csv], where [file] defaults to the id with '_'
   for '-'; an explicit [file] drops the mix label. *)
let series_cell opts (module B : Runner.BACKEND) ~id ~topology
    ?(threads = B.sweep_threads) ?file ~entries ~title mix =
  let label = mix.Workload.label in
  let file =
    match file with
    | Some f -> f
    | None -> String.map (function '-' -> '_' | c -> c) id ^ "_" ^ label
  in
  let rows = List.map (fun (e : Registry.entry) -> (e.name, e.maker)) entries in
  grid_cell ~fig:id
    ~cell_id:(id ^ "/" ^ label ^ B.file_suffix)
    ~topology
    ~title:(Printf.sprintf "%s [%s, %s]" title label B.label)
    ~file:(file ^ B.file_suffix ^ ".csv")
    rows threads
    (fun (_, maker) -> mops_job (module B) maker ~mix ~seed:opts.seed)
    (series_render threads rows)

let series_experiment ~id ~title ~topology ?(backends = sim_only) ?threads
    ?file ~entries ~series_title mixes =
  {
    id;
    title;
    plan =
      (fun opts ->
        List.concat_map
          (fun b ->
            List.map
              (series_cell opts b ~id ~topology ?threads ?file ~entries
                 ~title:series_title)
              mixes)
          (backends opts ~topology));
  }

(* Batching/elimination/combining degrees (Tables 1/2/3): jobs in
   (mix, thread) row-major order; the render averages each mix's column
   over its thread points. Simulator-only: the jobs read SEC's batch
   statistics, which only {!Sim_runner.run_sec_stats_with} collects. *)
let degrees_cell opts ~topology ~id ~paper_ref =
  let thread_points = List.filter (fun n -> n >= 8) (threads_for topology) in
  let mixes = [ Workload.update_heavy; Workload.mixed; Workload.read_heavy ] in
  let duration = duration_cycles opts in
  let job mix n () =
        let s, sim_stats =
          Sim_runner.run_sec_stats_with ~config:Sec_core.Config.default
            ~topology ~threads:n ~duration_cycles:duration ~mix ~seed:opts.seed
            ()
        in
        Degrees
          ( ( Sec_core.Sec_stats.batching_degree s,
              Sec_core.Sec_stats.pct_eliminated s,
              Sec_core.Sec_stats.pct_combined s ),
            sim_stats.Sec_sim.Sim.schedule_digest )
  in
  let render row =
    let np = float_of_int (List.length thread_points) in
    let per_mix =
      List.mapi
        (fun i _mix ->
          let avg f =
            Array.fold_left
              (fun sum r ->
                match r with
                | Degrees (d, _) -> sum +. f d
                | Mops _ | Histogram _ -> assert false)
              0. (row i)
            /. np
          in
          ( avg (fun (d, _, _) -> d),
            avg (fun (_, e, _) -> e),
            avg (fun (_, _, c) -> c) ))
        mixes
    in
    let row f = List.map (fun v -> Printf.sprintf "%.1f" (f v)) per_mix in
    Keyed
      {
        key = "metric";
        columns = List.map (fun m -> m.Workload.label) mixes;
        rows =
          [
            ("Batching Degree", row (fun (d, _, _) -> d));
            ("%Elimination", row (fun (_, e, _) -> e));
            ("%Combining", row (fun (_, _, c) -> c));
          ];
      }
  in
  grid_cell ~fig:id ~cell_id:id ~topology
    ~title:
      (Printf.sprintf "%s [simulated %s, averaged over %s threads]" paper_ref
         topology.Sec_sim.Topology.name
         (String.concat "," (List.map string_of_int thread_points)))
    ~file:(id ^ ".csv") mixes thread_points job render

let render_output opts c = function
  | Series { columns; rows } ->
      Report.series ~title:c.cell_title ~columns ~rows;
      Option.iter
        (fun dir -> Report.csv_of_series ~dir ~file:c.cell_file ~columns ~rows)
        opts.csv_dir
  | Keyed { key; columns; rows } ->
      Report.keyed ~title:c.cell_title ~columns ~rows;
      Option.iter
        (fun dir ->
          Report.csv ~dir ~file:c.cell_file ~header:(key :: columns)
            ~rows:(List.map (fun (name, vs) -> name :: vs) rows))
        opts.csv_dir

(* Every cell's jobs in one [jobs]-domain pool (taken literally, as by
   {!Sweep.map}; one pool rather than one per cell, so no domain idles at
   a cell boundary), then each cell printed and written in order. Results
   come back in job order, so the output is the same for every [jobs]. *)
let run_cells ?(jobs = 1) opts cells =
  let results =
    Sweep.map ~jobs
      (fun job -> job ())
      (Array.concat (List.map (fun c -> c.cell_jobs) cells))
  in
  let off = ref 0 in
  List.map
    (fun c ->
      let rs = Array.sub results !off (Array.length c.cell_jobs) in
      off := !off + Array.length rs;
      let out = c.cell_render rs in
      render_output opts c out;
      (c, rs, out))
    cells

(* ------------------------------------------------------------------ *)
(* The paper's figures and tables                                       *)

(* Throughput (Figures 2/5/9) and push-only/pop-only (Figures 3/6/10) run
   on every selected backend. The aggregator self-comparison (Figures
   4/7/8/11/12) simulates only, like the ablations below: it varies how
   SEC shards, which the paper measures on multi-socket machines, not on
   a host with a few cores. *)
let figure ~id ~topology ~paper_ref ~what ?backends ~entries mixes =
  series_experiment ~id
    ~title:
      (Printf.sprintf "%s: %s on %s" paper_ref what
         topology.Sec_sim.Topology.name)
    ~topology ?backends ~entries ~series_title:paper_ref mixes

let throughput_figure ~id ~topology ~paper_ref =
  figure ~id ~topology ~paper_ref ~what:"throughput, 100%/50%/10% updates"
    ~backends:backends_of ~entries:Registry.paper_set
    [ Workload.update_heavy; Workload.mixed; Workload.read_heavy ]

let homogeneous_figure ~id ~topology ~paper_ref =
  figure ~id ~topology ~paper_ref ~what:"push-only and pop-only"
    ~backends:backends_of ~entries:Registry.paper_set
    [ Workload.push_only; Workload.pop_only ]

let aggregator_figure ~id ~topology ~paper_ref ~mixes =
  figure ~id ~topology ~paper_ref ~what:"SEC with 1..5 aggregators"
    ~entries:Registry.sec_aggregator_sweep mixes

let degrees_table ~id ~topology ~paper_ref =
  {
    id;
    title =
      Printf.sprintf "%s: SEC batching/elimination/combining on %s" paper_ref
        topology.Sec_sim.Topology.name;
    plan = (fun opts -> [ degrees_cell opts ~topology ~id ~paper_ref ]);
  }

(* ------------------------------------------------------------------ *)
(* Supporting experiments (design choices called out in DESIGN.md)      *)

let ablation_backoff =
  series_experiment ~id:"ablation-backoff"
    ~title:
      "Ablation: SEC freezer wait budget (0 / 512 / 1024 / 2048 / 8192 relax \
       units)"
    ~topology:Sec_sim.Topology.emerald
    ~entries:
      (List.map
         (fun b ->
           Registry.sec_with ~freeze_backoff:b ~aggregators:2
             ~label:(Printf.sprintf "SEC_bo%d" b) ())
         [ 0; 512; 1024; 2048; 8192 ])
    ~series_title:"Freezer backoff ablation"
    [ Workload.update_heavy; Workload.push_only ]

(* Simulator-only: the jobs drive a fetch&add counter, not a stack, so
   they run the workload loop on the simulated substrate directly rather
   than through a backend. *)
let ablation_funnel =
  let module SP = Sec_sim.Sim.Prim in
  let module R = Runner.Make (SP) in
  let topology = Sec_sim.Topology.emerald in
  (* Not a stack benchmark, but the same driver fits: a push-only "stack"
     whose push is one fetch&add. The loop's extra random draws are
     schedule-free in the simulator, so the numbers match the dedicated
     loop this replaces. Runs without jitter: FAA throughput has no
     lockstep fixed points to break. *)
  let faa_job opts (_, variant) threads () =
    let duration = duration_cycles opts in
    let ops, stats =
      Sec_sim.Sim.run ~seed:opts.seed ~topology (fun () ->
          let module Faa = Sec_funnel.Agg_faa.Make (SP) in
          let shards = match variant with `Funnel s -> s | `Central -> 1 in
          let funnel = Faa.create ~shards () in
          let central = SP.Atomic.make 0 in
          let outcome =
            R.drive ~threads ~stop:(R.Timed duration) ~mix:Workload.push_only
              ~push:(fun ~tid _ ->
                match variant with
                | `Central -> ignore (SP.Atomic.fetch_and_add central 1)
                | `Funnel _ -> ignore (Faa.fetch_and_add funnel ~tid 1))
              ~pop:(fun ~tid:_ -> None)
              ~peek:(fun ~tid:_ -> None)
              ()
          in
          R.total outcome)
    in
    Mops
      ( (Measurement.of_simulated ~algorithm:"faa" ~threads ~ops
           ~cycles:duration)
          .Measurement.mops,
        Some stats.Sec_sim.Sim.schedule_digest )
  in
  {
    id = "ablation-funnel";
    title = "Ablation: sharded (aggregating-funnel style) vs central fetch&add";
    plan =
      (fun opts ->
        let threads = threads_for topology in
        let rows =
          [
            ("central FAA", `Central);
            ("funnel x2", `Funnel 2);
            ("funnel x4", `Funnel 4);
          ]
        in
        [
          grid_cell ~fig:"ablation-funnel" ~cell_id:"ablation-funnel" ~topology
            ~title:"Fetch&add throughput (Mops/s) [simulated emerald]"
            ~file:"ablation_funnel.csv" rows threads (faa_job opts)
            (series_render threads rows);
        ]);
  }

let ablation_hsynch =
  series_experiment ~id:"ablation-hsynch"
    ~title:"Ablation: SEC vs hierarchical combining (H-Synch) vs flat CC-Synch"
    ~topology:Sec_sim.Topology.sapphire
    ~entries:[ Registry.sec; Registry.hsynch; Registry.cc ]
    ~series_title:"NUMA-aware combining ablation" [ Workload.update_heavy ]

let extension_pool =
  series_experiment ~id:"extension-pool"
    ~title:
      "Extension: SEC-style pool (sharded backing stores) vs SEC stack vs TRB"
    ~topology:Sec_sim.Topology.emerald ~file:"extension_pool"
    ~entries:
      [
        Registry.pool_with ~aggregators:2 ~label:"SEC-pool x2";
        Registry.pool_with ~aggregators:4 ~label:"SEC-pool x4";
        Registry.sec;
        Registry.treiber;
      ]
    ~series_title:"Pool extension" [ Workload.update_heavy ]

(* Simulator-only: the simulator is deterministic per seed, so
   "run-to-run variance" becomes a reproducible seed-to-seed spread. *)
let variance_check =
  let topology = Sec_sim.Topology.emerald and mix = Workload.update_heavy in
  {
    id = "variance";
    title =
      "Supporting: seed-to-seed spread at 28 threads (paper: <5% over 5 runs)";
    plan =
      (fun opts ->
        let backend =
          Sim_runner.backend ~topology ~duration_cycles:(duration_cycles opts)
        in
        [
          grid_cell ~fig:"variance" ~cell_id:"variance" ~topology
            ~title:
              "Throughput over 5 seeds [100%upd, 28 threads, simulated \
               emerald]"
            ~file:"variance.csv" Registry.paper_set
            (List.init 5 (fun i -> opts.seed + i))
            (fun e seed -> mops_job backend e.Registry.maker ~mix ~seed 28)
            (entries_render
               ~columns:[ "mean"; "min"; "max"; "spread" ]
               Registry.paper_set
               (fun results ->
                 let v =
                   Variance.of_samples
                     (Array.to_list (Array.map mops_of results))
                 in
                 [
                   Printf.sprintf "%.2f" v.Variance.mean;
                   Printf.sprintf "%.2f" v.Variance.min;
                   Printf.sprintf "%.2f" v.Variance.max;
                   Printf.sprintf "%.1f%%" v.Variance.relative_spread;
                 ]));
        ]);
  }

let latency_distribution =
  let topology = Sec_sim.Topology.emerald and mix = Workload.update_heavy in
  {
    id = "latency-dist";
    title =
      "Supporting: per-operation latency distribution at 28 threads (emerald)";
    plan =
      (fun opts ->
        List.map
          (fun (module B : Runner.BACKEND) ->
            let threads = B.latency_point in
            grid_cell ~fig:"latency-dist"
              ~cell_id:("latency-dist" ^ B.file_suffix)
              ~topology
              ~title:
                (Printf.sprintf "Per-op latency in %s [%s, %d threads, %s]"
                   B.latency_unit mix.Workload.label threads B.label)
              ~file:(Printf.sprintf "latency_dist%s.csv" B.file_suffix)
              Registry.paper_set [ () ]
              (fun e () () ->
                Histogram
                  (B.run_latency e.Registry.maker ~threads ~mix
                     ~seed:opts.seed ()))
              (entries_render
                 ~columns:[ "mean"; "p50"; "p90"; "p99"; "p99.9" ]
                 Registry.paper_set
                 (function
                   | [| Histogram h |] ->
                       [
                         Printf.sprintf "%.0f" (Latency.mean h);
                         string_of_int (Latency.percentile h 50.);
                         string_of_int (Latency.percentile h 90.);
                         string_of_int (Latency.percentile h 99.);
                         string_of_int (Latency.percentile h 99.9);
                       ]
                   | _ -> assert false)))
          (backends_of opts ~topology));
  }

(* A deliberately tiny, fixed-size simulated run for the @bench-smoke
   golden-file check: topology, duration, threads and mix are pinned
   (scale and backend options are ignored) so that for a fixed --seed the
   CSV is reproducible byte for byte. *)
let smoke =
  series_experiment ~id:"smoke"
    ~title:"Smoke: SEC vs TRB, tiny pinned simulated run (golden-diffed)"
    ~topology:Sec_sim.Topology.testbox
    ~backends:(fun _ ~topology ->
      [ Sim_runner.backend ~topology ~duration_cycles:10_000 ])
    ~threads:[ 1; 2; 4 ] ~file:"smoke"
    ~entries:[ Registry.sec; Registry.treiber ]
    ~series_title:"Smoke" [ Workload.update_heavy ]

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)

let paper =
  [
    throughput_figure ~id:"fig2" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Figure 2";
    homogeneous_figure ~id:"fig3" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Figure 3";
    aggregator_figure ~id:"fig4" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Figure 4"
      ~mixes:
        [
          Workload.update_heavy;
          Workload.mixed;
          Workload.read_heavy;
          Workload.push_only;
        ];
    degrees_table ~id:"table1" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Table 1";
    throughput_figure ~id:"fig5" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 5";
    homogeneous_figure ~id:"fig6" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 6";
    aggregator_figure ~id:"fig7" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 7"
      ~mixes:[ Workload.update_heavy; Workload.mixed; Workload.read_heavy ];
    aggregator_figure ~id:"fig8" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 8" ~mixes:[ Workload.push_only; Workload.pop_only ];
    degrees_table ~id:"table2" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Table 2";
    throughput_figure ~id:"fig9" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 9";
    homogeneous_figure ~id:"fig10" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 10";
    aggregator_figure ~id:"fig11" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 11"
      ~mixes:
        [
          Workload.update_heavy;
          Workload.mixed;
          Workload.read_heavy;
          Workload.push_only;
        ];
    aggregator_figure ~id:"fig12" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 12" ~mixes:[ Workload.push_only; Workload.pop_only ];
    degrees_table ~id:"table3" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Table 3";
  ]

let supporting =
  [
    ablation_backoff;
    ablation_funnel;
    ablation_hsynch;
    extension_pool;
    latency_distribution;
    variance_check;
    smoke;
  ]

let all = paper @ supporting
let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all

let run_one opts e =
  Printf.printf "== %s: %s ==\n%!" e.id e.title;
  ignore (run_cells opts (e.plan opts))

(* ------------------------------------------------------------------ *)
(* One-command figure set: `sec_bench figures`                          *)

(* EXPERIMENTS.md's recorded curve shapes, re-checked by every figures
   run. [Best]/[Worst] name the expected winner/weakest line at the top
   thread count ("*" applies to every mix of the figure); the tables'
   claim is that elimination dominates combining. These encode what the
   reproduction *measured* (including its recorded deviations from the
   paper, e.g. TSI overtaking SEC at 100% updates on icelake/sapphire),
   so a DEVIATION in REPORT.md means the code drifted from
   EXPERIMENTS.md, not from the paper. *)
type claim = Best of string | Worst of string | Elim_dominates

let claims =
  [
    ("fig2", "100%upd", Best "SEC");
    ("fig2", "50%upd", Best "SEC");
    ("fig2", "10%upd", Best "SEC");
    ("fig3", "push-only", Best "TSI");
    ("fig3", "pop-only", Best "SEC");
    ("fig4", "*", Worst "SEC_Agg1");
    ("table1", "*", Elim_dominates);
    ("fig5", "100%upd", Best "TSI");
    ("fig5", "50%upd", Best "SEC");
    ("fig5", "10%upd", Best "SEC");
    ("fig6", "push-only", Best "TSI");
    ("fig6", "pop-only", Best "SEC");
    ("fig7", "*", Worst "SEC_Agg1");
    ("fig8", "*", Worst "SEC_Agg1");
    ("table2", "*", Elim_dominates);
    ("fig9", "100%upd", Best "TSI");
    ("fig9", "50%upd", Best "SEC");
    ("fig9", "10%upd", Best "SEC");
    ("fig10", "push-only", Best "TSI");
    ("fig10", "pop-only", Best "SEC");
    ("fig11", "*", Worst "SEC_Agg1");
    ("fig12", "*", Worst "SEC_Agg1");
    ("table3", "*", Elim_dominates);
  ]

let claim_for ~fig ~label =
  List.find_map
    (fun (f, l, c) -> if f = fig && (l = label || l = "*") then Some c else None)
    claims

(* One REPORT.md section per cell: who wins by what factor at the top
   thread count, checked against the recorded claim. Returns the lines
   and whether the cell matched. *)
let report_section c out =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let matched =
    match out with
    | Series { columns; rows } ->
        line "## %s (%s)" c.cell_id c.cell_topology;
        line "";
        line "%s" c.cell_title;
        line "";
        let top = List.nth columns (List.length columns - 1) in
        let at_top (_, vs) = vs.(Array.length vs - 1) in
        let ranked =
          List.sort (fun x y -> compare (at_top y) (at_top x)) rows
        in
        let name_of = fst in
        let winner = List.hd ranked in
        let weakest = List.nth ranked (List.length ranked - 1) in
        let factor a b = if b > 0. then a /. b else Float.infinity in
        (match ranked with
        | w :: ru :: _ ->
            line
              "- At %d threads: **%s** leads with %.2f Mops/s; runner-up %s \
               at %.2f (%.2fx behind); weakest %s at %.2f."
              top (name_of w) (at_top w) (name_of ru) (at_top ru)
              (factor (at_top w) (at_top ru))
              (name_of weakest) (at_top weakest)
        | _ -> ());
        let label =
          match String.index_opt c.cell_id '/' with
          | Some i ->
              String.sub c.cell_id (i + 1) (String.length c.cell_id - i - 1)
          | None -> "*"
        in
        (match claim_for ~fig:c.cell_fig ~label with
        | Some (Best expect) ->
            let ok = name_of winner = expect in
            line
              "- EXPERIMENTS.md records **%s** as the winner here — %s."
              expect
              (if ok then "**MATCH**"
               else
                 Printf.sprintf "**DEVIATION** (%s leads)" (name_of winner));
            Some ok
        | Some (Worst expect) ->
            let ok = name_of weakest = expect in
            line
              "- EXPERIMENTS.md records **%s** as the weakest line here — %s."
              expect
              (if ok then "**MATCH**"
               else
                 Printf.sprintf "**DEVIATION** (%s is weakest)"
                   (name_of weakest));
            Some ok
        | Some Elim_dominates | None -> None)
    | Keyed { rows; _ } ->
        line "## %s (%s)" c.cell_id c.cell_topology;
        line "";
        line "%s" c.cell_title;
        line "";
        let avg name =
          match List.assoc_opt name rows with
          | Some vs ->
              let fs = List.filter_map float_of_string_opt vs in
              if fs = [] then None
              else
                Some (List.fold_left ( +. ) 0. fs /. float_of_int (List.length fs))
          | None -> None
        in
        (match (avg "%Elimination", avg "%Combining") with
        | Some e, Some cmb ->
            let ok = e > cmb in
            line
              "- Elimination %.1f%% vs combining %.1f%% (averaged over \
               mixes) — EXPERIMENTS.md records elimination dominating — %s."
              e cmb
              (if ok then "**MATCH**" else "**DEVIATION**");
            Some ok
        | _ -> None)
  in
  line "";
  (Buffer.contents b, matched)

let write_report ~path opts rendered elapsed =
  let sections = List.map (fun (c, out) -> report_section c out) rendered in
  let matches =
    List.filter_map (fun (_, m) -> m) sections |> List.filter (fun m -> m)
  in
  let checked = List.filter_map (fun (_, m) -> m) sections in
  let header =
    [
      "# Figure reproduction report";
      "";
      Printf.sprintf
        "Generated by `sec_bench figures` (seed %d, scale %g): %d cells, \
         %.1fs wall clock."
        opts.seed opts.scale (List.length rendered) elapsed;
      Printf.sprintf
        "Curve shapes checked against EXPERIMENTS.md's recorded claims: \
         **%d/%d match**. A deviation means the code drifted from the \
         recorded reproduction, not necessarily from the paper."
        (List.length matches) (List.length checked);
      "";
    ]
  in
  Report.markdown ~path
    ~lines:(header @ List.map (fun (s, _) -> s) sections)

(* The parallel path: every selected cell's jobs fan out over
   {!Sweep.map}, then each cell renders in canonical order. Jobs are pure
   (each owns a fresh simulated machine), so the output — stdout tables,
   CSVs, report, digests — is bit-identical for every [jobs] value,
   including the serial [jobs = 1] fallback. Only simulated cells are
   built: native jobs would share the pool's cores. *)
let run_figures opts ~jobs ?topology ?(only = []) ?report_path ?digest_path ()
    =
  let opts = { opts with backend = `Sim } in
  let cells =
    List.concat_map (fun e -> e.plan opts) (if only = [] then paper else all)
  in
  List.iter
    (fun o ->
      if
        not
          (List.exists (fun c -> o = c.cell_fig || o = c.cell_id) cells)
      then
        invalid_arg
          (Printf.sprintf
             "figures: unknown --only filter %S (try e.g. fig2 or \
              \"fig2/100%%upd\")"
             o))
    only;
  let cells =
    List.filter
      (fun c ->
        (match topology with Some t -> c.cell_topology = t | None -> true)
        && match only with
           | [] -> true
           | l -> List.exists (fun o -> o = c.cell_fig || o = c.cell_id) l)
      cells
  in
  if cells = [] then invalid_arg "figures: no cells selected";
  let jobs = Sweep.clamp_jobs jobs in
  let total_jobs =
    List.fold_left (fun n c -> n + Array.length c.cell_jobs) 0 cells
  in
  Printf.printf "figures: %d cells, %d simulation jobs, %d domain%s\n%!"
    (List.length cells) total_jobs jobs
    (if jobs = 1 then "" else "s");
  let t0 = Unix.gettimeofday () in
  let outputs = run_cells ~jobs opts cells in
  let elapsed = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc "cell,job,digest\n";
      List.iter
        (fun (c, rs, _) ->
          Array.iteri
            (fun j r ->
              Option.iter
                (Printf.fprintf oc "%s,%d,%d\n" c.cell_id j)
                (digest_of r))
            rs)
        outputs;
      close_out oc;
      Printf.printf "  [digests] wrote %s\n%!" path)
    digest_path;
  Option.iter
    (fun path ->
      write_report ~path opts (List.map (fun (c, _, out) -> (c, out)) outputs)
        elapsed)
    report_path;
  Printf.printf "figures: done in %.1fs (%d jobs on %d domain%s)\n%!" elapsed
    total_jobs jobs
    (if jobs = 1 then "" else "s")
