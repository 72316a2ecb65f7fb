(* CLI driver for the reproduction experiments.

     sec_bench list                   show experiment ids
     sec_bench run fig2 [options]     run one experiment's plan serially
     sec_bench all [options]          run every experiment
     sec_bench figures [options]      run plans over a domain pool
     sec_bench sweep [options]        an ad-hoc throughput experiment
     sec_bench check [options]        refinement-property sweep

   Options: --scale (duration multiplier), --csv DIR, --backend
   sim|native|both (which execution substrate to sweep; --native is a
   shorthand for both), --seed N. *)

open Cmdliner

module E = Sec_harness.Experiments

let scale_arg =
  let doc = "Duration multiplier (1.0 = default run length)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"X" ~doc)

let csv_arg =
  let doc = "Directory to write CSV series into." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let backend_arg =
  let doc =
    "Execution substrate(s) to sweep: $(b,sim) (simulated NUMA machines), \
     $(b,native) (this host's domains), or $(b,both)."
  in
  let choices =
    Arg.enum [ ("sim", `Sim); ("native", `Native); ("both", `Both) ]
  in
  Arg.(value & opt choices `Sim & info [ "backend" ] ~docv:"BACKEND" ~doc)

let native_arg =
  let doc =
    "Shorthand for $(b,--backend both): append small native-domain sanity \
     sweeps (limited by this host's cores)."
  in
  Arg.(value & flag & info [ "native" ] ~doc)

let seed_arg =
  let doc = "Run seed (simulated results are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let opts_term =
  let make scale csv_dir backend native seed =
    let backend = if native then `Both else backend in
    { E.scale; csv_dir; backend; seed }
  in
  Term.(const make $ scale_arg $ csv_arg $ backend_arg $ native_arg $ seed_arg)

let run_one opts id =
  match E.find id with
  | None ->
      Printf.eprintf "unknown experiment %S; try `sec_bench list`\n" id;
      exit 1
  | Some e -> E.run_one opts e

let list_cmd =
  let run () =
    List.iter
      (fun (e : E.t) -> Printf.printf "%-18s %s\n" e.E.id e.E.title)
      E.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids") Term.(const run $ const ())

let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let run opts id = run_one opts id in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment (a figure or table id)")
    Term.(const run $ opts_term $ id_arg)

let all_cmd =
  let run opts = List.iter (fun (e : E.t) -> E.run_one opts e) E.all in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment") Term.(const run $ opts_term)

(* Ad-hoc sweeps: any algorithms, any workload, any machine profile, run
   as one throughput experiment. Every name resolves before a job runs. *)
let sweep_cmd =
  let machine_arg =
    let doc = "Machine profile: emerald, icelake, sapphire or testbox." in
    Arg.(value & opt string "emerald" & info [ "machine" ] ~docv:"NAME" ~doc)
  in
  let workload_arg =
    let doc =
      "Workload label: 100%upd, 50%upd, 10%upd, push-only or pop-only."
    in
    Arg.(value & opt string "100%upd" & info [ "workload" ] ~docv:"MIX" ~doc)
  in
  let algos_arg =
    let doc = "Comma-separated algorithm names (see `sec_bench algos`)." in
    Arg.(
      value
      & opt (list string) [ "SEC"; "TRB"; "EB" ]
      & info [ "algos" ] ~docv:"A,B,..." ~doc)
  in
  let threads_arg =
    let doc = "Comma-separated thread counts (default: the machine's sweep)." in
    Arg.(value & opt (some (list int)) None & info [ "threads" ] ~docv:"N,..." ~doc)
  in
  let run opts machine workload algos threads =
    match
      ( Sec_sim.Topology.by_name machine,
        Sec_harness.Workload.by_name workload,
        List.map Sec_harness.Registry.find algos )
    with
    | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | topology, mix, entries ->
        E.run_one opts
          (E.series_experiment ~id:"sweep"
             ~title:(Printf.sprintf "custom throughput sweep on %s" machine)
             ~topology ~backends:E.backends_of ?threads ~file:"sweep" ~entries
             ~series_title:"Custom sweep" [ mix ])
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a custom throughput sweep (any algorithms/workload/machine)")
    Term.(const run $ opts_term $ machine_arg $ workload_arg $ algos_arg
          $ threads_arg)

(* One-command paper figure set: every fig2..fig12 + table cell (or,
   with --only, any experiments' cells) regenerated as independent
   simulation jobs over a native domain pool, plus REPORT.md comparing
   curve shapes against EXPERIMENTS.md's recorded claims. Output is
   bit-identical for every --jobs value. *)
let figures_cmd =
  let jobs_arg =
    let doc =
      "Domain-pool size (default: the host's recommended domain count; \
       clamped to it; $(b,1) runs serially with bit-identical output)."
    in
    Arg.(value & opt int (Sec_harness.Sweep.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let topology_arg =
    let doc = "Only cells simulating this machine (emerald/icelake/sapphire)." in
    Arg.(value & opt (some string) None & info [ "topology" ] ~docv:"NAME" ~doc)
  in
  let only_arg =
    let doc =
      "Comma-separated filters: any experiment id of $(b,sec_bench list) \
       ($(b,fig2), $(b,smoke)) or single cells ($(b,fig2/100%upd)). \
       Default: the paper's figures and tables."
    in
    Arg.(value & opt (list string) [] & info [ "only" ] ~docv:"FIG,..." ~doc)
  in
  let out_arg =
    let doc = "Output directory for CSVs and REPORT.md." in
    Arg.(value & opt string "results" & info [ "csv"; "out" ] ~docv:"DIR" ~doc)
  in
  let report_arg =
    let doc = "Path for the claims report (default $(i,DIR)/REPORT.md)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)
  in
  let no_report_arg =
    let doc = "Skip REPORT.md generation." in
    Arg.(value & flag & info [ "no-report" ] ~doc)
  in
  let digests_arg =
    let doc =
      "Also write each job's schedule digest to $(docv) (CSV) — the \
       golden the event-loop refactor tests pin."
    in
    Arg.(value & opt (some string) None & info [ "digests" ] ~docv:"PATH" ~doc)
  in
  let run scale seed jobs topology only dir report no_report digests =
    let opts =
      { E.scale; csv_dir = Some dir; backend = `Sim; seed }
    in
    Sec_harness.Report.ensure_dir dir;
    let report_path =
      if no_report then None
      else Some (Option.value report ~default:(Filename.concat dir "REPORT.md"))
    in
    match
      E.run_figures opts ~jobs ?topology ~only ?report_path
        ?digest_path:digests ()
    with
    | () -> ()
    | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Regenerate the full paper figure set (CSVs + REPORT.md) with \
          simulation jobs fanned out across a domain pool")
    Term.(
      const run $ scale_arg $ seed_arg $ jobs_arg $ topology_arg $ only_arg
      $ out_arg $ report_arg $ no_report_arg $ digests_arg)

(* Machine-readable baseline: pinned sim (or native) runs over every
   structure, with allocation counts; optionally emitted as
   BENCH_<backend>.json and/or compared against a checked-in baseline
   (exit 1 past the regression threshold). Wired into
   `dune build @bench-smoke` with `--against BENCH_sim.json`. *)
let bench_cmd =
  let module J = Sec_harness.Bench_json in
  let backend_arg =
    let doc = "Substrate to benchmark: $(b,sim) or $(b,native)." in
    Arg.(
      value
      & opt (Arg.enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
      & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let emit_arg =
    let doc =
      "Write the results as JSON to $(docv) (default \
       BENCH_<backend>.json when the flag is given without a value)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "emit-json" ] ~docv:"PATH" ~doc)
  in
  let against_arg =
    let doc =
      "Compare against the baseline JSON at $(docv); exit non-zero if \
       any paper-set structure's throughput falls, or its simulated \
       events, context switches or cells per operation rise, past the \
       threshold."
    in
    Arg.(value & opt (some string) None & info [ "against" ] ~docv:"PATH" ~doc)
  in
  let threshold_arg =
    let doc =
      "Allowed fractional throughput regression, and rise in simulated \
       events, context switches and cells per operation (default 0.10)."
    in
    Arg.(value & opt float 0.10 & info [ "threshold" ] ~docv:"F" ~doc)
  in
  let events_threshold_arg =
    let doc =
      "Also gate the wall-clock events/sec (event-loop throughput): fail \
       if it regresses by more than this fraction. Off unless given; pass \
       a wide band when comparing across machines of different speeds."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "events-threshold" ] ~docv:"F" ~doc)
  in
  let allocs_threshold_arg =
    let doc =
      "Allowed fractional allocations-per-op regression (default 0.10)."
    in
    Arg.(value & opt float 0.10 & info [ "allocs-threshold" ] ~docv:"F" ~doc)
  in
  let run seed backend emit against threshold events_threshold
      allocs_threshold =
    let doc =
      match backend with
      | `Sim -> J.collect_sim ~seed ()
      | `Native -> J.collect_native ~seed ()
    in
    Printf.printf "bench [%s %s, seed %d]: %d rows (%s)\n" doc.J.backend
      doc.J.machine doc.J.seed (List.length doc.J.rows) doc.J.unit_label;
    if doc.J.events_per_sec > 0. then
      Printf.printf "  event loop: %.3g events/sec (wall clock, best-of-12)\n"
        doc.J.events_per_sec;
    Option.iter
      (fun (v : Sec_harness.Variance.t) ->
        Printf.printf
          "  event loop spread: mean %.3g, min %.3g, max %.3g events/sec \
           (spread %.1f%% of mean, n=%d)%s\n"
          v.mean v.min v.max v.relative_spread v.samples
          (match doc.J.words_per_event with
          | Some w -> Printf.sprintf ", %.2f minor words/event" w
          | None -> ""))
      doc.J.events_spread;
    List.iter
      (fun (r : J.row) ->
        Printf.printf
          "  %-10s t=%d  ops=%-7d allocs=%-8d events=%-8d switches=%-8d \
           cells=%-8d throughput=%.6f\n"
          r.J.algorithm r.J.threads r.J.ops r.J.allocs r.J.events
          r.J.switches r.J.cells r.J.throughput)
      doc.J.rows;
    Option.iter
      (fun path ->
        let path =
          if path = "" then Printf.sprintf "BENCH_%s.json" doc.J.backend
          else path
        in
        J.write ~path doc;
        Printf.printf "wrote %s\n" path)
      emit;
    match against with
    | None -> ()
    | Some path -> (
        let baseline = J.read ~path in
        match
          J.check ~threshold ?events_threshold ~allocs_threshold ~baseline
            ~current:doc ()
        with
        | [] ->
            Printf.printf
              "baseline %s: no paper-set regression beyond %.0f%% \
               (throughput, events/op, switches/op, cells/op; %s, \
               allocs/op beyond %.0f%%)\n"
              path (100. *. threshold)
              (match events_threshold with
              | Some f -> Printf.sprintf "events/sec beyond %.0f%%" (100. *. f)
              | None -> "events/sec not gated")
              (100. *. allocs_threshold)
        | regs ->
            List.iter
              (fun (r : J.regression) ->
                let pct =
                  if r.J.baseline > 0. then
                    100. *. (r.J.current -. r.J.baseline) /. r.J.baseline
                  else 0.
                in
                Printf.eprintf
                  "REGRESSION [%s] %s t=%d: %.6f -> %.6f (%+.1f%% vs baseline)\n"
                  r.J.r_metric r.J.r_algorithm r.J.r_threads r.J.baseline
                  r.J.current pct)
              regs;
            exit 1)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the pinned benchmark baseline (throughput, allocations, \
          simulated events, switches and cells), optionally \
          emitting/checking BENCH_<backend>.json")
    Term.(
      const run $ seed_arg $ backend_arg $ emit_arg $ against_arg
      $ threshold_arg $ events_threshold_arg $ allocs_threshold_arg)

(* Refinement sweep: every registry entry (plus the pool relaxation, plus
   — under --mutants — the seeded fault-injection builds) is run through
   its default refinement properties (docs/ANALYSIS.md, "Refinement
   prong") under DPOR and the pinned weighted-random seeds. Bounded for
   CI by --budget-ms; shrunk counterexamples are written one file per
   violation under --witness-dir so the workflow can upload them. *)
let check_cmd =
  let module R = Sec_harness.Registry in
  let module Refine = Sec_refine.Refine in
  let seeds_arg =
    let doc =
      "Number of pinned weighted-random seeds to sweep (max 3, the \
       pinned set; the DPOR pass always runs)."
    in
    Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Wall-clock budget in milliseconds; entries not reached in time \
       are reported as skipped (exit stays 0 for skips)."
    in
    Arg.(value & opt (some int) None & info [ "budget-ms" ] ~docv:"MS" ~doc)
  in
  let mutants_arg =
    let doc =
      "Also check the seeded mutants, expecting each to $(i,violate) its \
       refinement property with a shrunk, replayable witness."
    in
    Arg.(value & flag & info [ "mutants" ] ~doc)
  in
  let entries_arg =
    let doc = "Comma-separated entry names (default: the whole refine set)." in
    Arg.(value & opt (some (list string)) None & info [ "entries" ] ~docv:"A,B" ~doc)
  in
  let witness_dir_arg =
    let doc = "Directory to write shrunk counterexample witnesses into." in
    Arg.(value & opt (some string) None & info [ "witness-dir" ] ~docv:"DIR" ~doc)
  in
  let schedules_arg =
    let doc = "DPOR schedule cap per property." in
    Arg.(value & opt int 400 & info [ "max-schedules" ] ~docv:"N" ~doc)
  in
  let runs_arg =
    let doc = "Weighted-random runs per seed." in
    Arg.(value & opt int 24 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let write_witness dir ~slug w =
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let path = Filename.concat dir (slug ^ ".txt") in
    let oc = open_out path in
    output_string oc (Refine.witness_to_string w);
    output_char oc '\n';
    close_out oc;
    path
  in
  let sanitize s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '_')
      s
  in
  let run seeds budget_ms mutants entries witness_dir max_schedules runs =
    let deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
        budget_ms
    in
    let past_deadline () =
      match deadline with
      | None -> false
      | Some d -> Unix.gettimeofday () > d
    in
    let seeds =
      List.filteri (fun i _ -> i < seeds) Refine.default_seeds
    in
    let pool =
      match entries with
      | None -> R.refine_set
      | Some names ->
          List.map
            (fun n ->
              match
                List.find_opt
                  (fun e -> e.R.name = n)
                  (R.refine_set @ R.mutants)
              with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown entry %S; try `sec_bench algos`\n" n;
                  exit 1)
            names
    in
    let violations = ref 0 and skipped = ref 0 and unexpected = ref 0 in
    let emit_witness tag w =
      Option.iter
        (fun dir ->
          let path = write_witness dir ~slug:(sanitize tag) w in
          Printf.printf "  witness -> %s\n%!" path)
        witness_dir
    in
    let check_one (e : R.entry) =
      if past_deadline () then begin
        incr skipped;
        Printf.printf "%-10s SKIP (budget)\n%!" e.R.name
      end
      else
        List.iter
          (fun (prop, strat, verdict) ->
            let tag = Printf.sprintf "%s/%s/%s" e.R.name prop strat in
            match verdict with
            | Refine.Refines { schedules; truncated } ->
                Printf.printf "%-40s ok (%d schedules%s)\n%!" tag schedules
                  (if truncated then ", truncated" else "")
            | Refine.Inconclusive why ->
                incr skipped;
                Printf.printf "%-40s INCONCLUSIVE: %s\n%!" tag why
            | Refine.Violates w ->
                incr violations;
                Printf.printf "%-40s VIOLATION: %s\n%!" tag w.Refine.w_kind;
                emit_witness tag w)
          (Refine.check_entry ~max_schedules ~runs ~seeds e)
    in
    (* A mutant is checked against its fault-revealing property only —
       the sweep asserts the checker catches the seeded fault under
       DPOR and every pinned seed, with a shrunk, replayed witness. *)
    let check_mutant (e : R.entry) =
      if past_deadline () then begin
        incr skipped;
        Printf.printf "%-10s SKIP (budget)\n%!" e.R.name
      end
      else
        match Refine.mutant_property e with
        | None ->
            incr skipped;
            Printf.printf "%-10s SKIP (no fault property registered)\n%!"
              e.R.name
        | Some prop ->
            let strategies =
              Refine.Dpor { max_preemptions = 1; max_schedules }
              :: List.map
                   (fun seed -> Refine.Weighted { seed; runs; stay_weight = 4 })
                   seeds
            in
            List.iter
              (fun strat ->
                let label =
                  match strat with
                  | Refine.Dpor _ -> "dpor"
                  | Refine.Weighted { seed; _ } ->
                      Printf.sprintf "weighted:0x%Lx" seed
                in
                let tag =
                  Printf.sprintf "%s/%s/%s" e.R.name prop.Refine.pname label
                in
                match Refine.check e strat prop with
                | Refine.Violates w ->
                    Printf.printf
                      "%-40s caught: %s (%d placements, replay %b)\n%!" tag
                      w.Refine.w_kind
                      (List.length w.Refine.w_schedule)
                      w.Refine.w_replayed;
                    emit_witness tag w
                | Refine.Refines _ ->
                    incr unexpected;
                    Printf.printf "%-40s UNEXPECTED PASS (mutant refines)\n%!"
                      tag
                | Refine.Inconclusive why ->
                    incr unexpected;
                    Printf.printf "%-40s INCONCLUSIVE: %s\n%!" tag why)
              strategies
    in
    List.iter check_one pool;
    if mutants then List.iter check_mutant R.mutants;
    Printf.printf
      "refinement sweep: %d violations, %d unexpected mutant passes, %d \
       skipped/inconclusive\n"
      !violations !unexpected !skipped;
    if !violations > 0 || !unexpected > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check every registry entry's refinement properties (DPOR + \
          pinned weighted-random seeds), shrinking and writing \
          counterexamples")
    Term.(
      const run $ seeds_arg $ budget_arg $ mutants_arg $ entries_arg
      $ witness_dir_arg $ schedules_arg $ runs_arg)

let algos_cmd =
  let run () =
    List.iter
      (fun (e : Sec_harness.Registry.entry) ->
        Printf.printf "%s\n" e.Sec_harness.Registry.name)
      (Sec_harness.Registry.all @ Sec_harness.Registry.sec_aggregator_sweep)
  in
  Cmd.v
    (Cmd.info "algos" ~doc:"List available algorithm names")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "sec_bench"
      ~doc:
        "Regenerate the figures and tables of the SEC stack paper (PPoPP \
         '26) on a simulated NUMA machine"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; all_cmd; figures_cmd; sweep_cmd; bench_cmd;
            check_cmd; algos_cmd ]))
