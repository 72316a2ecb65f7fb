(* Simulator backend adapter: timed throughput runs inside the
   discrete-event simulator, at the paper's 56/96/192 hardware-thread
   scales — deterministic for a fixed seed, so a single run per data point
   suffices. The workload loop itself lives in {!Runner.Make}; this
   module only wraps it in [Sec_sim.Sim.run], charges the simulator's
   benchmark-loop overhead, and converts outcomes to {!Measurement}s. *)

module SP = Sec_sim.Sim.Prim
module R = Runner.Make (SP)

let default_prefill = Runner.default_prefill
let default_value_range = Runner.default_value_range

(* Per-operation benchmark-loop overhead (random draw, branch, counter) —
   keeps trivial operations like peek from looking infinitely cheap. *)
let loop_overhead = 10

(* Small seeded timing noise for benchmark runs. A perfectly deterministic
   simulation can sit on pathological lockstep fixed points (e.g. a thread
   whose announcement misses every batch window in perfect rhythm); real
   machines never do. The jitter is identical for every algorithm and the
   run remains reproducible per seed. *)
let bench_jitter = 2

(* Pop-only sweeps measure sustained pop pressure, so the prefill must
   outlast the window for every algorithm; otherwise the fast ones drain
   the stack and the figure degenerates into empty-pop throughput. *)
let prefill_for mix =
  if mix.Workload.pop_pct = 100 then 50_000 else default_prefill

let run_with_stats (module Maker : Registry.MAKER) ~topology ~threads
    ~duration_cycles ~mix ?(prefill = default_prefill)
    ?(value_range = default_value_range) ?(seed = 1) () =
  let (name, outcome), stats =
    Sec_sim.Sim.run ~seed ~jitter:bench_jitter ~topology (fun () ->
        R.run_maker
          (module Maker)
          ~op_overhead:loop_overhead ~threads ~stop:(R.Timed duration_cycles)
          ~mix ~prefill ~value_range ())
  in
  ( Measurement.of_simulated ~algorithm:name ~threads ~ops:(R.total outcome)
      ~cycles:duration_cycles,
    stats )

let run (module Maker : Registry.MAKER) ~topology ~threads ~duration_cycles
    ~mix ?(prefill = default_prefill) ?(value_range = default_value_range)
    ?(seed = 1) () =
  fst
    (run_with_stats
       (module Maker)
       ~topology ~threads ~duration_cycles ~mix ~prefill ~value_range ~seed ())

(* Like [run], but recording a per-operation latency histogram (virtual
   cycles, benchmark-loop overhead excluded). *)
let run_latency_profile (module Maker : Registry.MAKER) ~topology ~threads
    ~duration_cycles ~mix ?(prefill = default_prefill)
    ?(value_range = default_value_range) ?(seed = 1) () =
  let histogram, _ =
    Sec_sim.Sim.run ~seed ~jitter:bench_jitter ~topology (fun () ->
        let observer, merged = R.latency_observer ~threads in
        let _ =
          R.run_maker
            (module Maker)
            ~observer ~op_overhead:loop_overhead ~threads
            ~stop:(R.Timed duration_cycles) ~mix ~prefill ~value_range ()
        in
        merged ())
  in
  histogram

(* SEC with statistics collection, for the batching-degree tables. Not a
   plain registry run — it snapshots the stack's counters around the
   measured window — so it uses [R.drive] directly. *)
let run_sec_stats_with ~config ~topology ~threads ~duration_cycles ~mix
    ?(prefill = default_prefill) ?(value_range = default_value_range)
    ?(seed = 1) () =
  let module Sec = Sec_core.Sec_stack.Make (SP) in
  let config = { config with Sec_core.Config.collect_stats = true } in
  let stats, sim_stats =
    Sec_sim.Sim.run ~seed ~jitter:bench_jitter ~topology (fun () ->
        let stack = Sec.create_with ~config ~max_threads:(max threads 1) () in
        for i = 1 to prefill do
          Sec.push stack ~tid:0 (i mod value_range)
        done;
        (* Exclude the single-threaded prefill (one batch per push) from
           the reported batching statistics. *)
        let baseline = Sec.stats stack in
        let _ =
          R.drive ~op_overhead:loop_overhead ~threads
            ~stop:(R.Timed duration_cycles) ~mix ~value_range
            ~push:(fun ~tid v -> Sec.push stack ~tid v)
            ~pop:(fun ~tid -> Sec.pop stack ~tid)
            ~peek:(fun ~tid -> Sec.peek stack ~tid)
            ()
        in
        Sec_core.Sec_stats.diff (Sec.stats stack) baseline)
  in
  (stats, sim_stats)

let run_sec_stats ~config ~topology ~threads ~duration_cycles ~mix
    ?(prefill = default_prefill) ?(value_range = default_value_range)
    ?(seed = 1) () =
  fst
    (run_sec_stats_with ~config ~topology ~threads ~duration_cycles ~mix
       ~prefill ~value_range ~seed ())

(* Record an operation history under virtual time, for linearizability
   checking of simulated executions. *)
let run_recorded (module Maker : Registry.MAKER) ~topology ~threads
    ~ops_per_thread ~mix ?(prefill = default_prefill)
    ?(value_range = default_value_range) ?(seed = 1) () =
  let (history, counts), _ =
    Sec_sim.Sim.run ~seed ~jitter:bench_jitter ~topology (fun () ->
        let _name, history, outcome =
          R.run_recorded
            (module Maker)
            ~op_overhead:loop_overhead ~threads
            ~stop:(R.Ops_per_thread ops_per_thread)
            ~mix ~prefill ~value_range ()
        in
        (history, outcome.R.counts))
  in
  (history, counts)

(* The paper's per-machine sweep points. *)
let threads_for (topo : Sec_sim.Topology.t) =
  match topo.Sec_sim.Topology.name with
  | "emerald" -> [ 1; 2; 4; 8; 16; 28; 40; 56 ]
  | "icelake" -> [ 1; 2; 4; 8; 16; 32; 48; 64; 96 ]
  | "sapphire" -> [ 1; 2; 4; 8; 16; 32; 64; 96; 128; 192 ]
  | _ -> [ 1; 2; 4; 8 ]

let backend ~topology ~duration_cycles : (module Runner.BACKEND) =
  (module struct
    let label = "simulated " ^ topology.Sec_sim.Topology.name
    let file_suffix = ""
    let sweep_threads = threads_for topology

    let prefill_for = prefill_for

    let latency_point = 28
    let latency_unit = "cycles"

    let run_mix maker ~threads ~mix ?(prefill = default_prefill) ?(seed = 1)
        () =
      let m, stats =
        run_with_stats maker ~topology ~threads ~duration_cycles ~mix ~prefill
          ~seed ()
      in
      (m, Some stats.Sec_sim.Sim.schedule_digest)

    let run_latency maker ~threads ~mix ?(prefill = default_prefill)
        ?(seed = 1) () =
      run_latency_profile maker ~topology ~threads ~duration_cycles ~mix
        ~prefill ~seed ()
  end)
