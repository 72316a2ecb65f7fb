(* The benchmark's workloads and the metrics each run reports. All loops
   are closed: a worker issues its next operation when the previous one
   returns. Workloads run one at a time. *)

module Config = Sec_core.Config

type substrate =
  | Native of { window_s : float }
  | Sim of { topology : Sec_sim.Topology.t; cycles : int; reps_per_s : float }

type spec = {
  name : string;
  entry : string;  (** {!Sec_harness.Registry} display name *)
  config : Config.t;  (** that entry's configuration, for the stats run *)
  threads : int;
  mix : Sec_harness.Workload.mix;
  prefill : int;
  substrate : substrate;
}

(* Why each workload, in BENCHMARK.json and perfbench/README.md. *)
let all =
  [
    {
      name = "native-mixed";
      entry = "SEC+MAG";
      config = Config.with_recycling Config.default;
      threads = 2;
      mix = Sec_harness.Workload.mixed;
      prefill = 1_000;
      substrate = Native { window_s = 0.22 };
    };
    {
      name = "sim-contended";
      entry = "SEC";
      config = Config.default;
      threads = 56;
      mix = Sec_harness.Workload.update_heavy;
      prefill = 1_000;
      substrate =
        Sim
          {
            topology = Sec_sim.Topology.emerald;
            cycles = 8_000_000;
            reps_per_s = 0.85;
          };
    };
    {
      name = "sim-uncontended";
      entry = "SEC";
      config = Config.default;
      threads = 4;
      mix = Sec_harness.Workload.update_heavy;
      prefill = 1_000;
      substrate =
        Sim
          {
            topology = Sec_sim.Topology.emerald;
            cycles = 50_000_000;
            reps_per_s = 2.0;
          };
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

type report = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable context lines *)
  attempted : int;
  failed : int;
  correct : bool;
}

(* ------------------------------------------------------------------ *)
(* Controls measured outside the structure.                           *)

(* A fixed CPU loop: if this moves between runs, the host moved. *)
let host_loop_ns () =
  let t0 = Monotonic_clock.now () in
  let x = ref 1 in
  for _ = 1 to 2_000_000 do
    x := Sys.opaque_identity (((!x * 1103515245) + 12345) land 0x3FFFFFFF)
  done;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

let host_samples () = List.init 5 (fun _ -> host_loop_ns ())

(* [Sec_prim.Native.relax 512], the freezer's initial probe, per unit. *)
let relax_ns_per_unit () =
  let batch () =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to 50 do
      Sec_prim.Native.relax 512
    done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. (50. *. 512.)
  in
  Samples.median (List.init 9 (fun _ -> batch ()))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let heap_top_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The process's peak resident set ("VmHWM" in /proc/self/status), or
   the OCaml heap top where the kernel does not report it. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
              try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (fi kb /. 1024.))
              with Scanf.Scan_failure _ | End_of_file -> find ())
        in
        find ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) -> heap_top_mb ()

(* Substrate clock units to nanoseconds: 1 natively, and the repo's
   3 GHz convention for simulated cycles. *)
let ns_per_unit = function Native _ -> 1. | Sim _ -> 1. /. 3.

let maker spec =
  let entry = Sec_harness.Registry.find spec.entry in
  entry.Sec_harness.Registry.maker

(* ------------------------------------------------------------------ *)
(* Substrates. The untraced instances run the registry structure on the
   bare substrate; the traced ones run it on {!Counting}'s wrapper.      *)

module NB = Segment.Make (Mono_native) (struct let to_float = Fun.id end)

module NT =
  Segment.Make (Counting.Make (Mono_native)) (struct let to_float = Fun.id end)

module SB = Segment.Make (Sec_sim.Sim.Prim) (struct let to_float = float_of_int end)

module ST =
  Segment.Make
    (Counting.Make (Sec_sim.Sim.Prim))
    (struct
      let to_float = float_of_int
    end)

(* Mirrors [Sec_harness.Sim_runner]: per-op loop overhead and timing
   jitter of every simulated benchmark run in this repository. *)
let sim_op_overhead = 10
let sim_jitter = 2
let sub_seed seed i = (seed * 1000) + i

(* Native: domain start-up is timed on its own (an empty drive), so
   [setup_s] covers creation, prefill and the domains. *)
let native_window spec ~seed run =
  (* Each segment starts from a collected heap, untimed, so the garbage
     of earlier segments does not land on it. *)
  Gc.full_major ();
  let t0 = Segment.wall_s () in
  Mono_native.with_exec ~seed:(Int64.of_int seed) (fun () ->
      ignore
        (NB.R.drive ~threads:spec.threads ~stop:(NB.R.Ops_per_thread 0)
           ~mix:spec.mix ~push:Segment.noop_ops.push
           ~pop:Segment.noop_ops.pop ~peek:Segment.noop_ops.peek ()));
  let domains_s = Segment.wall_s () -. t0 in
  let r = Mono_native.with_exec ~seed:(Int64.of_int seed) run in
  { r with Segment.setup_s = r.Segment.setup_s +. domains_s }

(* One simulated repetition: the result, the simulator's statistics and
   the wall time of the whole [Sim.run]. *)
let sim_rep ~topology ~seed run =
  Gc.full_major ();
  let t_start = Segment.wall_s () in
  let r, stats =
    Sec_sim.Sim.run ~seed ~jitter:sim_jitter ~topology (fun () -> run ~t_start)
  in
  (r, stats, Segment.wall_s () -. t_start)

let mops_of spec (r : Segment.result) =
  match spec.substrate with
  | Native _ -> fi r.ops /. r.elapsed /. 1e6
  | Sim _ -> fi r.ops *. 3000. /. r.elapsed (* ops / (cycles / 3e9) / 1e6 *)

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs
let sumf f rs = List.fold_left (fun a r -> a +. f r) 0. rs

(* ------------------------------------------------------------------ *)
(* End-to-end runs (tracing off).                                     *)

(* Wall-clock operations per second: natively the throughput itself, in
   the simulator how fast it simulates the workload. *)
let wall_mops_of spec (r : Segment.result) =
  match spec.substrate with
  | Native _ -> mops_of spec r
  | Sim _ -> fi r.ops /. r.run_s /. 1e6

(* Set-up is timed in every segment, plus set-up-only simulator runs up to
   this many samples per run. *)
let setup_samples = 20

let end_to_end spec ~seed ~seconds =
  let host0 = host_samples () in
  (* [tput]: throughput segments; [lats]: latency segments; [setups]:
     every segment, set-up-only ones included. *)
  let tput, lats, setups, rss, extra_notes =
    match spec.substrate with
    | Native { window_s } ->
        let window i ~timed =
          native_window spec ~seed:(sub_seed seed i) (fun () ->
              NB.run
                ~make:(fun () -> NB.of_maker (maker spec) ~threads:spec.threads)
                ~threads:spec.threads ~mix:spec.mix ~prefill:spec.prefill
                ~budget:window_s ~timed ())
        in
        let warm_up = window 0 ~timed:false in
        let n = max 1 (2 * seconds) in
        let ts = List.init n (fun i -> window (1 + i) ~timed:false) in
        (* The peak is read before the latency windows, whose sample
           buffers belong to the benchmark, not to the program. *)
        let rss = peak_rss_mb () in
        let ls = List.init n (fun i -> window (1 + n + i) ~timed:true) in
        let m = List.sort compare (List.map (mops_of spec) ts) in
        ( ts,
          ls,
          (warm_up :: ts) @ ls,
          rss,
          [
            Printf.sprintf "mops over %d windows: min %.4g, median %.4g, max %.4g"
              n (List.hd m) (Samples.median m) (List.nth m (n - 1));
          ] )
    | Sim { topology; cycles; reps_per_s } ->
        let reps = max 1 (int_of_float (Float.round (fi seconds *. reps_per_s))) in
        let rep i ~budget ~timed =
          sim_rep ~topology ~seed:(sub_seed seed i) (fun ~t_start ->
              SB.run ~t_start ~op_overhead:sim_op_overhead
                ~make:(fun () -> SB.of_maker (maker spec) ~threads:spec.threads)
                ~threads:spec.threads ~mix:spec.mix ~prefill:spec.prefill ~budget
                ~timed ())
        in
        let runs = List.init reps (fun i -> rep i ~budget:cycles ~timed:true) in
        let rss = peak_rss_mb () in
        let setup_only =
          List.init (max 0 (setup_samples - reps)) (fun i ->
              let r, _, _ = rep (500 + i) ~budget:0 ~timed:false in
              r)
        in
        let rs = List.map (fun (r, _, _) -> r) runs in
        let events = List.fold_left (fun a (_, s, _) -> a + s.Sec_sim.Sim.events) 0 runs in
        ( rs,
          rs,
          rs @ setup_only,
          rss,
          [
            Printf.sprintf "simulator: %d reps of %d cycles, %.4g events per wall second"
              reps cycles
              (fi events /. sumf (fun (_, _, w) -> w) runs);
          ] )
  in
  let failed = sum (fun r -> r.Segment.mismatch) setups in
  let attempted = max 1 (sum (fun r -> r.Segment.ops) setups) in
  let ns = ns_per_unit spec.substrate in
  (* Per latency segment, then the fast quartile over segments. *)
  let fast ~higher f rs = Samples.fast_quartile ~higher (List.map f rs) in
  (* The mean of the fastest 99% of updates, and the slow tail (ranks p95
     to p99) relative to it: host slowdowns stretch both alike natively. *)
  let bulk = Samples.band_mean ~lo:0. ~hi:0.99 in
  let tail = Samples.band_mean ~lo:0.95 ~hi:0.99 in
  let tail_ratio l = ratio (tail l) (bulk l) in
  let lat f = fast ~higher:false (fun r -> f r.Segment.latencies *. ns) lats in
  let pct p = lat (fun l -> fi (Samples.percentile l p)) in
  let samples = sum (fun r -> Array.length r.Segment.latencies) lats in
  let host1 = host_samples () in
  let metrics =
    [
      ("mops", fast ~higher:true (mops_of spec) tput, "Mops/s");
      ("update_mean_ns", lat bulk, "ns");
      ( "update_tail_ratio",
        fast ~higher:false (fun r -> tail_ratio r.Segment.latencies) lats,
        "ratio" );
      ("wall_mops", fast ~higher:true (wall_mops_of spec) tput, "Mops/s");
      ("setup_s", fast ~higher:false (fun r -> r.Segment.setup_s) setups, "s");
      ("peak_rss_mb", rss, "MB");
    ]
  in
  {
    metrics;
    notes =
      [
        Printf.sprintf
          "update latency: p50 %.6g ns, p99 %.6g ns, p95-p99 mean %.6g ns \
           (fast quartile of %d segments; %d samples, %s)"
          (pct 0.5) (pct 0.99) (lat tail) (List.length lats) samples
          (match spec.substrate with
          | Native _ -> "monotonic clock"
          | Sim _ -> "virtual cycles / 3");
        Printf.sprintf "failed_op_ratio: %g (%d of %d operations)"
          (fi failed /. fi attempted) failed attempted;
        Printf.sprintf "host.loop_ns: start %.0f, end %.0f (median of 5 each)"
          (Samples.median host0) (Samples.median host1);
        Printf.sprintf "setup_s over %d set-ups" (List.length setups);
      ]
      @ extra_notes;
    attempted;
    failed;
    correct = failed = 0;
  }

(* ------------------------------------------------------------------ *)
(* Traced runs: per-layer metrics.                                    *)

let write_trace spec ~seed tr =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "trace-%s-%d.csv" spec.name seed) in
  let oc = open_out file in
  output_string oc (Segment.span_header ^ "\n");
  Segment.write_spans tr oc;
  close_out oc;
  file

let per_layer spec ~seed ~seconds =
  let host0 = host_samples () in
  let relax_unit = relax_ns_per_unit () in
  let sub = spec.substrate in
  let unit_ns = ns_per_unit sub in
  let tr = Segment.create_trace ~threads:spec.threads in
  (* Batch statistics over the driven phase of the stats segment. *)
  let batch = ref Sec_core.Sec_stats.empty in
  let with_stats (ops, read) =
    let base = ref Sec_core.Sec_stats.empty in
    ( (fun () -> base := read ()),
      (fun () -> ops),
      fun () -> batch := Sec_core.Sec_stats.diff (read ()) !base )
  in
  (* [loop]: the runner loop's own cost per op, in substrate units, and
     [loop_wall_ns] in wall ns per op. [untraced], [traced]: segments of
     the structure without and with tracing. [stats]: the
     batch-statistics segment. [sims]: per traced rep, the untraced rep's
     simulator stats and wall time. [peek_tr]: the trace peeks are read
     from. *)
  let loop, loop_wall_ns, untraced, traced, stats, sims, peek_tr, checks =
    match sub with
    | Native { window_s } ->
        let k = max 1 seconds in
        let window i run = native_window spec ~seed:(sub_seed seed i) run in
        let plain i =
          window i (fun () ->
              NB.run
                ~make:(fun () -> NB.of_maker (maker spec) ~threads:spec.threads)
                ~threads:spec.threads ~mix:spec.mix ~prefill:spec.prefill
                ~budget:window_s ~timed:false ())
        in
        let loops =
          List.init 2 (fun i ->
              window (100 + i) (fun () ->
                  NB.run ~check:false ~make:(fun () -> Segment.noop_ops)
                    ~threads:spec.threads ~mix:spec.mix ~prefill:0
                    ~budget:window_s ~timed:false ()))
        in
        ignore (plain 0);
        let untraced = List.init k (fun i -> plain (1 + i)) in
        let traced =
          List.init k (fun i ->
              window (1 + i) (fun () ->
                  NT.run ~trace:tr
                    ~make:(fun () -> NT.of_maker (maker spec) ~threads:spec.threads)
                    ~threads:spec.threads ~mix:spec.mix ~prefill:spec.prefill
                    ~budget:window_s ~timed:false ()))
        in
        let stats =
          window 200 (fun () ->
              let after_prefill, make, finish =
                with_stats (NB.sec_with_stats spec.config ~threads:spec.threads)
              in
              let r =
                NB.run ~after_prefill ~make ~threads:spec.threads ~mix:spec.mix
                  ~prefill:spec.prefill ~budget:window_s ~timed:false ()
              in
              finish ();
              r)
        in
        let loop =
          Samples.median
            (List.map
               (fun r -> fi spec.threads *. r.Segment.elapsed *. 1e9 /. fi r.Segment.ops)
               loops)
        in
        (loop, loop, untraced, traced, stats, [], tr, [])
    | Sim { topology; cycles; reps_per_s } ->
        let reps = max 1 (int_of_float (Float.round (fi seconds *. reps_per_s))) in
        let rep ~seed run = sim_rep ~topology ~seed run in
        let loop_r, _, _ =
          rep ~seed:(sub_seed seed 100) (fun ~t_start ->
              SB.run ~t_start ~check:false ~op_overhead:sim_op_overhead
                ~make:(fun () -> Segment.noop_ops)
                ~threads:spec.threads ~mix:spec.mix ~prefill:0
                ~budget:(cycles / 10) ~timed:false ())
        in
        (* Each untraced rep is repeated, same seed, on the counting
           wrapper: the two must take the same schedule. *)
        let pairs =
          List.init
            (max 1 (reps / 3))
            (fun i ->
              let seed = sub_seed seed i in
              let u, us, uwall =
                rep ~seed (fun ~t_start ->
                    SB.run ~t_start ~op_overhead:sim_op_overhead
                      ~make:(fun () -> SB.of_maker (maker spec) ~threads:spec.threads)
                      ~threads:spec.threads ~mix:spec.mix ~prefill:spec.prefill
                      ~budget:cycles ~timed:false ())
              in
              Counting.reset ();
              let t, ts, _ =
                rep ~seed (fun ~t_start ->
                    ST.run ~t_start ~trace:tr ~op_overhead:sim_op_overhead
                      ~make:(fun () -> ST.of_maker (maker spec) ~threads:spec.threads)
                      ~threads:spec.threads ~mix:spec.mix ~prefill:spec.prefill
                      ~budget:cycles ~timed:false ())
              in
              let checks =
                [
                  ( Printf.sprintf "rep %d: traced schedule digest equals untraced" i,
                    us.Sec_sim.Sim.schedule_digest = ts.Sec_sim.Sim.schedule_digest
                    && u.Segment.ops = t.Segment.ops );
                  ( Printf.sprintf "rep %d: counted note_alloc equals Sim.stats.allocs" i,
                    Cells.total Counting.cells Counting.Ix.allocs = ts.Sec_sim.Sim.allocs );
                ]
              in
              (u, t, (us, uwall), checks))
        in
        let stats, _, _ =
          rep ~seed:(sub_seed seed 200) (fun ~t_start ->
              let after_prefill, make, finish =
                with_stats (SB.sec_with_stats spec.config ~threads:spec.threads)
              in
              let r =
                SB.run ~t_start ~after_prefill ~op_overhead:sim_op_overhead ~make
                  ~threads:spec.threads ~mix:spec.mix ~prefill:spec.prefill
                  ~budget:cycles ~timed:false ()
              in
              finish ();
              r)
        in
        (* The mixes here have no peeks: time them in a short read-heavy
           run on the same structure. *)
        let peek_tr = Segment.create_trace ~threads:spec.threads in
        ignore
          (rep ~seed:(sub_seed seed 300) (fun ~t_start ->
               ST.run ~t_start ~trace:peek_tr ~op_overhead:sim_op_overhead
                 ~make:(fun () -> ST.of_maker (maker spec) ~threads:spec.threads)
                 ~threads:spec.threads ~mix:Sec_harness.Workload.read_heavy
                 ~prefill:spec.prefill ~budget:(cycles / 10) ~timed:false ()));
        ( fi spec.threads *. loop_r.Segment.elapsed /. fi loop_r.Segment.ops,
          loop_r.Segment.run_s *. 1e9 /. fi loop_r.Segment.ops,
          List.map (fun (u, _, _, _) -> u) pairs,
          List.map (fun (_, t, _, _) -> t) pairs,
          stats,
          List.map (fun (_, _, s, _) -> s) pairs,
          peek_tr,
          List.concat_map (fun (_, _, _, c) -> c) pairs )
  in
  let host1 = host_samples () in
  (* Spans: every call into the structure during the traced segments. *)
  let ops = Segment.sum_over_kinds (Segment.kind_count tr) in
  let opsf = fi (max 1 ops) in
  let counter c = fi (Segment.sum_over_kinds (fun k -> Segment.kind_counter tr k c)) in
  let per_op c = counter c /. opsf in
  let cas = counter Counting.Ix.cas_ok +. counter Counting.Ix.cas_fail in
  (* Mean of the fastest 99% of a kind's calls, in ns. *)
  let kind_mean tr k =
    let sorted =
      Samples.sorted
        (Array.to_list (Array.map (fun th -> th.Segment.lat.(k)) tr.Segment.threads))
    in
    Samples.band_mean ~lo:0. ~hi:0.99 sorted *. unit_ns
  in
  let span_time = fi (Segment.sum_over_kinds (Segment.kind_time tr)) in
  let worker_time =
    fi spec.threads *. sumf (fun r -> r.Segment.elapsed) traced
    *. match sub with Native _ -> 1e9 | Sim _ -> 1.
  in
  let mops rs = Samples.median (List.map (mops_of spec) rs) in
  (* Allocator tallies: the traced segments. *)
  let asum f = fi (sum (fun r -> f r.Segment.alloc) traced) in
  let open Sec_core.Sec_stats in
  let hits = asum (fun a -> a.mag_hits) and misses = asum (fun a -> a.mag_misses) in
  let depot = asum (fun a -> a.depot_cas) in
  (* GC: the untraced segments, so tracing's own allocation is left out. *)
  let uops = fi (max 1 (sum (fun r -> r.Segment.ops) untraced)) in
  let gsum f = sumf (fun r -> f r.Segment.gc) untraced in
  (* Simulator: the untraced reps (their schedules equal the traced). *)
  let ssum f = fi (List.fold_left (fun a (s, _) -> a + f s) 0 sims) in
  let traffic f = ssum (fun s -> f s.Sec_sim.Sim.traffic) /. uops in
  let events = ssum (fun s -> s.Sec_sim.Sim.events) in
  let b = !batch in
  let metrics =
    [
      ("runner.loop_ns_per_op", loop_wall_ns, "ns");
      ("native.relax_ns_per_unit", relax_unit, "ns");
      ("host.loop_ns", Samples.median (host0 @ host1), "ns");
      ("sec_stack.push_mean_ns", kind_mean tr 0, "ns");
      ("sec_stack.pop_mean_ns", kind_mean tr 1, "ns");
      ("sec_stack.peek_mean_ns", kind_mean peek_tr 2, "ns");
      ("sec_stack.faa_per_op", per_op Counting.Ix.faa, "count/op");
      ("sec_stack.xchg_per_op", per_op Counting.Ix.xchg, "count/op");
      ("sec_stack.cas_per_op", cas /. opsf, "count/op");
      ("sec_stack.cas_fail_ratio", ratio (counter Counting.Ix.cas_fail) cas, "ratio");
      ("sec_stack.get_per_op", per_op Counting.Ix.get, "count/op");
      ("sec_stack.set_per_op", per_op Counting.Ix.set, "count/op");
      ("sec_stack.relax_units_per_op", per_op Counting.Ix.relax_units, "count/op");
      ("sec_stack.relax_ns_per_op", per_op Counting.Ix.relax_time *. unit_ns, "ns");
      ("sec_stack.yields_per_op", per_op Counting.Ix.yields, "count/op");
      ("sec_stack.batch_degree", batching_degree b, "ops/batch");
      ("sec_stack.elim_ratio", ratio (fi b.eliminated) (fi b.operations), "ratio");
      ("sec_stack.excluded_ratio", ratio (fi b.excluded) (fi b.operations), "ratio");
      ("magazine.hit_rate", ratio hits (hits +. misses), "ratio");
      ("magazine.depot_cas_per_kop", depot *. 1000. /. opsf, "count/kop");
      ("magazine.depot_retry_ratio", ratio (asum (fun a -> a.depot_cas_retries)) depot, "ratio");
      ("slab.cas_per_kop", asum (fun a -> a.slab_cas) *. 1000. /. opsf, "count/kop");
      ("alloc.fresh_nodes_per_op", per_op Counting.Ix.allocs, "count/op");
      ("gc.minor_words_per_op", gsum (fun g -> g.Segment.minor_words) /. uops, "words/op");
      ( "gc.minor_collections_per_kop",
        gsum (fun g -> fi g.Segment.minor_collections) *. 1000. /. uops,
        "count/kop" );
      ("gc.major_collections", gsum (fun g -> fi g.Segment.major_collections), "count");
      ("gc.heap_top_mb", heap_top_mb (), "MB");
      ("sim.events_per_op", events /. uops, "count/op");
      ("sim.events_per_s", ratio events (sumf snd sims), "1/s");
      ("cache_model.transfers_per_op", traffic (fun t -> t.Sec_sim.Cache_model.transfers), "count/op");
      ( "cache_model.remote_transfers_per_op",
        traffic (fun t -> t.Sec_sim.Cache_model.remote_transfers),
        "count/op" );
      ( "cache_model.invalidations_per_op",
        traffic (fun t -> t.Sec_sim.Cache_model.invalidations),
        "count/op" );
      ("trace.overhead_ratio", 1. -. ratio (mops traced) (mops untraced), "ratio");
      ( "trace.unattributed_ratio",
        1. -. ratio (span_time +. (fi ops *. loop)) worker_time,
        "ratio" );
    ]
  in
  let all_runs = (stats :: untraced) @ traced in
  let failed = sum (fun r -> r.Segment.mismatch) all_runs in
  let attempted = max 1 (sum (fun r -> r.Segment.ops) all_runs) in
  let file = write_trace spec ~seed tr in
  {
    metrics;
    notes =
      Printf.sprintf "spans: %d op calls traced, a sample written to %s" ops file
      :: Printf.sprintf "failed_op_ratio: %g (%d of %d operations)"
           (fi failed /. fi attempted) failed attempted
      :: List.map (fun (what, ok) -> (if ok then "ok: " else "FAILED: ") ^ what) checks;
    attempted;
    failed;
    correct = failed = 0 && List.for_all snd checks;
  }
