(* Native backend adapter: timed runs on real domains (the paper's
   methodology: run for a fixed wall-clock duration on a prefilled stack,
   threads drawing operations at random). The workload loop itself lives
   in {!Runner.Make}; this module only supplies the substrate
   ({!Sec_prim.Native}), seeds it, and converts outcomes to
   {!Measurement}s. Thread counts beyond the host's cores oversubscribe —
   fine for correctness, but this host has very few cores, so paper-scale
   numbers come from {!Sim_runner}. *)

module P = Sec_prim.Native
module R = Runner.Make (P)

let default_prefill = Runner.default_prefill
let default_value_range = Runner.default_value_range

(* All randomness (mix draws, push values, algorithm-internal backoff)
   flows through the substrate's per-thread generators, which
   [P.with_exec] derives from the one run seed — the same scheme the
   simulator uses (see Prim_intf.EXEC). *)
let with_seed seed f = P.with_exec ~seed:(Int64.of_int seed) f

let run (module Maker : Registry.MAKER) ~threads ~duration ~mix
    ?(prefill = default_prefill) ?(value_range = default_value_range)
    ?(seed = 1) () =
  with_seed seed @@ fun () ->
  let name, outcome =
    R.run_maker
      (module Maker)
      ~threads ~stop:(R.Timed duration) ~mix ~prefill ~value_range ()
  in
  let elapsed = Option.value outcome.R.elapsed ~default:duration in
  Measurement.of_native ~algorithm:name ~threads ~ops:(R.total outcome)
    ~elapsed

(* Per-operation latency histogram in nanoseconds — previously
   sim-only; the observer mechanism makes it backend-independent. *)
let run_latency_profile (module Maker : Registry.MAKER) ~threads ~duration
    ~mix ?(prefill = default_prefill) ?(value_range = default_value_range)
    ?(seed = 1) () =
  with_seed seed @@ fun () ->
  let observer, merged = R.latency_observer ~threads in
  let _name, _outcome =
    R.run_maker
      (module Maker)
      ~observer ~threads ~stop:(R.Timed duration) ~mix ~prefill ~value_range
      ()
  in
  merged ()

(* Record a real-time-stamped operation history on real domains, for
   linearizability checking of native executions. *)
let run_recorded (module Maker : Registry.MAKER) ~threads ~ops_per_thread
    ~mix ?(prefill = default_prefill) ?(value_range = default_value_range)
    ?(seed = 1) () =
  with_seed seed @@ fun () ->
  let _name, history, outcome =
    R.run_recorded
      (module Maker)
      ~threads
      ~stop:(R.Ops_per_thread ops_per_thread)
      ~mix ~prefill ~value_range ()
  in
  (history, outcome.R.counts)

let backend ~duration : (module Runner.BACKEND) =
  (module struct
    let label = "native domains"
    let file_suffix = "_native"
    let sweep_threads = [ 1; 2; 4 ]

    (* Native cores pop millions of times per second; size the pop-only
       prefill to keep the stack non-empty for the wall-clock window. *)
    let prefill_for mix =
      if mix.Workload.pop_pct = 100 then 2_000_000 else default_prefill

    let latency_point = 4
    let latency_unit = "ns"

    let run_mix maker ~threads ~mix ?(prefill = default_prefill) ?(seed = 1)
        () =
      (run maker ~threads ~duration ~mix ~prefill ~seed (), None)

    let run_latency maker ~threads ~mix ?(prefill = default_prefill)
        ?(seed = 1) () =
      run_latency_profile maker ~threads ~duration ~mix ~prefill ~seed ()
  end)
