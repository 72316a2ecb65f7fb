(* The single workload driver behind every benchmark in this repository.

   The paper's methodology (Section 6) — prefilled stack, threads drawing
   operations at random for a fixed duration, per-thread counts — used to
   be implemented once per backend and once per metric. It now exists
   exactly once, in {!Make.drive}, parameterized two ways:

   - the execution substrate [X : Sec_prim.Prim_intf.EXEC] decides what a
     thread, a clock and a deadline are (real domains and wall seconds, or
     simulator fibers and virtual cycles);
   - an {!Make.observer} decides what to record per operation, so
     throughput counting, latency histograms and history recording are
     three observers over one loop instead of three forked loops.

   {!Native_runner} and {!Sim_runner} are thin adapters over this functor;
   they contain no workload loop of their own. *)

let default_prefill = 1_000
let default_value_range = 100_000

module Make (X : Sec_prim.Prim_intf.EXEC) = struct
  (* Per-operation instrumentation. [timed] gates the two substrate clock
     reads around each operation so that plain throughput runs pay for
     none (in the simulator, [now_ns] is free but the flag keeps the
     native fast path branch-only; observers that ignore timestamps set it
     to [false] and receive zeros). *)
  type observer = {
    timed : bool;
    on_op :
      tid:int ->
      op:Workload.op ->
      value:int ->
      result:int option ->
      start:int64 ->
      finish:int64 ->
      unit;
  }

  let counting_observer =
    {
      timed = false;
      on_op = (fun ~tid:_ ~op:_ ~value:_ ~result:_ ~start:_ ~finish:_ -> ());
    }

  (* Latency histogram per thread (no sharing on the hot path), merged on
     demand after the run. *)
  let latency_observer ~threads =
    let per_thread = Array.init threads (fun _ -> Latency.create ()) in
    let observer =
      {
        timed = true;
        on_op =
          (fun ~tid ~op:_ ~value:_ ~result:_ ~start ~finish ->
            Latency.add per_thread.(tid)
              (Int64.to_int (Int64.sub finish start)));
      }
    in
    (observer, fun () -> Array.fold_left Latency.merge (Latency.create ()) per_thread)

  (* Record a {!Sec_spec.History} of every operation, for linearizability
     checking. Works on both substrates: timestamps are whatever [X]'s
     clock says, which is exactly what {!Sec_spec.Lin_check} wants. *)
  let history_observer ~threads =
    let history = Sec_spec.History.create ~max_threads:threads in
    let observer =
      {
        timed = true;
        on_op =
          (fun ~tid ~op ~value ~result ~start ~finish ->
            let recorded =
              match op with
              | Workload.Push -> Sec_spec.History.Push value
              | Workload.Pop -> Sec_spec.History.Pop result
              | Workload.Peek -> Sec_spec.History.Peek result
            in
            Sec_spec.History.add history ~tid recorded ~inv:start ~resp:finish);
      }
    in
    (observer, history)

  type stop_rule =
    | Timed of X.budget  (** run until the backend's deadline expires *)
    | Ops_per_thread of int  (** run a fixed count; no deadline, no clock *)

  type outcome = {
    counts : int array;  (** operations completed, per thread *)
    elapsed : X.budget option;  (** measured duration of [Timed] runs *)
  }

  let total outcome = Array.fold_left ( + ) 0 outcome.counts

  (* THE workload loop. Everything the old per-backend runners did lives
     here: spawn [threads] workers, each drawing operations from [mix]
     ([op_overhead] models the draw/branch/counter cost of the benchmark
     loop itself — the simulator charges it, native leaves it 0) until the
     stop rule fires.

     Effect-trace compatibility (simulator determinism): per iteration
     this performs, in order, the deadline check ([Now]), [Relax
     op_overhead] (when nonzero), [Rand_int 100] for the mix draw, then
     for a push [Rand_int value_range] followed by the operation's own
     accesses — the same trace as the three loops it replaces, so pinned
     seeds reproduce the pre-refactor schedules cycle for cycle. *)
  let drive ?(observer = counting_observer) ?(op_overhead = 0) ~threads ~stop
      ~mix ?(value_range = default_value_range) ~push ~pop ~peek () =
    let counts = Array.make threads 0 in
    let deadline =
      match stop with
      | Timed budget -> Some (X.deadline_after budget)
      | Ops_per_thread _ -> None
    in
    let cap =
      match stop with Ops_per_thread n -> n | Timed _ -> max_int
    in
    for _ = 1 to threads do
      X.spawn (fun () ->
          let tid = X.thread_id () in
          let ops = ref 0 in
          let keep_going () =
            !ops < cap
            &&
            match deadline with
            | Some d -> not (X.expired d)
            | None -> true
          in
          while keep_going () do
            if op_overhead > 0 then X.relax op_overhead;
            let op = Workload.pick mix (X.rand_int 100) in
            let start = if observer.timed then X.now_ns () else 0L in
            let value, result =
              match op with
              | Workload.Push ->
                  let v = X.rand_int value_range in
                  push ~tid v;
                  (v, None)
              | Workload.Pop -> (0, pop ~tid)
              | Workload.Peek -> (0, peek ~tid)
            in
            let finish = if observer.timed then X.now_ns () else 0L in
            observer.on_op ~tid ~op ~value ~result ~start ~finish;
            incr ops
          done;
          counts.(tid) <- !ops)
    done;
    X.await_all ();
    { counts; elapsed = Option.map X.elapsed deadline }

  (* [run_maker]: the standard stack benchmark — instantiate a registry
     MAKER on this substrate, prefill single-threaded, drive. Returns the
     algorithm's display name with the outcome. *)
  let run_maker (module Maker : Sec_spec.Stack_intf.MAKER) ?observer
      ?op_overhead ~threads ~stop ~mix ?(prefill = default_prefill)
      ?(value_range = default_value_range) () =
    let module S = Maker (X) in
    let stack = S.create ~max_threads:(max threads 1) () in
    for i = 1 to prefill do
      S.push stack ~tid:0 (i mod value_range)
    done;
    let outcome =
      drive ?observer ?op_overhead ~threads ~stop ~mix ~value_range
        ~push:(fun ~tid v -> S.push stack ~tid v)
        ~pop:(fun ~tid -> S.pop stack ~tid)
        ~peek:(fun ~tid -> S.peek stack ~tid)
        ()
    in
    (S.name, outcome)

  (* [run_recorded]: same benchmark with a full operation history, for
     linearizability checking on either substrate. *)
  let run_recorded (module Maker : Sec_spec.Stack_intf.MAKER) ?op_overhead
      ~threads ~stop ~mix ?prefill ?value_range () =
    let observer, history = history_observer ~threads in
    let name, outcome =
      run_maker
        (module Maker)
        ~observer ?op_overhead ~threads ~stop ~mix ?prefill ?value_range ()
    in
    (name, history, outcome)
end

(* ------------------------------------------------------------------ *)
(* A benchmark backend: [Runner.Make] applied to one substrate, plus the
   presentation facts experiments need to stay backend-agnostic (display
   label, CSV suffix, default sweep points). Constructed by
   {!Native_runner.backend} and {!Sim_runner.backend}; {!Experiments}
   iterates over first-class [(module BACKEND)] values. *)

module type BACKEND = sig
  (** Suffix of report titles, e.g. ["simulated emerald"] or
      ["native domains"]. *)
  val label : string

  (** Appended to CSV base names (["" ] for sim, ["_native"] native) so
      the two backends' files coexist in one results directory. *)
  val file_suffix : string

  (** Default thread counts for throughput sweeps. *)
  val sweep_threads : int list

  (** Workload-dependent prefill: pop-only sweeps need the stack to
      outlast the measurement window. *)
  val prefill_for : Workload.mix -> int

  (** Thread count and clock unit for the latency-distribution profile. *)
  val latency_point : int

  val latency_unit : string

  (** One throughput point, with the run's schedule digest
      ([Sim.stats.schedule_digest]; native runs have none). *)
  val run_mix :
    (module Sec_spec.Stack_intf.MAKER) ->
    threads:int ->
    mix:Workload.mix ->
    ?prefill:int ->
    ?seed:int ->
    unit ->
    Measurement.t * int option

  val run_latency :
    (module Sec_spec.Stack_intf.MAKER) ->
    threads:int ->
    mix:Workload.mix ->
    ?prefill:int ->
    ?seed:int ->
    unit ->
    Latency.t
end
