module Atomic = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make = Stdlib.Atomic.make
  let make_padded v = Padding.copy_as_padded (Stdlib.Atomic.make v)
  let get = Stdlib.Atomic.get
  let set = Stdlib.Atomic.set
  let exchange = Stdlib.Atomic.exchange
  let compare_and_set = Stdlib.Atomic.compare_and_set
  let fetch_and_add = Stdlib.Atomic.fetch_and_add
  let incr = Stdlib.Atomic.incr
  let decr = Stdlib.Atomic.decr
end

let cpu_relax = Domain.cpu_relax

let relax n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* [nanosleep(2)] with a zero interval, through [Unix.sleepf 0.]: the call
   enters the kernel scheduler, so a descheduled domain (or any other
   runnable thread) gets the CPU. [Thread.yield] would only hand this
   domain's runtime lock to its own systhreads. *)
let yield () = Unix.sleepf 0.

(* CLOCK_MONOTONIC in nanoseconds: [Unix.gettimeofday] has microsecond
   resolution and steps with the wall clock. *)
let now_ns = Monotonic_clock.now

(* Per-domain generator, lazily seeded from the domain id and the clock so
   that concurrently created domains get distinct streams. *)
let rng_key =
  Domain.DLS.new_key (fun () ->
      let id = (Domain.self () :> int) in
      Rng.create
        (Int64.add (Int64.of_int (0x51EC + (id * 0x9E37))) (now_ns ())))

let seed_rng seed = Rng.create seed |> Domain.DLS.set rng_key
let rand_int bound = Rng.int (Domain.DLS.get rng_key) bound
let rand_bits () = Rng.bits (Domain.DLS.get rng_key)

(* Native allocation is measured by the GC itself (Gc.minor_words); the
   hook only exists so the simulator can count the same sites. *)
let note_alloc () = ()

(* ------------------------------------------------------------------ *)
(* Execution (Prim_intf.EXEC): a persistent worker pool.

   [spawn] only registers a thunk. [await_all] hands the i-th registered
   thunk to the i-th pooled domain, creating a domain the first time a run
   needs more than the pool holds: the pool grows to the largest thread
   count any run has asked for, and later runs spawn and join no domain.
   One broadcast releases the workers together; the caller then sleeps out
   the current deadline's duration (if one was created), raises the stop
   flag and waits until every job has finished. Idle workers and the
   waiting caller block on condition variables instead of spinning, so
   they leave the CPUs to the workers when domains outnumber cores.

   Every job runs to completion: a worker catches its thunk's exception,
   and [await_all] re-raises the first one in spawn order once all jobs
   are done, so the next run finds the pool idle. [await_all] from inside
   a pooled worker raises [Invalid_argument]: it would wait on the pool
   that runs it. Harness runs are sequential, so one module-level context
   is enough; [with_exec] resets it.

   Randomness: [with_exec ~seed] creates a run-level SplitMix64 stream;
   the caller's generator and each worker's generator are [Rng.split]
   from it in spawn order — the same derivation the simulator uses for
   its fibers — so every draw (benchmark loop and algorithm-internal
   alike) goes through [rand_int] on one documented stream per thread. *)

type budget = float

type deadline = {
  stop : bool Stdlib.Atomic.t;
  duration : float;
  mutable measured : float; (* wall time workers actually ran *)
}

type job = { tid : int; rng : Rng.t; body : unit -> unit }

type exec_ctx = {
  mutable thunks : job list; (* reversed *)
  mutable spawned : int;
  mutable current : deadline option;
  mutable run_rng : Rng.t;
}

let ctx =
  { thunks = []; spawned = 0; current = None; run_rng = Rng.create 0x5ECL }

let tid_key = Domain.DLS.new_key (fun () -> -1)

let deadline_after duration =
  let d = { stop = Stdlib.Atomic.make false; duration; measured = duration } in
  ctx.current <- Some d;
  d

let expired d = Stdlib.Atomic.get d.stop
let elapsed d = d.measured

let spawn body =
  let tid = ctx.spawned in
  ctx.spawned <- tid + 1;
  ctx.thunks <- { tid; rng = Rng.split ctx.run_rng; body } :: ctx.thunks

let thread_id () = Domain.DLS.get tid_key
let num_threads () = ctx.spawned

(* Every field is read and written under [lock]. *)
type pool = {
  lock : Mutex.t;
  released : Condition.t; (* a run handed out its jobs *)
  finished : Condition.t; (* the current run's last job finished *)
  mutable size : int; (* domains created so far *)
  mutable runs : int; (* runs released so far *)
  mutable jobs : job array; (* the current run's, by spawn rank *)
  mutable failures : (exn * Printexc.raw_backtrace) option array;
  mutable pending : int; (* jobs of the current run still running *)
}

let pool =
  {
    lock = Mutex.create ();
    released = Condition.create ();
    finished = Condition.create ();
    size = 0;
    runs = 0;
    jobs = [||];
    failures = [||];
    pending = 0;
  }

let run_job slot job =
  Domain.DLS.set tid_key job.tid;
  Domain.DLS.set rng_key job.rng;
  let failure =
    match job.body () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.protect pool.lock (fun () ->
      pool.failures.(slot) <- failure;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.signal pool.finished)

(* Pooled domain [slot]: take job [slot] of every run released after
   [seen], if that run has one. *)
let serve slot seen =
  let seen = ref seen in
  while true do
    Mutex.lock pool.lock;
    while pool.runs = !seen do
      Condition.wait pool.released pool.lock
    done;
    seen := pool.runs;
    let job =
      if slot < Array.length pool.jobs then Some pool.jobs.(slot) else None
    in
    Mutex.unlock pool.lock;
    Option.iter (run_job slot) job
  done

let release jobs =
  Mutex.protect pool.lock (fun () ->
      let n = Array.length jobs in
      while pool.size < n do
        let slot = pool.size and seen = pool.runs in
        ignore (Domain.spawn (fun () -> serve slot seen) : unit Domain.t);
        pool.size <- slot + 1
      done;
      pool.jobs <- jobs;
      pool.failures <- Array.make n None;
      pool.pending <- n;
      pool.runs <- pool.runs + 1;
      Condition.broadcast pool.released)

let wait_finished () =
  Mutex.protect pool.lock (fun () ->
      while pool.pending > 0 do
        Condition.wait pool.finished pool.lock
      done;
      pool.jobs <- [||];
      pool.failures)

let await_all () =
  (* Only a pooled worker has a thread id. *)
  if thread_id () >= 0 then
    invalid_arg "Native.await_all: called from a pooled worker";
  let jobs = Array.of_list (List.rev ctx.thunks) in
  let deadline = ctx.current in
  ctx.thunks <- [];
  ctx.current <- None;
  if Array.length jobs > 0 then begin
    release jobs;
    let t0 = now_ns () in
    Option.iter
      (fun d ->
        Unix.sleepf d.duration;
        let t1 = now_ns () in
        Stdlib.Atomic.set d.stop true;
        d.measured <- Int64.to_float (Int64.sub t1 t0) *. 1e-9)
      deadline;
    Array.iter
      (Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt))
      (wait_finished ())
  end

let with_exec ~seed f =
  ctx.thunks <- [];
  ctx.spawned <- 0;
  ctx.current <- None;
  ctx.run_rng <- Rng.create seed;
  Domain.DLS.set rng_key (Rng.split ctx.run_rng);
  f ()
