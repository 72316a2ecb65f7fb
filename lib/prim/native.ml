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

let yield = Thread.yield

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
(* Execution (Prim_intf.EXEC): a deferred domain pool.

   [spawn] only registers a thunk; [await_all] spawns the domains, holds
   them on a start barrier so they begin the measured phase together,
   releases them, sleeps out the current deadline's duration (if one was
   created), raises the stop flag and joins. Harness runs are sequential,
   so one module-level context is enough; [with_exec] resets it.

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

type exec_ctx = {
  mutable thunks : (int * Rng.t * (unit -> unit)) list; (* reversed *)
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
  ctx.thunks <- (tid, Rng.split ctx.run_rng, body) :: ctx.thunks

let thread_id () = Domain.DLS.get tid_key
let num_threads () = ctx.spawned

let await_all () =
  let thunks = List.rev ctx.thunks in
  ctx.thunks <- [];
  let n = List.length thunks in
  if n > 0 then begin
    (* Sense barrier: workers check in, then hold until [go] flips. *)
    let ready = Stdlib.Atomic.make 0 in
    let go = Stdlib.Atomic.make false in
    let domains =
      List.map
        (fun (tid, rng, body) ->
          Domain.spawn (fun () ->
              Domain.DLS.set tid_key tid;
              Domain.DLS.set rng_key rng;
              Stdlib.Atomic.incr ready;
              while not (Stdlib.Atomic.get go) do
                Domain.cpu_relax ()
              done;
              body ()))
        thunks
    in
    while Stdlib.Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    Stdlib.Atomic.set go true;
    let t0 = Unix.gettimeofday () in
    (match ctx.current with
    | Some d ->
        Unix.sleepf d.duration;
        let t1 = Unix.gettimeofday () in
        Stdlib.Atomic.set d.stop true;
        d.measured <- t1 -. t0
    | None -> ());
    List.iter Domain.join domains;
    match ctx.current with
    | Some _ -> ()
    | None ->
        (* Untimed (op-bounded) run: elapsed is join-to-join. *)
        ignore (Unix.gettimeofday () -. t0)
  end;
  ctx.current <- None

let with_exec ~seed f =
  ctx.thunks <- [];
  ctx.spawned <- 0;
  ctx.current <- None;
  ctx.run_rng <- Rng.create seed;
  Domain.DLS.set rng_key (Rng.split ctx.run_rng);
  f ()
