(* The effect vocabulary shared by every scheduler that can execute
   simulated threads: {!Sim} (discrete-event, cost-charging) and
   {!Explore} (systematic schedule enumeration) both install handlers for
   these effects; {!Prim} is the {!Sec_prim.Prim_intf.S} implementation
   that performs them, so the same algorithm code runs under either.

   When a {!Sec_analysis.Race_detector} is installed, every atomic
   operation additionally reports a (fiber, location, kind) event to it.
   The fiber id is obtained with the non-scheduling [Fiber_id] effect, so
   the events work identically under both schedulers; with no detector
   installed the cost is a single ref read per operation. *)

type _ Effect.t +=
  | New_loc : Cache_model.line Effect.t
  | Access : Cache_model.line * Cache_model.kind -> unit Effect.t
  | Relax : int -> unit Effect.t
  | Yield : unit Effect.t
  | Now : int64 Effect.t
  | Rand_int : int -> int Effect.t
  | Rand_bits : int Effect.t
  | Spawn : (unit -> unit) -> unit Effect.t
  | Await_all : unit Effect.t
  | Fiber_id : int Effect.t
  | Num_workers : int Effect.t

(* Fresh hot-path allocations ([Prim.note_alloc] calls). A plain counter
   rather than an effect: each domain executes one simulation at a time,
   so {!Sim.run} brackets a run with before/after reads and reports the
   delta — same determinism, no per-allocation perform/resume
   round-trip, and (like an accounting-only effect) no scheduling point,
   so instrumenting an allocation site never perturbs schedules. The
   counter is domain-local so concurrent simulations on a sweep pool
   ({!Sec_harness.Sweep}) keep exact per-run counts. *)
let alloc_key = Domain.DLS.new_key (fun () -> ref 0)
let alloc_tally () = Domain.DLS.get alloc_key

(* ------------------------------------------------------------------ *)
(* Primitive dispatch.

   {!Prim} routes every primitive through this domain-local record
   instead of performing an effect directly. The default implementation
   performs the legacy effects above, so {!Explore} (and any other
   effect-based scheduler) works unchanged; {!Sim} installs direct
   functions for the duration of a run, turning the hot path — an atomic
   access that does not switch fibers — into a plain call with no effect
   round-trip and no [Access]-payload allocation. Only the rare access
   that must actually hand control to an earlier fiber performs an
   effect ({!Sim}'s private [Switch]).

   The record lives behind a per-domain ref so concurrent simulations on
   a {!Sec_harness.Sweep} pool each see their own installation; outside
   any run the default applies and a primitive raises
   [Effect.Unhandled], exactly as before. *)

type dispatch = {
  d_new_loc : unit -> Cache_model.line;
  d_access : Cache_model.line -> Cache_model.kind -> unit;
  d_relax : int -> unit;
  d_yield : unit -> unit;
  d_now : unit -> int64;
  d_now_int : unit -> int; (* [d_now] without the [int64] box: the virtual
                              clock is an [int], and the per-op deadline
                              check in {!Sec_harness.Runner} is hot *)
  d_rand_int : int -> int;
  d_rand_bits : unit -> int;
  d_spawn : (unit -> unit) -> unit;
  d_await_all : unit -> unit;
  d_fiber_id : unit -> int;
  d_num_workers : unit -> int;
}

let effect_dispatch =
  {
    d_new_loc = (fun () -> Effect.perform New_loc);
    d_access = (fun line kind -> Effect.perform (Access (line, kind)));
    d_relax = (fun n -> Effect.perform (Relax n));
    d_yield = (fun () -> Effect.perform Yield);
    d_now = (fun () -> Effect.perform Now);
    d_now_int = (fun () -> Int64.to_int (Effect.perform Now));
    d_rand_int = (fun n -> Effect.perform (Rand_int n));
    d_rand_bits = (fun () -> Effect.perform Rand_bits);
    d_spawn = (fun body -> Effect.perform (Spawn body));
    d_await_all = (fun () -> Effect.perform Await_all);
    d_fiber_id = (fun () -> Effect.perform Fiber_id);
    d_num_workers = (fun () -> Effect.perform Num_workers);
  }

(* The record is stored in the slot directly (not behind a ref): the
   [dispatch] read is on the path of every primitive, and one DLS load is
   all it costs. *)
let disp_key = Domain.DLS.new_key (fun () -> effect_dispatch)
let[@inline] dispatch () = Domain.DLS.get disp_key

(* [install d] swaps the calling domain's dispatch and returns the
   previous one; callers must [restore] it (in a [Fun.protect]) so
   nested runs and post-run code see what they saw before. *)
let install d =
  let saved = Domain.DLS.get disp_key in
  Domain.DLS.set disp_key d;
  saved

let restore d = Domain.DLS.set disp_key d

module Detect = struct
  type event = Make | Read | Write | Rmw | Cas of bool

  let notify line event =
    match !Sec_analysis.Race_detector.active with
    | None -> ()
    | Some d -> (
        let fiber = Effect.perform Fiber_id in
        let loc = Cache_model.line_id line in
        let open Sec_analysis.Race_detector in
        match event with
        | Make -> on_make d ~fiber ~loc
        | Read -> on_read d ~fiber ~loc
        | Write -> on_write d ~fiber ~loc
        | Rmw -> on_rmw d ~fiber ~loc
        | Cas success -> on_cas d ~fiber ~loc ~success)
end

module Reclaim = struct
  (* Fiber-exit notification for the reclamation checker
     ({!Sec_analysis.Reclaim_checker}): a fiber that finishes while still
     inside an EBR critical section pins the epoch forever. Both
     schedulers call this when a fiber completes; the checker's other
     events are fed directly by instrumented algorithm code through the
     [note_*] hooks. *)
  let on_fiber_exit fid =
    match !Sec_analysis.Reclaim_checker.active with
    | None -> ()
    | Some c -> Sec_analysis.Reclaim_checker.on_fiber_exit c ~fiber:fid
end

module Progress = struct
  (* Scheduling-event feed for the progress monitor
     ({!Sec_analysis.Progress_monitor}): both schedulers call this at
     every atomic access they account for, passing the fiber id they
     already hold — no effect is performed, so the feed never perturbs
     the schedule. The monitor's operation boundaries are fed directly by
     the workload loop ({!Sec_harness.Runner}) through the [note_op_*]
     hooks. One ref read when no monitor is installed. *)
  let on_event fid =
    match !Sec_analysis.Progress_monitor.active with
    | None -> ()
    | Some m -> Sec_analysis.Progress_monitor.on_event m ~fiber:fid

  let on_fiber_exit fid =
    match !Sec_analysis.Progress_monitor.active with
    | None -> ()
    | Some m -> Sec_analysis.Progress_monitor.on_fiber_exit m ~fiber:fid
end

module Prim : Sec_prim.Prim_intf.EXEC with type budget = int = struct
  module Atomic = struct
    (* The cell holds its cache line, so the line dies with the cell. *)
    type 'a t = { line : Cache_model.line; mutable v : 'a }

    (* Whichever scheduler dispatches these accesses runs exactly one
       fiber at a time, so after the dispatch accounts for the access we
       can act on [v] directly. *)
    let make v =
      let line = (dispatch ()).d_new_loc () in
      Detect.notify line Detect.Make;
      { line; v }

    let make_padded = make (* every simulated cell is its own line *)

    let get t =
      (dispatch ()).d_access t.line Cache_model.Read;
      Detect.notify t.line Detect.Read;
      t.v

    let set t v =
      (dispatch ()).d_access t.line Cache_model.Write;
      Detect.notify t.line Detect.Write;
      t.v <- v

    let exchange t v =
      (dispatch ()).d_access t.line Cache_model.Rmw;
      Detect.notify t.line Detect.Rmw;
      let old = t.v in
      t.v <- v;
      old

    let compare_and_set t expected desired =
      (* A failing CAS still costs the line transfer. *)
      (dispatch ()).d_access t.line Cache_model.Rmw;
      let success = t.v == expected in
      Detect.notify t.line (Detect.Cas success);
      if success then begin
        t.v <- desired;
        true
      end
      else false

    let fetch_and_add t n =
      (dispatch ()).d_access t.line Cache_model.Rmw;
      Detect.notify t.line Detect.Rmw;
      let old = t.v in
      t.v <- old + n;
      old

    let incr t = ignore (fetch_and_add t 1)
    let decr t = ignore (fetch_and_add t (-1))
  end

  let cpu_relax () = (dispatch ()).d_relax 1
  let relax n = (dispatch ()).d_relax n
  let yield () = (dispatch ()).d_yield ()
  let now_ns () = (dispatch ()).d_now ()
  let rand_int n = (dispatch ()).d_rand_int n
  let rand_bits () = (dispatch ()).d_rand_bits ()
  let note_alloc () = incr (alloc_tally ())

  (* Execution capability ({!Sec_prim.Prim_intf.EXEC}): budgets are virtual
     cycles, and a deadline is just a target virtual time — the scheduler
     already orders fibers by their clocks, so [expired] is a plain
     comparison with no extra scheduling event. *)
  type budget = int
  type deadline = { until : int; budget : int }

  let deadline_after b = { until = (dispatch ()).d_now_int () + b; budget = b }
  let expired d = (dispatch ()).d_now_int () >= d.until

  (* The run always spans exactly its budget in virtual time: fibers stop
     at the first schedule point past [until]. *)
  let elapsed d = d.budget
  let spawn body = (dispatch ()).d_spawn body
  let await_all () = (dispatch ()).d_await_all ()
  let thread_id () = (dispatch ()).d_fiber_id ()
  let num_threads () = (dispatch ()).d_num_workers ()
end
