(* The primitive layer shared by the two schedulers that execute
   simulated threads: {!Sim} (discrete-event, cost-charging: the timing
   model) and {!Explore} (systematic schedule enumeration: the one host
   of the analyses) each install a {!dispatch} record for the duration
   of a run; {!Prim} is the {!Sec_prim.Prim_intf.S} implementation that
   calls through it, so the same algorithm code runs under either.

   When a {!Sec_analysis.Race_detector} is installed — which
   {!Explore} does for [~detect_races] and [replay ~detector] — every
   atomic operation additionally reports a (fiber, location, kind)
   event to it. The hook lives here rather than in {!Explore} because
   only {!Prim} sees a CAS's outcome. With no detector installed the
   cost is a single ref read per operation. *)

exception Not_in_simulation

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

   {!Prim} routes every primitive through this domain-local record, and
   the record is the only way a primitive reaches a scheduler. {!Sim}
   and {!Explore} each install direct functions for the duration of a
   run, so the hot path — an atomic access that does not switch fibers —
   is a plain call with no effect round-trip and no payload allocation.
   Only an access that must actually hand control to another fiber
   performs an effect, private to the scheduler that installed the
   record.

   The record lives in a per-domain slot so concurrent simulations on a
   {!Sec_harness.Sweep} pool each see their own installation; outside
   any run the default applies and every primitive raises
   [Not_in_simulation]. *)

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

let outside _ = raise Not_in_simulation

let no_dispatch =
  {
    d_new_loc = outside;
    d_access = outside;
    d_relax = outside;
    d_yield = outside;
    d_now = outside;
    d_now_int = outside;
    d_rand_int = outside;
    d_rand_bits = outside;
    d_spawn = outside;
    d_await_all = outside;
    d_fiber_id = outside;
    d_num_workers = outside;
  }

(* The record is stored in the slot directly (not behind a ref): the
   [dispatch] read is on the path of every primitive, and one DLS load is
   all it costs. *)
let disp_key = Domain.DLS.new_key (fun () -> no_dispatch)
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
        let fiber = (dispatch ()).d_fiber_id () in
        let loc = Cache_model.line_id line in
        let open Sec_analysis.Race_detector in
        match event with
        | Make -> on_make d ~fiber ~loc
        | Read -> on_read d ~fiber ~loc
        | Write -> on_write d ~fiber ~loc
        | Rmw -> on_rmw d ~fiber ~loc
        | Cas success -> on_cas d ~fiber ~loc ~success)
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
