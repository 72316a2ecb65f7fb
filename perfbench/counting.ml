(* A wrapper of [Prim_intf.EXEC] that forwards every substrate call and
   counts it in the calling thread's own cells: atomics by kind, CAS
   outcomes, relax units and the substrate time they took, yields and
   [note_alloc]s. Applying a registry MAKER to [Make (X)] instead of [X]
   gives the same structure with its substrate traffic counted from
   outside. Cells are indexed by [X.thread_id], which the simulator
   answers without a scheduling event, so a wrapped simulated run takes
   exactly the schedule of the unwrapped run. *)

(* Counter indices. *)
module Ix = struct
  let make = 0
  let get = 1
  let set = 2
  let xchg = 3
  let faa = 4
  let cas_ok = 5
  let cas_fail = 6
  let relax_units = 7
  let relax_time = 8 (* substrate clock units: ns natively, cycles simulated *)
  let yields = 9
  let allocs = 10
end

let width = 11

let names =
  [|
    "make"; "get"; "set"; "xchg"; "faa"; "cas_ok"; "cas_fail"; "relax_units";
    "relax_time"; "yields"; "allocs";
  |]

let cells = Cells.create ~width
let reset () = Cells.reset cells

module Make (X : Sec_prim.Prim_intf.EXEC) :
  Sec_prim.Prim_intf.EXEC with type budget = X.budget = struct
  let[@inline] count i = Cells.add cells ~tid:(X.thread_id ()) i 1

  module Atomic = struct
    type 'a t = 'a X.Atomic.t

    let make v =
      count Ix.make;
      X.Atomic.make v

    let make_padded v =
      count Ix.make;
      X.Atomic.make_padded v

    let get t =
      count Ix.get;
      X.Atomic.get t

    let set t v =
      count Ix.set;
      X.Atomic.set t v

    let exchange t v =
      count Ix.xchg;
      X.Atomic.exchange t v

    let compare_and_set t expected desired =
      let ok = X.Atomic.compare_and_set t expected desired in
      count (if ok then Ix.cas_ok else Ix.cas_fail);
      ok

    let fetch_and_add t n =
      count Ix.faa;
      X.Atomic.fetch_and_add t n

    let incr t =
      count Ix.faa;
      X.Atomic.incr t

    let decr t =
      count Ix.faa;
      X.Atomic.decr t
  end

  let relax n =
    let t0 = X.now_ns () in
    X.relax n;
    let dt = Int64.to_int (Int64.sub (X.now_ns ()) t0) in
    let tid = X.thread_id () in
    Cells.add cells ~tid Ix.relax_units n;
    Cells.add cells ~tid Ix.relax_time dt

  let cpu_relax () = relax 1

  let yield () =
    count Ix.yields;
    X.yield ()

  let note_alloc () =
    count Ix.allocs;
    X.note_alloc ()

  let now_ns = X.now_ns
  let rand_int = X.rand_int
  let rand_bits = X.rand_bits

  type budget = X.budget
  type deadline = X.deadline

  let deadline_after = X.deadline_after
  let expired = X.expired
  let elapsed = X.elapsed
  let spawn = X.spawn
  let await_all = X.await_all
  let thread_id = X.thread_id
  let num_threads = X.num_threads
end
