(* Per-domain node magazines: fixed-size free-lists layered over EBR so
   the hot path stops allocating.

   The design follows "Concurrent Fixed-Size Allocation and Free in
   Constant Time" (PAPERS.md) in the shape popularised by slab-allocator
   magazines: each domain owns a private free-list — its magazine — that
   it pushes and pops with plain field operations: no atomics, no
   contention. Magazines exchange *whole chains* with the wait-free slab
   store of {!Slab} in O(1): a full magazine's chain goes onto the
   domain's active slab, an empty magazine refills from it, and only a
   full or dry slab touches shared state — with a single CAS attempt
   (docs/PERF.md, "Allocator").

   Layering over EBR: the structure's pop retires the node as before;
   when the grace period expires, the EBR destructor hands the node to
   [recycle] under the retiring thread's id instead of dropping it to
   the GC. At that moment no reader can still hold a reference (that is
   exactly what the grace period guarantees), so the next [alloc] may
   mutate the node's fields for its second life. The reclamation
   checker audits this hand-off: [Reclaim_checker.note_recycle]
   verifies the node's previous life completed the full
   alloc -> ... -> reclaim cycle, so a magazine can never silently mask
   a lifetime bug.

   Thread-safety contract: [alloc] and [recycle] for a given [tid] must
   only run on the thread (fiber) that owns that id — the same contract
   EBR's per-slot operations already impose, and EBR destructors run on
   the retiring thread, so routing them into [recycle ~tid] with the
   retiring tid satisfies it by construction. *)

[@@@progress "lock_free"]

module Tally = Sec_prim.Tally

(* Process-wide tallies across every magazine instance (defined first so
   the functor can feed them), and the only count of magazine events.

   The harness benchmarks structures through the opaque
   {!Sec_spec.Stack_intf.S} face, which hides the magazine inside the
   functor; these counters are how `sec_bench --emit-json` reports a
   magazine hit rate anyway. Each is a {!Sec_prim.Tally}: per-thread
   padded cells written only by their owning thread and read after the
   harness joins the workers, which provides the ordering. [reset]
   brackets one measured run. *)
module Global = struct
  (* Sized past any topology in lib/sim/topology.ml; ids wrap. *)
  let tally () = Tally.create ~threads:256
  let hits = tally ()
  let misses = tally ()
  let recycled = tally ()

  type snapshot = {
    hits : int;  (** allocations served from a magazine or the slab store *)
    misses : int;  (** allocations that fell through to fresh nodes *)
    recycled : int;  (** nodes returned to a magazine *)
  }

  let reset () = List.iter Tally.reset [ hits; misses; recycled ]

  let snapshot () =
    {
      hits = Tally.sum hits;
      misses = Tally.sum misses;
      recycled = Tally.sum recycled;
    }

  let hit_rate (s : snapshot) =
    let total = s.hits + s.misses in
    if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
end

module Make (P : Sec_prim.Prim_intf.S) = struct
  module Sl = Slab.Make (P)

  type 'a slot = {
    mutable free : 'a list;
        [@plain_ok
          "the whole slot record is private to its owning thread; \
           cross-thread traffic goes through the slab store's atomic"]
    mutable count : int; [@plain_ok "thread-private, see [free]"]
  }

  type 'a t = {
    slots : 'a slot array;
    capacity : int; (* nodes per magazine; slab chains have this length *)
    slabs : 'a Sl.t; (* where full magazines go and empty ones refill *)
  }

  let default_capacity = 64

  let create ?(capacity = default_capacity) ?(max_threads = 64) () =
    if capacity < 1 then
      invalid_arg "Magazine.create: capacity must be at least 1";
    {
      slots = Array.init max_threads (fun _ -> { free = []; count = 0 });
      capacity;
      slabs = Sl.create ~chain_len:capacity ~max_threads ();
    }

  let capacity t = t.capacity

  (* [alloc t ~tid] pops the calling thread's magazine; on empty it
     takes one whole chain from the slab store. [None] means the caller
     must construct a fresh node (and should say so with
     [P.note_alloc]). *)
  let alloc t ~tid =
    let s = t.slots.(tid) in
    match s.free with
    | n :: rest ->
        s.free <- rest;
        s.count <- s.count - 1;
        Tally.add Global.hits ~tid 1;
        Some n
    | [] -> (
        match Sl.alloc_chain t.slabs ~tid with
        | Some (len, n :: chain) ->
            s.free <- chain;
            s.count <- len - 1;
            Tally.add Global.hits ~tid 1;
            Some n
        | Some (_, []) | None ->
            Tally.add Global.misses ~tid 1;
            None)

  (* [recycle t ~tid n] pushes [n] onto the calling thread's magazine;
     a full magazine first emigrates wholesale to the slab store, where
     another thread's allocation stream can adopt it. *)
  let recycle t ~tid n =
    let s = t.slots.(tid) in
    Tally.add Global.recycled ~tid 1;
    if s.count >= t.capacity then begin
      let full = s.free in
      s.free <- [];
      s.count <- 0;
      Sl.free_chain t.slabs ~tid (t.capacity, full)
    end;
    s.free <- n :: s.free;
    s.count <- s.count + 1
end
