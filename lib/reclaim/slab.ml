(* Blelloch–Wei-style concurrent fixed-size allocation: per-domain active
   slabs carved from larger chunks, with constant-time alloc and free and
   no cross-domain CAS on the common path ("Concurrent Fixed-Size
   Allocation and Free in Constant Time", PAPERS.md).

   This is the layer below {!Magazine}: each thread's magazine is its
   private L1 free-list, and this store is its only refill and overflow
   path. Magazines trade whole chains (one magazine, [chain_len] nodes);
   domains trade whole *slabs* ([slab_chains] chains), and the transfer
   protocol is wait-free:

   - [free_chain] pushes the chain onto the calling domain's *active
     slab* with plain field writes (owner-private, no atomics). Only
     when the slab is full does the domain attempt to park it on the
     shared partial-slab stack — with a SINGLE compare_and_set attempt.
     If the attempt loses, the slab simply stays active and the park is
     retried at the next boundary; nothing spins.
   - [alloc_chain] pops the active slab with plain writes. Only when it
     is dry does the domain attempt to adopt a parked slab — again one
     CAS attempt; losing means "behave as a miss" (the caller bump-
     allocates fresh nodes, which in OCaml is the minor heap doing the
     chunk carving for us). No operation ever loops on a shared atomic,
     so every path is wait-free, and the common paths touch no shared
     cache line at all.

   Cross-domain CAS accounting: at most one CAS attempt per
   [slab_chains] chains, and none while a domain's frees and allocations
   balance within its active slab. test/test_slab.ml pins the tally
   per phase, and perfbench's [slab.cas_per_kop] measures it on SEC's
   path (docs/PERF.md, "Allocator").

   Nodes are GC-heap values ('a is the structure's node record); they
   migrate freely between slabs, so every free is owner-local by
   construction. *)

[@@@progress "lock_free"]

module Tally = Sec_prim.Tally

(* Process-wide tallies across every slab instance, mirroring
   {!Magazine.Global}, and the only count of slab events: the harness
   benchmarks structures through the opaque {!Sec_spec.Stack_intf.S}
   face, and these counters are how `sec_bench` reports slab traffic
   anyway. Each is a {!Sec_prim.Tally} (per-thread cells written only by
   their owning thread; read after worker join) and [reset] brackets one
   measured run. [pooled]/[capacity] are signed deltas — a chain parked
   by one thread and adopted by another nets to zero across cells —
   summed by [snapshot] into a gauge. *)
module Global = struct
  (* Sized past any topology in lib/sim/topology.ml; ids wrap. *)
  let tally () = Tally.create ~threads:256
  let parks = tally ()
  let park_fails = tally ()
  let adopts = tally ()
  let adopt_fails = tally ()
  let chain_puts = tally ()
  let chain_gets = tally ()
  let fresh = tally ()
  let pooled = tally ()
  let capacity = tally ()

  type snapshot = {
    parks : int;  (** full slabs parked on the shared partial stack *)
    park_fails : int;  (** park CAS attempts that lost (slab kept local) *)
    adopts : int;  (** parked slabs adopted by a dry domain *)
    adopt_fails : int;  (** adopt CAS attempts that lost (treated as miss) *)
    chain_puts : int;  (** chains freed into slabs *)
    chain_gets : int;  (** chains taken out of slabs *)
    fresh : int;  (** misses: the caller had to construct fresh nodes *)
    pooled : int;  (** nodes currently held inside slabs (gauge) *)
    capacity : int;  (** node capacity of every slab created (gauge) *)
  }

  let reset () =
    List.iter Tally.reset
      [
        parks;
        park_fails;
        adopts;
        adopt_fails;
        chain_puts;
        chain_gets;
        fresh;
        pooled;
        capacity;
      ]

  let snapshot () =
    {
      parks = Tally.sum parks;
      park_fails = Tally.sum park_fails;
      adopts = Tally.sum adopts;
      adopt_fails = Tally.sum adopt_fails;
      chain_puts = Tally.sum chain_puts;
      chain_gets = Tally.sum chain_gets;
      fresh = Tally.sum fresh;
      pooled = Tally.sum pooled;
      capacity = Tally.sum capacity;
    }

  (* Every cross-domain CAS the slab layer issued: park and adopt
     attempts, successes and losses alike. The number test/test_slab.ml
     pins per phase and [BENCH_sim.json]'s [slab_cas] column gates. *)
  let cas_attempts (s : snapshot) =
    s.parks + s.park_fails + s.adopts + s.adopt_fails

  let cas_retries (s : snapshot) = s.park_fails + s.adopt_fails

  let occupancy (s : snapshot) =
    if s.capacity <= 0 then 0.0
    else float_of_int s.pooled /. float_of_int s.capacity
end

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic

  (* One slab: a bounded bundle of whole chains. Owner-private while
     active (plain fields), immutable-in-practice while parked: the
     parking store-release is the CAS on [partial], and the adopting
     domain's CAS acquires it — the usual publication idiom. *)
  type 'a slab = {
    mutable chains : (int * 'a list) list;
        [@plain_ok
          "owner-private while active; ownership is transferred wholesale \
           by the single CAS on the shared partial-slab stack"]
    mutable n_chains : int; [@plain_ok "see [chains]"]
  }

  (* Per-domain state: only [tid] touches its dstate (the contract
     {!Magazine} and EBR already impose). *)
  type 'a dstate = {
    mutable active : 'a slab;
        [@plain_ok "the whole dstate record is private to its owning thread"]
  }

  type 'a t = {
    dstates : 'a dstate array;
    chain_len : int; (* nodes per chain = the magazine capacity above *)
    slab_chains : int; (* chains per slab *)
    partial : 'a slab list A.t; (* parked (full) slabs *)
  }

  (* [nodes] = slab_chains * chain_len: the Global capacity gauge is in
     node units, matching [pooled], so occupancy is a plain ratio. *)
  let fresh_slab ~nodes tid =
    Tally.add Global.capacity ~tid nodes;
    { chains = []; n_chains = 0 }

  let default_chain_len = 64
  let default_slab_chains = 4

  let create ?(chain_len = default_chain_len)
      ?(slab_chains = default_slab_chains) ?(max_threads = 64) () =
    if chain_len < 1 then
      invalid_arg "Slab.create: chain_len must be at least 1";
    if slab_chains < 1 then
      invalid_arg "Slab.create: slab_chains must be at least 1";
    let nodes = chain_len * slab_chains in
    {
      dstates =
        Array.init max_threads (fun tid -> { active = fresh_slab ~nodes tid });
      chain_len;
      slab_chains;
      partial = A.make_padded [];
    }

  let chain_len t = t.chain_len

  (* Park the full active slab: ONE CAS attempt. Losing is fine — the
     slab stays active (temporarily above its nominal bound) and the
     next boundary crossing tries again. Never loops: wait-free. *)
  let try_park t d ~tid =
    let cur = A.get t.partial in
    if A.compare_and_set t.partial cur (d.active :: cur) then begin
      Tally.add Global.parks ~tid 1;
      d.active <- fresh_slab ~nodes:(t.chain_len * t.slab_chains) tid
    end
    else Tally.add Global.park_fails ~tid 1

  (* Adopt a parked slab: ONE CAS attempt. Losing (or an empty partial
     stack) means the caller treats it as a miss and constructs fresh
     nodes — allocation pressure instead of waiting. Never loops. *)
  let try_adopt t d ~tid =
    match A.get t.partial with
    | [] -> false
    | (s :: rest) as cur ->
        if A.compare_and_set t.partial cur rest then begin
          Tally.add Global.adopts ~tid 1;
          (* The active slab is dry (that is why we are here); replace
             it wholesale with the adopted one. *)
          d.active <- s;
          true
        end
        else begin
          Tally.add Global.adopt_fails ~tid 1;
          false
        end

  (* [free_chain t ~tid (len, chain)] — O(1): the chain is consed as a
     unit, never walked. Plain owner-private writes; at most one CAS
     when the slab fills. *)
  let free_chain t ~tid ((len, _) as chain) =
    let d = t.dstates.(tid) in
    d.active.chains <- chain :: d.active.chains;
    d.active.n_chains <- d.active.n_chains + 1;
    Tally.add Global.chain_puts ~tid 1;
    Tally.add Global.pooled ~tid len;
    if d.active.n_chains >= t.slab_chains then try_park t d ~tid

  (* [alloc_chain t ~tid] — O(1) plain pop; at most one CAS when dry.
     [None] means the caller must construct a fresh chain (bump
     allocation: the minor heap is the chunk). *)
  let alloc_chain t ~tid =
    let d = t.dstates.(tid) in
    let take () =
      match d.active.chains with
      | ((len, _) as chain) :: rest ->
          d.active.chains <- rest;
          d.active.n_chains <- d.active.n_chains - 1;
          Tally.add Global.chain_gets ~tid 1;
          Tally.add Global.pooled ~tid (-len);
          Some chain
      | [] -> None
    in
    match take () with
    | Some _ as got -> got
    | None ->
        if try_adopt t d ~tid then take ()
        else begin
          Tally.add Global.fresh ~tid 1;
          None
        end
end
