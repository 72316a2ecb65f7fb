(** Blelloch–Wei-style concurrent fixed-size allocation: per-domain
    active slabs carved from larger chunks, constant-time alloc and
    free, and no cross-domain CAS on the common path.

    This is the only refill and overflow layer below {!Magazine}:
    domains exchange whole slabs of [slab_chains] chains, and every
    shared-state transfer is a SINGLE compare_and_set attempt — a lost
    park keeps the slab local until the next boundary, a lost adopt
    degrades to fresh (bump) allocation — so every path is
    wait-free.

    Nodes live on the GC heap, so the store serves any node type,
    SEC's polymorphic ones included; see docs/PERF.md ("Allocator"). *)

(** Process-wide slab tallies, mirrored on {!Magazine.Global} and the
    only count of slab events: one {!Sec_prim.Tally} per counter,
    [reset] brackets a measured run, [snapshot] sums. *)
module Global : sig
  type snapshot = {
    parks : int;  (** full slabs parked on the shared partial stack *)
    park_fails : int;  (** park CAS attempts that lost (slab kept local) *)
    adopts : int;  (** parked slabs adopted by a dry domain *)
    adopt_fails : int;  (** adopt CAS attempts that lost (treated as miss) *)
    chain_puts : int;  (** chains freed into slabs *)
    chain_gets : int;  (** chains taken out of slabs *)
    fresh : int;  (** misses: the caller constructed fresh nodes *)
    pooled : int;  (** nodes currently held inside slabs (gauge) *)
    capacity : int;  (** node capacity of every slab created (gauge) *)
  }

  val reset : unit -> unit
  val snapshot : unit -> snapshot

  (** Every cross-domain CAS the slab layer issued: park and adopt
      attempts, won or lost. test/test_slab.ml pins it per phase and
      [BENCH_sim.json]'s [slab_cas] column gates it. *)
  val cas_attempts : snapshot -> int

  (** The lost park and adopt attempts among {!cas_attempts}. *)
  val cas_retries : snapshot -> int

  (** [pooled / capacity], 0 when no slab exists. *)
  val occupancy : snapshot -> float
end

module Make (_ : Sec_prim.Prim_intf.S) : sig
  (** GC-heap slab store over an arbitrary node type. Chains are the
      [(length, nodes)] pairs the magazine already trades in. *)
  type 'a t

  (** [chain_len] must equal the magazine capacity above this store;
      [slab_chains] chains make one slab. Single-threaded set-up. *)
  val create :
    ?chain_len:int -> ?slab_chains:int -> ?max_threads:int -> unit -> 'a t

  val chain_len : 'a t -> int

  (** O(1): pop the calling domain's active slab; when dry, ONE adopt
      CAS attempt; [None] means construct fresh nodes (wait-free
      miss). *)
  val alloc_chain : 'a t -> tid:int -> (int * 'a list) option

  (** O(1): push onto the calling domain's active slab (plain writes);
      at a full-slab boundary, ONE park CAS attempt. *)
  val free_chain : 'a t -> tid:int -> int * 'a list -> unit
end
