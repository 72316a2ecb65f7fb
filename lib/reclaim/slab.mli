(** Blelloch–Wei-style concurrent fixed-size allocation: per-domain
    active slabs carved from larger chunks, constant-time alloc and
    free, and no cross-domain CAS on the common path.

    This is the only refill and overflow layer below {!Magazine}:
    domains exchange whole slabs of [slab_chains] chains, and every
    shared-state transfer is a SINGLE compare_and_set attempt — a lost
    park keeps the slab local until the next boundary, a lost adopt
    degrades to fresh (bump) allocation — so every path is
    wait-free.

    The {!Make.Arena} submodule is the off-heap variant: fixed-size
    int slots in a Bigarray with integer-handle indirection, slots
    pinned to the slab that carved them, remote frees batched
    per-slab. Its lifecycle feeds the reclaim checker's shadow heap
    ([Slab_double_free] / [Alloc_from_live_slab]); see
    docs/ANALYSIS.md and docs/PERF.md ("Allocator"). *)

(** Process-wide slab/arena tallies, mirrored on {!Magazine.Global}:
    per-thread cells, [reset] brackets a measured run, [snapshot]
    sums. *)
module Global : sig
  type snapshot = {
    parks : int;  (** full slabs parked on the shared partial stack *)
    park_fails : int;  (** park CAS attempts that lost (slab kept local) *)
    adopts : int;  (** parked slabs adopted by a dry domain *)
    adopt_fails : int;  (** adopt CAS attempts that lost (treated as miss) *)
    chain_puts : int;  (** chains freed into slabs *)
    chain_gets : int;  (** chains taken out of slabs *)
    fresh : int;  (** misses: the caller constructed fresh nodes *)
    remote_batches : int;  (** arena remote-free batches spliced *)
    remote_cas : int;  (** arena remote-splice CAS attempts *)
    remote_cas_retries : int;  (** arena remote-splice CAS retries *)
    pooled : int;  (** nodes currently held inside slabs (gauge) *)
    capacity : int;  (** node capacity of every slab created (gauge) *)
  }

  val reset : unit -> unit
  val snapshot : unit -> snapshot

  (** Every cross-domain CAS the slab layer issued (park + adopt
      attempts + arena remote splices) — the number `sec_bench alloc`
      reports per phase. *)
  val cas_attempts : snapshot -> int

  val cas_retries : snapshot -> int

  (** [pooled / capacity], 0 when no slab exists. *)
  val occupancy : snapshot -> float
end

(** Per-instance tallies, shared nominally across every {!Make}
    instantiation (like {!Magazine.stats}). *)
type stats = {
  parks : int;
  park_fails : int;
  adopts : int;
  adopt_fails : int;
  chain_puts : int;
  chain_gets : int;
  fresh : int;
  pooled : int;  (** nodes currently inside this instance's slabs *)
  parked_slabs : int;
}

type arena_stats = {
  carved : int;  (** slabs bump-carved from the chunk *)
  live : int;  (** slots currently allocated *)
  remote_frees : int;
  remote_batches : int;
  adopted : int;  (** slots recovered from remote inboxes *)
}

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

  type nonrec stats = stats = {
    parks : int;
    park_fails : int;
    adopts : int;
    adopt_fails : int;
    chain_puts : int;
    chain_gets : int;
    fresh : int;
    pooled : int;
    parked_slabs : int;
  }

  val stats : 'a t -> stats

  (** Off-heap arena: [max_slabs * slab_slots] two-word slots (value +
      link) in Bigarrays outside the OCaml heap, addressed by integer
      handles ([-1] is nil). Slabs are bump-carved by one wait-free
      fetch_and_add and owned by the carving domain; owner frees are
      plain stores, remote frees are batched per-slab ([remote_batch]
      per CAS) and adopted by the owner with one [exchange].

      Handle reuse is safe under the same argument as pointer reuse:
      run [free] from an EBR destructor and the grace period closes
      the ABA window. *)
  module Arena : sig
    type t

    val create :
      ?slab_slots:int ->
      ?max_slabs:int ->
      ?max_threads:int ->
      ?remote_batch:int ->
      unit ->
      t

    val slab_slots : t -> int

    (** Claim a free slot: private free-list pop, else adopt remote
        inboxes, else carve a fresh slab. Raises [Failure] when the
        chunk is exhausted — size the arena past the structure's
        live-slot bound. Feeds the reclaim checker; the slot's shadow
        id is {!chk_id}. *)
    val alloc : t -> tid:int -> int

    (** Release a slot. Owner-local: plain stores. Remote: batched in
        a per-domain outbox, spliced per [remote_batch]. Feeds the
        reclaim checker ([Slab_double_free] on a slot already free). *)
    val free : t -> tid:int -> int -> unit

    (** Publish any outbox batches still unflushed (end of run). *)
    val flush_remote : t -> tid:int -> unit

    val get_value : t -> int -> int
    val set_value : t -> int -> int -> unit

    (** The link word: free-list next while the slot is free, caller's
        next-handle while live. *)
    val get_link : t -> int -> int

    val set_link : t -> int -> int -> unit

    (** Shadow-heap id assigned at {!alloc} (0 when no checker ran). *)
    val chk_id : t -> int -> int

    (** End the arena's life: subsequent allocation anywhere in it
        reports [Alloc_from_live_slab]; accesses through stale ids
        report use-after-reclaim. *)
    val release : t -> tid:int -> unit

    val released : t -> bool

    val live : t -> int
    val carved_slots : t -> int

    (** [live / carved], 0 before the first carve. *)
    val occupancy : t -> float

    type stats = arena_stats = {
      carved : int;
      live : int;
      remote_frees : int;
      remote_batches : int;
      adopted : int;
    }

    val stats : t -> stats
  end
end
