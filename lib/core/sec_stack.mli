(** SEC — the Sharded Elimination and Combining stack of Singh, Metaxakis
    and Fatourou (PPoPP '26): a blocking, linearizable concurrent stack.

    Threads are sharded across aggregators; operations announced in the
    same *batch* eliminate pairwise through two fetch&increment counters,
    and each batch's survivors are applied to the shared stack by a single
    per-batch combiner with one CAS. See the implementation header for the
    pseudocode mapping. *)

module Make (_ : Sec_prim.Prim_intf.S) : sig
  include Sec_spec.Stack_intf.S

  (** [create_with ~config ~max_threads ()] — full control over sharding,
      freezer backoff and statistics collection. [create] uses
      {!Config.default}. *)
  val create_with : config:Config.t -> ?max_threads:int -> unit -> 'a t

  (** Batch statistics accumulated so far ({!Sec_stats.empty} unless the
      stack was created with [collect_stats = true]). *)
  val stats : 'a t -> Sec_stats.t

  val config : 'a t -> Config.t

  (** Aggregators announcements currently route to: the configured K
      under static sharding, the contention controller's current choice
      (between 1 and K) when the stack was created with
      [Config.adaptive]. *)
  val active_aggregators : 'a t -> int

  (** Node-magazine tallies for this stack (all zero unless created with
      [Config.recycle_nodes]). See {!Sec_reclaim.Magazine.Make.stats}. *)
  val magazine_stats : 'a t -> Sec_reclaim.Magazine.stats

  (** Fraction of node requests served without allocating; [0.] before
      any operation ran. *)
  val magazine_hit_rate : 'a t -> float

  (** Tallies of the wait-free slab store the magazines park full chains
      in and refill from (all zero unless created with
      [Config.recycle_nodes]). *)
  val slab_stats : 'a t -> Sec_reclaim.Slab.stats

  (** Number of nodes currently in the shared stack. O(n); takes a single
      snapshot of the top pointer — meant for tests and examples. *)
  val depth : 'a t -> int
end
