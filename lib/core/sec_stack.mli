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

  (** Number of nodes currently in the shared stack. O(n); takes a single
      snapshot of the top pointer — meant for tests and examples. *)
  val depth : 'a t -> int
end
