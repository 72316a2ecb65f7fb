(** Named constructors for every benchmarked algorithm, as
    substrate-polymorphic functors so the same entry drives both the
    native runner and the simulator. *)

module type MAKER = Sec_spec.Stack_intf.MAKER

type progress_class = Sec_sim.Explore.progress_class = Blocking | Lock_free

(** The sequential specification an entry's concurrent histories must
    refine, checked by the refinement prong (docs/ANALYSIS.md,
    "Refinement prong"): [Stack_sem] is strict LIFO linearizability,
    [Pool_sem] the order-relaxed bag semantics of the SEC pool. Each
    matches the implementing module's [@@@spec] lint declaration (rule
    9). *)
type semantics = Stack_sem | Pool_sem

type entry = {
  name : string;
  maker : (module MAKER);
  progress : progress_class;
      (** the declared progress class of the algorithm's protocol,
          checked against the suspension classifier's verdict
          ({!Sec_sim.Explore.classify}) by [test/test_progress.ml]. For
          SEC this is the class of the combining protocol (same-batch
          announcers wait on their freezer); the sharded/elimination
          fast path — operations alone on a shard — is itself
          lock-free. *)
  spec : semantics;
      (** the sequential spec the structure refines; selects the default
          refinement properties applied by [test/test_refine.ml] and
          [sec_bench check]. *)
}

val semantics_to_string : semantics -> string

(** SEC under an explicit configuration, displayed as [label]. *)
val sec_with :
  ?freeze_backoff:int -> aggregators:int -> label:string -> unit -> entry

(** SEC with the paper's default configuration (2 aggregators). *)
val sec : entry

(** SEC under an arbitrary configuration, displayed as [label]. *)
val sec_configured : label:string -> config:Sec_core.Config.t -> entry

val treiber : entry
val eb : entry
val fc : entry
val cc : entry
val tsi : entry
val lock : entry

(** Hierarchical H-Synch combining (extension, not in the paper). *)
val hsynch : entry

(** Treiber with epoch-based reclamation ("TRB-EBR"): every operation
    pays the EBR enter/exit and every pop retires its node, like the C++
    artifact. *)
val treiber_ebr : entry

(** The interval timestamped stack with epoch-based reclamation
    ("TSI-EBR", owner-only unlinking). *)
val tsi_ebr : entry

(** The six algorithms of the paper's comparison (Figure 2). *)
val paper_set : entry list

(** The EBR-reclaimed variants ([treiber_ebr], [tsi_ebr]). *)
val reclaimed_set : entry list

(** [paper_set] plus the spinlock baseline, H-Synch and
    [reclaimed_set]. *)
val all : entry list

(** SEC_Agg1 .. SEC_Agg5 (Figure 4's self-comparison). *)
val sec_aggregator_sweep : entry list

(** The SEC-style pool ({!Sec_core.Sec_pool}) with [aggregators] backing
    stores behind the stack interface ([peek] is always [None]),
    declared {!Pool_sem}, displayed as [label]. *)
val pool_with : aggregators:int -> label:string -> entry

(** [pool_with ~aggregators:2 ~label:"SEC-POOL"]. Not part of [all]: the
    stack benchmark sets and the progress suite are unchanged. *)
val pool : entry

(** [all] plus {!pool} — everything the refinement prong checks by
    default. *)
val refine_set : entry list

(** Seeded correctness mutants ("SEC!OVF" batch-capacity overflow,
    "SEC!POP" pop-side reorder; see {!Sec_core.Config.mutation}) —
    known-bad targets for the refinement prong's detection and shrinking
    tests. Never part of [all] or [find]. *)
val mutants : entry list

(** Find by display name; raises [Invalid_argument] for unknown names. *)
val find : string -> entry
