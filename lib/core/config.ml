(* Tuning knobs of the SEC stack (paper, Sections 3 and 6). *)

(* Seeded correctness mutants, for the refinement prong's tests only
   (docs/ANALYSIS.md, "Refinement prong"): each reintroduces a historical
   or plausible bug behind a flag, so the property checker and its
   counterexample shrinker have known-bad targets to catch. Never enable
   outside tests. *)
type mutation =
  | No_mutation
  | Batch_overflow
      (** Omit the freeze-snapshot capacity clamp: when more live threads
          than [max_threads] announce into one batch, the frozen counters
          race past the elimination array — the exact bug the clamp in
          [Batch.freeze_batch] fixed. *)
  | Pop_reorder
      (** The pop-side combiner publishes the *remaining* stack instead
          of the detached chain as the batch substack: combined pops read
          values that are still reachable from [top], so the same value
          is served twice (once combined, once by a later pop). *)

type t = {
  num_aggregators : int;
      (** K: threads are assigned to aggregators by [tid mod K]. The paper
          finds two aggregators best on most workloads (Figure 4). *)
  freeze_backoff : int;
      (** Budget, in relax units, for the freezer's adaptive wait before
          freezing its batch: it keeps polling while announcements still
          arrive, up to this total, and stops once the batch is as large
          as the previous batch of its aggregator. Past the initial
          probe, the wait re-reads the counters every 64 units, so the
          freeze comes the moment the batch fills. A longer wait lets
          more operations join the batch, raising the elimination and
          combining degrees (paper, Section 3.1). [0] freezes
          immediately (the ablation benchmark uses this). *)
  collect_stats : bool;
      (** Record per-batch statistics (batching degree, %eliminated,
          %combined — Tables 1–3) in plain per-thread
          {!Sec_prim.Tally} cells: no atomic and no simulated cost, so a
          simulated run takes the same schedule with or without it.
          Natively, two live domains sharing a thread id (more live
          threads than [max_threads]) may drop increments. *)
  mutation : mutation;
      (** Seeded correctness mutant (test-only; see {!mutation}). *)
}

let default =
  {
    num_aggregators = 2;
    freeze_backoff = 1024;
    collect_stats = false;
    mutation = No_mutation;
  }

let validate t =
  if t.num_aggregators < 1 then
    invalid_arg "Sec_core.Config: num_aggregators must be at least 1";
  if t.freeze_backoff < 0 then
    invalid_arg "Sec_core.Config: freeze_backoff must be non-negative"

let with_aggregators k t = { t with num_aggregators = k }
let with_backoff b t = { t with freeze_backoff = b }
let with_stats t = { t with collect_stats = true }
(* The identity. It stays only because perfbench's [native-mixed]
   workload still calls it, until ROADMAP's benchmark item removes it. *)
let with_recycling t = t
let with_mutation m t = { t with mutation = m }
