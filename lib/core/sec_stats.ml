(* Snapshot of SEC batch statistics, as reported in Tables 1–3 of the
   paper. Collected at freeze time by the freezer thread (see
   [Batch.freeze_batch]), so the numbers describe exactly the batches
   that were formed during a run. *)

type t = {
  batches : int;  (** number of frozen batches *)
  operations : int;  (** operations that belonged to those batches *)
  eliminated : int;  (** operations cancelled pairwise inside a batch *)
  combined : int;  (** operations applied to the shared stack by combiners *)
  excluded : int;
      (** announcements that landed after their batch's freeze and had to
          retry in a later batch (a diagnostic for freeze-window tuning:
          high values mean threads keep missing batches) *)
}

let empty =
  { batches = 0; operations = 0; eliminated = 0; combined = 0; excluded = 0 }

(** [diff later earlier] — counters accumulated between two snapshots
    (e.g. to exclude a prefill phase from a measurement). *)
let diff later earlier =
  {
    batches = later.batches - earlier.batches;
    operations = later.operations - earlier.operations;
    eliminated = later.eliminated - earlier.eliminated;
    combined = later.combined - earlier.combined;
    excluded = later.excluded - earlier.excluded;
  }

(** Average batch size ("Batching Degree" in Tables 1–3). *)
let batching_degree t =
  if t.batches = 0 then 0. else float_of_int t.operations /. float_of_int t.batches

(** Percentage of batch operations that were eliminated ("%Elimination"). *)
let pct_eliminated t =
  if t.operations = 0 then 0.
  else 100. *. float_of_int t.eliminated /. float_of_int t.operations

(** Percentage applied to the shared stack by a combiner ("%Combining"). *)
let pct_combined t =
  if t.operations = 0 then 0.
  else 100. *. float_of_int t.combined /. float_of_int t.operations

let pp ppf t =
  Format.fprintf ppf
    "batches=%d ops=%d batching_degree=%.1f elim=%.0f%% combining=%.0f%% \
     excluded=%d"
    t.batches t.operations (batching_degree t) (pct_eliminated t)
    (pct_combined t) t.excluded

(* ------------------------------------------------------------------ *)
(* The five allocator fields perfbench's per-layer metrics still read.
   No node allocator is left to count, so they are always 0. They stay
   only for perfbench, until ROADMAP's benchmark item removes them. *)

type alloc_stats = {
  mag_hits : int;
  mag_misses : int;
  depot_cas : int;
  depot_cas_retries : int;
  slab_cas : int;
}

let alloc_reset () = ()

let alloc_snapshot () =
  {
    mag_hits = 0;
    mag_misses = 0;
    depot_cas = 0;
    depot_cas_retries = 0;
    slab_cas = 0;
  }
