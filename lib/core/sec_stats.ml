(* Snapshot of SEC batch statistics, as reported in Tables 1–3 of the
   paper. Collected at freeze time by the freezer thread (see
   {!Sec_stack}), so the numbers describe exactly the batches that were
   formed during a run. *)

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
(* Allocator statistics: one flat snapshot over the process-wide
   magazine and slab tallies, so the harness reports the whole node
   path — L1 magazine hit rate, slab park/adopt traffic and occupancy —
   from a single call.
   [alloc_reset]/[alloc_snapshot] bracket one measured run, like the
   underlying [Global] modules. *)

type alloc_stats = {
  mag_hits : int;
  mag_misses : int;
  mag_recycled : int;
  mag_hit_rate : float;
  depot_cas : int;
      (** Always 0. The magazines' former global depot is gone: their
          cross-domain traffic is the slab store's, counted in
          [slab_cas]. Kept so readers of the snapshot (the perfbench
          per-layer metrics) keep their field set. *)
  depot_cas_retries : int;  (** Always 0; see [depot_cas]. *)
  slab_parks : int;  (** full slabs parked on the shared partial stack *)
  slab_adopts : int;  (** parked slabs adopted by a dry domain *)
  slab_cas : int;  (** slab-layer CAS attempts (park + adopt) *)
  slab_cas_retries : int;  (** slab-layer attempts that lost *)
  slab_fresh : int;  (** slab misses: fresh-node construction *)
  slab_occupancy : float;  (** pooled / capacity over all slabs *)
}

let alloc_reset () =
  Sec_reclaim.Magazine.Global.reset ();
  Sec_reclaim.Slab.Global.reset ()

let alloc_snapshot () =
  let m = Sec_reclaim.Magazine.Global.snapshot () in
  let s = Sec_reclaim.Slab.Global.snapshot () in
  {
    mag_hits = m.Sec_reclaim.Magazine.Global.hits;
    mag_misses = m.Sec_reclaim.Magazine.Global.misses;
    mag_recycled = m.Sec_reclaim.Magazine.Global.recycled;
    mag_hit_rate = Sec_reclaim.Magazine.Global.hit_rate m;
    depot_cas = 0;
    depot_cas_retries = 0;
    slab_parks = s.Sec_reclaim.Slab.Global.parks;
    slab_adopts = s.Sec_reclaim.Slab.Global.adopts;
    slab_cas = Sec_reclaim.Slab.Global.cas_attempts s;
    slab_cas_retries = Sec_reclaim.Slab.Global.cas_retries s;
    slab_fresh = s.Sec_reclaim.Slab.Global.fresh;
    slab_occupancy = Sec_reclaim.Slab.Global.occupancy s;
  }
