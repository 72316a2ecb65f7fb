(** Shadow heap for reclamation safety: tracks every reclaimable node
    through [alloc -> publish -> unlink -> retire -> reclaim] and reports
    lifetime bugs invisible to the race detector. Fed by instrumented
    algorithm code and by the EBR substrate (see lib/reclaim); installed
    globally for a simulation or exploration run like
    {!Race_detector.active}. See docs/ANALYSIS.md ("Reclamation prong"). *)

type kind =
  | Use_after_retire
      (** access inside a guard entered after the node's retirement *)
  | Use_after_reclaim  (** access after the destructor ran *)
  | Unguarded_access
      (** a shared node dereferenced by a fiber holding no guard *)
  | Retire_while_reachable  (** retired while still published *)
  | Double_retire  (** retired (or destructed) twice *)
  | Epoch_stalled
      (** a fiber pins the epoch while another's limbo grows past the
          bound *)
  | Guard_leak  (** fiber finished inside a guard, or unbalanced exit *)

type report = {
  kind : kind;
  node : int;  (** checker-assigned node id (0 when not about a node) *)
  fiber : int;  (** the fiber whose event triggered the report *)
  other_fiber : int;  (** the other party (retirer, pinner), or -1 *)
  site : string;  (** source location of the triggering event *)
  alloc_site : string;
  retire_site : string;
  detail : string;
}

type t

(** [stall_bound] is the pending-retirement count past which a pinned
    epoch is reported as {!Epoch_stalled}. *)
val create :
  ?max_reports:int -> ?stall_bound:int -> ?capture_sites:bool -> unit -> t

(** {2 Event feed} — direct, for unit tests. [on_alloc] returns the
    node's id; every other event identifies the node by it. *)

val on_alloc : t -> fiber:int -> int

val on_publish : t -> fiber:int -> node:int -> unit
val on_unlink : t -> fiber:int -> node:int -> unit
val on_retire : t -> fiber:int -> node:int -> unit
val on_reclaim : t -> fiber:int -> node:int -> unit
val on_access : t -> fiber:int -> node:int -> unit
val on_enter : t -> fiber:int -> unit
val on_exit : t -> fiber:int -> unit
val on_fiber_exit : t -> fiber:int -> unit

(** {2 Reports} *)

val reports : t -> report list
(** In event order; bounded by [max_reports]. *)

val dropped : t -> int
val kind_to_string : kind -> string
val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

(** {2 Global installation}

    The simulated schedulers run fibers one at a time in one domain, so a
    plain ref is safe. Instrumented algorithms call the [note_*] hooks,
    which cost one ref read when no checker is installed. A node id of 0
    means "allocated while no checker was active" and is ignored. *)

val active : t option ref
val install : t -> unit
val uninstall : unit -> unit
val with_checker : t -> (unit -> 'a) -> 'a

val note_alloc : fiber:int -> int

val note_publish : fiber:int -> node:int -> unit
val note_unlink : fiber:int -> node:int -> unit
val note_retire : fiber:int -> node:int -> unit
val note_reclaim : fiber:int -> node:int -> unit
val note_access : fiber:int -> node:int -> unit
val note_enter : fiber:int -> unit
val note_exit : fiber:int -> unit
