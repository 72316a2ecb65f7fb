(** Static lint for the repo's shared-memory discipline.

    The syntactic rule classes, reported as [file:line:col] diagnostics
    (rules 4 and 6 — [ebr-guard], [retry-discipline] — are queries over
    the typestate CFG, and rules 11-13 — [guard-balance],
    [loop-progress], [protocol] — are path-sensitive; all five live in
    {!Sec_typestate.Typestate}):
    - [mutable-field]: no [mutable] record field in algorithm modules
      without [@plain_ok "publication argument"];
    - [unpadded-atomic]: atomics stored in long-lived shared blocks
      (records, arrays) must be [make_padded] or [@unpadded_ok "..."];
    - [obj-confinement]: [Obj.*] only in [lib/prim/padding.ml];
    - [retire-once]: in the same modules, [retire] calls must be inside
      a branch selected by a [compare_and_set] (the unlink CAS) or carry
      [@retire_ok "reason"];
    - [progress-class]: a module binding both [push] and [pop] must
      declare [[@@@progress "lock_free"]] or [[@@@progress "blocking"]]
      (rule 12 checks the declared class against the static verdict);
    - [fresh-node]: in modules recycling nodes through
      {!Sec_reclaim.Magazine}, node record literals must be the
      magazine-miss fallback ([Mag.alloc] first), annotated
      [@fresh_ok "reason"];
    - [spec-class]: the same modules must declare the sequential spec
      their histories refine — [[@@@spec "stack"]] (strict LIFO) or
      [[@@@spec "pool"]] (order-relaxed bag) — matching the registry
      entry's [spec] field, which selects the refinement properties
      checked dynamically by {!Sec_refine.Refine};
    - [plain-publication]: a [get x … set x] read-modify-plain-write
      chain on an atomic cell written from two or more entry points,
      with no ordering RMW between the read and the plain store — the
      static mirror of the dynamic detector's write-write-race model.
      The chain may span helper calls, so the rule is computed by
      {!Sec_summary.Summary} over the interprocedural summaries; it
      shares this module's diagnostic surface and the
      [@publication_ok "reason"] annotation discipline.

    The intent annotations ([@retire_ok], [@fresh_ok], and the typestate
    queries' [@unguarded_ok] and [@await_ok]) share one subtree-covering
    discipline: each needs a non-empty reason string, and each covers
    the whole subtree it sits on, so one annotation on a helper body
    covers every occurrence inside it.

    The per-file rules are syntactic; interprocedural knowledge enters
    through {!facts}, a bundle of location predicates computed by
    {!Sec_summary.Summary} that only ever {e discharge} obligations
    (never add new ones), so a no-facts run is sound but may demand
    annotations the analysis proves unnecessary — {!audit_string}
    finds those.

    [retire-once] and the typestate [ebr-guard] are the static prong of
    the reclamation-safety layer ({!Sec_analysis.Reclaim_checker} is
    the dynamic prong); [progress-class] and the typestate
    [retry-discipline] and [loop-progress] are the static prong of the
    progress layer ({!Sec_analysis.Progress_monitor} and the suspension
    classifier {!Sec_sim.Explore.classify} are the dynamic prong). See
    docs/ANALYSIS.md.

    Run as [dune build @lint] via [bin/sec_lint]. *)

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

type scope = {
  check_discipline : bool;
      (** apply the mutable-field, unpadded-atomic, retire-once,
          progress-class, fresh-node and spec-class rules (retire-once
          also requires the module to reference [Ebr]) and the typestate
          rules *)
  allow_obj : bool;  (** exempt from obj-confinement *)
}

(** Interprocedural facts supplied by {!Sec_summary.Summary}. Every
    predicate takes the (line, col) anchor of a would-be diagnostic and
    returns whether the interprocedural analysis discharges that
    obligation. Facts only suppress diagnostics. *)
type facts = {
  gated_at : int * int -> bool;
      (** rule 5: every call site of the enclosing function is gated by
          an unlink compare_and_set *)
  fresh_at : int * int -> bool;
      (** rule 8: every call site sits under a [@fresh_ok] extent *)
}

(** The all-false bundle: a purely syntactic run. *)
val no_facts : facts

(** One annotation occurrence, identified by name and the position of
    the attribute name (so two same-named annotations on one line stay
    distinct). *)
type annotation = {
  ann_name : string;
  ann_line : int;
  ann_col : int;
  ann_reason : string;
}

(** The auditable annotation names paired with the rules each one can
    suppress. *)
val auditable_annotations : (string * string list) list

type audit_entry = {
  audit_annotation : annotation;
  audit_rules : string list;  (** the rules this annotation can suppress *)
  audit_live : bool;
      (** deleting the annotation would change the diagnostic set; a
          stale ([not audit_live]) annotation can be removed *)
}

(** Scope inferred from a path: discipline rules apply under
    [lib/stacks], [lib/core], [lib/reclaim] and [lib/funnel]; [Obj] is
    allowed only in [lib/prim/padding.ml]. *)
val scope_of_path : string -> scope

(** Check a source file on disk. [scope] defaults to
    [scope_of_path path]; [facts] defaults to {!no_facts}. Parses from
    an in-memory copy of the file so locations are computed exactly as
    in {!check_string}. *)
val check_file : ?facts:facts -> ?scope:scope -> string -> diagnostic list

(** Check source text directly (for fixtures and tests); [filename] is
    used for reporting and the default scope. *)
val check_string :
  ?facts:facts -> ?scope:scope -> filename:string -> string -> diagnostic list

(** Audit the annotations of source text ([filename] as in
    {!check_string}): for each occurrence, recheck with that one
    occurrence treated as absent; unchanged diagnostics mean the
    annotation is stale. [probe] decides an occurrence instead when it
    returns [Some live] — the hook through which
    {!Sec_typestate.Typestate.audit} audits the annotations of its own
    rules. Parse failures audit as the empty list (the check entry
    points report the parse error). *)
val audit_string :
  ?facts:facts ->
  ?probe:(annotation -> bool option) ->
  ?scope:scope ->
  filename:string ->
  string ->
  audit_entry list

val pp_diagnostic : Format.formatter -> diagnostic -> unit
val diagnostic_to_string : diagnostic -> string

(** Serialise diagnostics as a minimal SARIF 2.1.0 document (one run,
    one result per diagnostic, 1-based columns). *)
val sarif_of_diagnostics : diagnostic list -> string

(** {2 Shared idiom vocabulary}

    The summary and typestate analyses recognise the same source idioms
    as the lint; exporting the predicates keeps the prongs in
    lockstep. *)

val flatten_longident : Longident.t -> string list
val last_component : Longident.t -> string

val is_atomic_make : Longident.t -> bool
(** [A.make] / [Atomic.make] *)

val is_atomic_get : Longident.t -> bool
val is_atomic_set : Longident.t -> bool

val is_retry_rmw_ident : Longident.t -> bool
(** [compare_and_set] / [exchange]: what a retry loop retries on *)

val is_rmw_ident : Longident.t -> bool
(** every ordering RMW ([compare_and_set], [exchange], [fetch_and_add],
    [incr], [decr]): presence on a path discharges a rule-10 chain *)

val is_cas_ident : Longident.t -> bool
val is_guard_call : Longident.t -> bool
val is_retire_call : Longident.t -> bool
val is_pacing_ident : Longident.t -> bool
val is_spin_wait_ident : Longident.t -> bool

val is_array_get : Longident.t -> bool
(** [Array.get] / [Array.unsafe_get], the desugaring of [a.(i)] *)

(** Does the expression's subtree contain an identifier satisfying the
    predicate? *)
val expr_contains_ident :
  (Longident.t -> bool) -> Parsetree.expression -> bool

(** Payload of a [\[@attr "reason"\]] attribute, when it is a string
    constant. *)
val string_payload : Parsetree.attribute -> string option

val find_attr : string -> Parsetree.attributes -> Parsetree.attribute option

(** Field names of every record type whose name contains ["node"]: the
    reclaimable nodes rule 4 guards and rule 8 recycles. *)
val node_fields : Parsetree.structure -> string list

(** Does the structure reference [Ebr] (the rule-4/5 arming test)? *)
val structure_uses_ebr : Parsetree.structure -> bool

(** (line, 0-based column) of a location's start. *)
val pos_of : Location.t -> int * int

(** Parse an implementation from source text, locations rooted at
    [file]. Raises on syntax errors. *)
val parse_string : file:string -> string -> Parsetree.structure

(** Whole-file read, binary-safe. *)
val read_file : string -> string
