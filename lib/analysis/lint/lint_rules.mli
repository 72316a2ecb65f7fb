(** Static lint for the repo's shared-memory discipline.

    The per-file rule classes, reported as [file:line:col] diagnostics:
    - [mutable-field]: no [mutable] record field in algorithm modules
      without [@plain_ok "publication argument"];
    - [unpadded-atomic]: atomics stored in long-lived shared blocks
      (records, arrays) must be [make_padded] or [@unpadded_ok "..."];
    - [obj-confinement]: [Obj.*] only in [lib/prim/padding.ml];
    - [progress-class]: a module binding both [push] and [pop] must
      declare [[@@@progress "lock_free"]] or [[@@@progress "blocking"]]
      (rule 12 checks the declared class against the static verdict);
    - [spec-class]: the same modules must declare the sequential spec
      their histories refine — [[@@@spec "stack"]] (strict LIFO) or
      [[@@@spec "pool"]] (order-relaxed bag) — matching the registry
      entry's [spec] field, which selects the refinement properties
      checked dynamically by {!Sec_refine.Refine}.

    The other rules share this module's diagnostic surface and idiom
    predicates but are owned by the analysis that computes them.
    {!Sec_summary.Summary} owns [retire-once] (rule 5: a [retire] call
    gated by the unlink CAS or [@retire_ok "reason"]) and
    [plain-publication] (rule 10). Rule 8 is retired; its number is
    kept so the later rules keep theirs.
    {!Sec_typestate.Typestate} owns [ebr-guard] and [retry-discipline]
    (rules 4 and 6, queries over its CFG) and the path-sensitive rules
    11-13 ([guard-balance], [loop-progress], [protocol]).

    The intent annotations ([@retire_ok], [@unguarded_ok], [@await_ok]
    and [@publication_ok]) share one subtree-covering discipline: each
    needs a non-empty reason string, and each covers the whole subtree
    it sits on, so one annotation on a helper body covers every
    occurrence inside it.

    [retire-once] and [ebr-guard] are the static prong of the
    reclamation-safety layer ({!Sec_analysis.Reclaim_checker} is the
    dynamic prong); [progress-class] and the typestate
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
      (** apply the mutable-field, unpadded-atomic, progress-class and
          spec-class rules, and the summary and typestate rules that
          need the discipline scope *)
  allow_obj : bool;  (** exempt from obj-confinement *)
}

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

(** Parse an implementation from source text, locations rooted at
    [file]. A syntax error yields the file's one [parse-error]
    diagnostic. *)
val parse_string :
  file:string -> string -> (Parsetree.structure, diagnostic) result

(** This module's rules over one parsed file. *)
val check_structure :
  file:string -> scope:scope -> Parsetree.structure -> diagnostic list

(** Check source text directly (for fixtures and tests); [filename] is
    used for reporting and the default scope. *)
val check_string : ?scope:scope -> filename:string -> string -> diagnostic list

(** Audit the annotations of one parsed file. [probe] decides an
    occurrence when it returns [Some live] — the hook through which
    {!Sec_typestate.Typestate.audit} hands each annotation to the
    analysis that owns its rule. An occurrence the probe leaves [None]
    is rechecked against this module's rules with that one occurrence
    treated as absent; unchanged diagnostics mean it is stale. *)
val audit_structure :
  probe:(annotation -> bool option) ->
  file:string ->
  scope:scope ->
  Parsetree.structure ->
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
    reclaimable nodes rule 4 guards. *)
val node_fields : Parsetree.structure -> string list

(** Does the structure reference [Ebr] or take a [Reclaim.S] argument
    (the rule-4/5 arming test)? *)
val structure_uses_reclamation : Parsetree.structure -> bool

(** (line, 0-based column) of a location's start. *)
val pos_of : Location.t -> int * int

(** Whole-file read, binary-safe. *)
val read_file : string -> string
