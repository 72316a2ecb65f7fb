(** Interprocedural atomic-effect summaries over [lib/**].

    The static prong's second stage (docs/ANALYSIS.md, "Static prong:
    interprocedural summaries"). The per-file lint
    ({!Sec_lint_rules.Lint_rules}) is syntactic; this module builds a
    whole-library view, and owns the rules that need it:

    - one {e function record} per top-level or [let]-bound function
      (nested [let rec]s are separate functions; anonymous lambdas
      inline into their enclosing function; a structure passed to a
      functor is a namespace of its own, inside which the module being
      bound keeps its outer meaning), carrying an ordered event
      stream of atomic reads, plain stores, RMWs, pacing calls, guard
      entries, retire sites and calls;
    - an {e effect summary} per function — the transitive union of its
      own events and its callees' (bottom-up fixpoint over the call
      graph, convergent because the lattice is finite sets + booleans);
    - a {e context fixpoint} per obligation kind (guarded / CAS-gated):
      a non-entry function's obligations
      are discharged when {e every} call site is covered, lexically or
      by the caller's own context (greatest fixpoint, initialised true
      for internal functions so cycles resolve optimistically and
      entry points pin the result);
    - rule 5, [retire-once]: in a discipline module referencing [Ebr],
      a [retire] call fires unless it sits in a branch selected by a
      [compare_and_set] (if-condition or match-scrutinee), under
      [@retire_ok "reason"], or in a function that is CAS-gated at
      every call site; anchored at the whole application;
    - rule 10, [plain-publication]: replaying each function's event
      stream, a plain [Atomic.set c] (or a call whose callee plain-sets
      [c]) fires when [c] was read earlier on the same path (own events
      or callee totals), no ordering RMW has intervened (own or callee),
      the store is not under [@publication_ok "reason"], and [c] is
      written by two or more entry points — the static mirror of the
      dynamic detector's write-write-race model.

    Atomic cells are keyed ["stem.field"]: the file stem and the last
    component of the record field's name, so one field has one key
    wherever its record type is spelled from. Unresolvable cells
    (function parameters, local [Atomic.make]s) get per-function
    pseudo-keys so they can never alias a shared field.

    Each call site and rule site records {e which} annotation
    occurrences cover it, so the audit can recompute a context or a
    rule's diagnostics with one occurrence ignored ([?without]) — the
    same answer as deleting it and relinting. {!guarded_at} discharges
    rule 4 in {!Sec_typestate.Typestate}. *)

module L = Sec_lint_rules.Lint_rules

module String_set : Set.S with type elt = string

(** Transitive effect of calling a function. [retires] is a
    reachability bit (does any retire happen); per-site positions live
    on the function records. *)
type effects = {
  reads : String_set.t;  (** atomic cells read *)
  writes : String_set.t;  (** atomic cells plain-[set] *)
  rmws : String_set.t;  (** atomic cells RMW'd (CAS/exchange/FAA/incr) *)
  paces : bool;  (** performs a Backoff/relax/yield pacing call *)
  has_rmw : bool;  (** performs any ordering RMW *)
  guards : bool;  (** enters a [guard] extent *)
  retires : bool;
}

val no_effects : effects

type env

(** Analyse a parsed corpus [(filename, parsetree)] (the lint parses
    each file once; {!Sec_typestate.Typestate.check_corpus} is the
    entry point). [scope] overrides {!L.scope_of_path} for every file
    (fixtures). *)
val analyze : ?scope:L.scope -> (string * Parsetree.structure) list -> env

(** {2 Lint integration}

    [without] names one annotation occurrence — its file and the
    (line, col) of the attribute name — to treat as absent: the audit's
    probe. *)

(** The rule-4 discharge predicate for [file]: is the (line, col)
    position inside a function whose every call site runs under a guard
    ({!ctx_guarded}), or inside a lambda passed to a guard wrapper?
    Applying it to [env] computes the guard context once for every
    file. *)
val guarded_at :
  ?without:string * (int * int) -> env -> file:string -> int * int -> bool

(** The diagnostics of rules 5 and 10 across the whole environment,
    sorted by (file, line, col, rule). *)
val diagnostics : ?without:string * (int * int) -> env -> L.diagnostic list

(** Every syntactic atomic plain-store or RMW site, as
    [(file, line)] — the static may-race set. Independent of call and
    cell resolution, so the dynamic detector's write-write races must
    be a subset of it (cross-validation test). *)
val may_write_sites : env -> (string * int) list

(** {2 Introspection (tests, [--audit] reporting)} *)

(** Keys of the entry-point functions: a module's signature-exported
    top-level functions (export sets resolve through [module type]
    constraints, including functor-result constraints such as
    [Stack_intf.S]); modules without a resolvable constraint export
    every top-level binding. *)
val entries : env -> String_set.t

(** All function keys, in definition order. Keys look like
    ["stem:Make.pop.attempt"]. *)
val functions : env -> string list

(** Transitive effects of a function; {!no_effects} for unknown keys. *)
val total_effects : env -> string -> effects

(** Top-level functions of [file] as [(key, (start_line, end_line))] in
    definition order — the unit list the typestate analysis
    ({!Sec_typestate.Typestate}) builds one CFG per entry of. *)
val file_functions : env -> file:string -> (string * (int * int)) list

(** Every resolved call site in [file]:
    [((line, col), (callee_key, callee_file, callee_span))], sorted.
    Positions are of the whole application expression, matching the
    call ops the typestate CFG records, so the pair serves as a join
    key between the two analyses. *)
val resolved_calls :
  env -> file:string -> ((int * int) * (string * string * (int * int))) list

(** Rounds the bottom-up effect fixpoint took to converge. *)
val effect_rounds : env -> int

(** Guard-context fixpoint result for a function key: every resolved
    call site reaching it runs under an EBR guard. *)
val ctx_guarded : env -> string -> bool

