(** Interprocedural atomic-effect summaries over [lib/**].

    The static prong's second stage (docs/ANALYSIS.md, "Static prong:
    interprocedural summaries"). The per-file lint
    ({!Sec_lint_rules.Lint_rules}) is syntactic; this module builds a
    whole-library view:

    - one {e function record} per top-level or [let]-bound function
      (nested [let rec]s are separate functions; anonymous lambdas
      inline into their enclosing function), carrying an ordered event
      stream of atomic reads, plain stores, RMWs, pacing calls, guard
      entries, retire sites, node-literal constructions and calls;
    - an {e effect summary} per function — the transitive union of its
      own events and its callees' (bottom-up fixpoint over the call
      graph, convergent because the lattice is finite sets + booleans);
    - a {e context fixpoint} per obligation kind (guarded / CAS-gated /
      fresh-sanctioned): a non-entry function's obligations
      are discharged when {e every} call site is covered, lexically or
      by the caller's own context (greatest fixpoint, initialised true
      for internal functions so cycles resolve optimistically and
      entry points pin the result);
    - rule 10, [plain-publication]: replaying each function's event
      stream, a plain [Atomic.set c] (or a call whose callee plain-sets
      [c]) fires when [c] was read earlier on the same path (own events
      or callee totals), no ordering RMW has intervened (own or callee),
      the store is not under [@publication_ok "reason"], and [c] is
      written by two or more entry points — the static mirror of the
      dynamic detector's write-write-race model.

    Atomic cells are keyed by the typed path of their defining record
    field when the file's [.cmt] typedtree is available (dune emits
    them for every library; the key is ["stem:TypePath.field"]), and by
    ["stem.field"] otherwise; unresolvable cells (function parameters,
    local [Atomic.make]s) get per-function pseudo-keys so they can
    never alias a shared field.

    Facts produced here only ever {e discharge} obligations: the
    {!facts_for} bundle discharges rules 5 and 8 in the lint, and
    {!guarded_at} discharges rule 4 in {!Sec_typestate.Typestate}. They
    cannot create diagnostics, so adding summaries to a lint run can
    only shrink its diagnostic set (rule 10 is the one additive check,
    and it is this module's own). *)

module L = Sec_lint_rules.Lint_rules

module String_set : Set.S with type elt = string

(** Transitive effect of calling a function. [retires]/[allocs] are
    reachability bits (does any retire / node construction happen);
    per-site positions live on the function records. *)
type effects = {
  reads : String_set.t;  (** atomic cells read *)
  writes : String_set.t;  (** atomic cells plain-[set] *)
  rmws : String_set.t;  (** atomic cells RMW'd (CAS/exchange/FAA/incr) *)
  paces : bool;  (** performs a Backoff/relax/yield pacing call *)
  has_rmw : bool;  (** performs any ordering RMW *)
  guards : bool;  (** enters a [guard] extent *)
  retires : bool;
  allocs : bool;
}

val no_effects : effects

type env

(** Analyse source files from disk. [use_cmt] (default [true]) overlays
    typed field paths from each file's [.cmt] when one is found beside
    the build tree and its source digest matches. [scope] overrides
    {!L.scope_of_path} for every file (fixtures). Files that fail to
    parse contribute nothing (the lint reports the parse error). *)
val analyze : ?scope:L.scope -> ?use_cmt:bool -> string list -> env

(** Analyse in-memory sources [(filename, contents)] — unit tests. *)
val analyze_sources : ?scope:L.scope -> (string * string) list -> env

(** {2 Lint integration} *)

(** The rule 5 and 8 discharge predicates for [file], to pass to
    {!L.check_file} / {!L.check_string}. *)
val facts_for : env -> file:string -> L.facts

(** The rule-4 discharge predicate for [file]: is the (line, col)
    position inside a function whose every call site runs under a guard
    ({!ctx_guarded}), or inside a lambda passed to a guard wrapper? *)
val guarded_at : env -> file:string -> int * int -> bool

(** Rule-10 diagnostics across the whole environment, sorted by
    (file, line, col). *)
val publication_diagnostics : env -> L.diagnostic list

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

