(** Path-sensitive typestate analysis over per-function control-flow
    graphs — the static prong's third stage (docs/ANALYSIS.md,
    "Typestate prong").

    Where {!Sec_lint_rules.Lint_rules} matches syntactic extents and
    {!Sec_summary.Summary} flattens each function to an event stream,
    this module keeps branch, loop and exception structure: one CFG per
    top-level binding (expression-level [let rec] groups become
    intra-CFG back edges, immediate-lambda arguments of higher-order
    calls become one-or-more-iteration loops, [try]/[match ... with
    exception] handlers become exception edges), plus a forward
    abstract-interpretation engine over join-semilattices, widened at
    loop heads by capping the lattices (guard depth saturates, protocol
    states form a finite power set). Call sites are resolved through
    the summary environment ({!Sec_summary.Summary.resolved_calls}),
    which is also where callee atomic effects come from.

    Three rules run on top of the engine, and two more are queries over
    what they compute:

    - rule 11, [guard-balance] — direct EBR [enter]/[exit] pairs (an
      application of an ident whose last component is [enter]/[exit]
      with a labelled [~tid] argument) must balance on {e every} path,
      including exception edges; an [exit] at depth zero, a path that
      returns or raises with the epoch still pinned, and paths that
      disagree on the depth are each diagnosed.
    - rule 4, [ebr-guard] — a query over rule 11's guard depth: in an
      EBR module (one referencing [Ebr]), a read of a node-record field
      (record types named [*node*]) is diagnosed unless it is at depth
      >= 1 on every path (a [guard] wrapper's lambda body counts), its
      function is guarded at every call site or sits inside a
      guard-wrapper call ({!Summary.guarded_at}), or it lies inside an
      [[@unguarded_ok "reason"]] extent.
    - rule 12, [loop-progress] — every loop (a [while], a recursive
      binding group, a [spin_until]/[spin_while] call site) is
      classified {!Bounded} (for-loops, monotone counters with a
      comparison exit, deadline checks reading [now_ns], no shared
      atomic state, or an author-certified [[@await_ok]] extent),
      {!Cas_retry} (retries that update shared state or chase freshly
      read links) or {!Stuck_spin} (waits that only another thread's
      write can end). A module's static verdict is {!Blocking} iff a
      stuck wait is reachable from one of its top-level functions
      through the resolved call graph (so [fc_stack.ml] is blocking
      {e via} [fc.ml]'s combiner wait); a [[@@@progress]] declaration
      disagreeing with the verdict is diagnosed at the declaration.
      Reachability is a fixpoint over the call edges, so the verdict
      does not depend on the order files are analysed in.
    - rule 6, [retry-discipline] — a query over rule 12's loop records:
      a retry-shaped loop (a [while] whose condition reads an atomic, or
      a recursive group containing a CAS or [exchange]) that is not
      {!Bounded} and is unpaced (no [Backoff]/[relax]/[yield] call and
      no resolved callee whose summary paces) is diagnosed at the loop.
    - rule 13, [protocol] — a [[@@@protocol "name: s1 -kind:field-> s2;
      ..."]] floating attribute declares a state machine over the
      file's atomic fields (kind is [read]/[write]/[rmw]; field is the
      last path component of the accessed cell; the first-listed source
      state is the start state). Every top-level function is checked
      from the start state: an access to a declared [(kind, field)]
      event with no enabled transition from any current state is a
      violation at that access. Calls resolving to same-file functions
      are stepped through by running the callee's CFG from the caller's
      state set (memoised; recursion falls back to identity).

    {!audit} runs the whole annotation audit: [[@unguarded_ok]] and
    [[@await_ok]] occurrences are live iff ignoring them changes the
    rule-4 (resp. rule-6 or rule-12) diagnostics. *)

module L = Sec_lint_rules.Lint_rules
module Summary = Sec_summary.Summary

type t

type loop_class = Bounded | Cas_retry | Stuck_spin
type verdict = Blocking | Lock_free

val loop_class_to_string : loop_class -> string
val verdict_to_string : verdict -> string

(** Lint [files] as one corpus — the [sec_lint] entry point. Each file
    is read and parsed once, and its parsetree goes to the summary
    analysis, this analysis (files whose effective scope has
    [check_discipline] set) and the per-file rules of
    {!Sec_lint_rules.Lint_rules}. The diagnostics are the per-file
    rules', the summary's rules 5 and 10, and this module's rules 4,
    6 and 11-13, sorted by (file, line, col, rule); a file that does
    not parse contributes its one [parse-error] diagnostic and nothing
    else. [scope] overrides {!L.scope_of_path} for every file. *)
val check_corpus :
  ?scope:L.scope -> string list -> Summary.env * t * L.diagnostic list

(** {!check_corpus} over in-memory sources [(filename, contents)] —
    unit tests. *)
val check_sources :
  ?scope:L.scope ->
  (string * string) list ->
  Summary.env * t * L.diagnostic list

(** All rule 11-13 diagnostics, sorted by (file, line, col, rule). The
    rule 4 and 6 queries report through {!check_corpus}. *)
val diagnostics : t -> L.diagnostic list

(** The static progress verdict for [file]; [None] when the file has no
    analysed functions. *)
val verdict_of : t -> file:string -> verdict option

(** The file's [[@@@progress]] payload, if declared. *)
val declared_progress : t -> file:string -> string option

(** Every classified loop in [file]:
    [(enclosing unit, name, line, class, reason)]. Spin-wait call sites
    appear as ["spin@<line>"] entries. *)
val loops :
  t -> file:string -> (string * string * int * loop_class * string) list

(** Names of the protocol automata declared in [file]. *)
val automata_of : t -> file:string -> string list

(** Audit every annotation of the corpus, paired with its file, in
    corpus order. Each occurrence is decided by the analysis that owns
    its rule, over the parsetrees {!check_corpus} already built: it is
    live iff ignoring that one occurrence changes that analysis'
    diagnostics — the answer deleting it and relinting gives.
    [[@unguarded_ok]] (rule 4, including the summary's guard context)
    and [[@await_ok]] (rules 6 and 12) are decided here,
    [[@retire_ok]] and [[@publication_ok]] by
    {!Summary.diagnostics}, the rest by {!L.audit_structure}. *)
val audit : t -> (string * L.audit_entry) list

(** [(units, cfg nodes, loop heads)] for [file] — introspection. *)
val cfg_stats : t -> file:string -> int * int * int
