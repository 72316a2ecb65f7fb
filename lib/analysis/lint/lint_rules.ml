(* Static enforcement of the repo's shared-memory discipline, over the
   compiler-libs parsetree. Ten rule classes (see docs/ANALYSIS.md);
   this module checks rules 1, 2, 3, 7 and 9 one file at a time. Rules
   4 and 6 are computed by the typestate analysis and rules 5 and 10 by
   the summary analysis; they are listed here because they share the
   diagnostic surface:

   1. [mutable-field] — algorithm modules (lib/stacks, lib/core,
      lib/reclaim, lib/funnel) may not declare [mutable] record fields
      unless the field carries [@plain_ok "why it is safely published"].
      The simulator cannot intercept plain loads/stores, so an
      unannotated mutable field silently invalidates every simulator
      result and linearizability verdict (lib/prim/prim_intf.ml).

   2. [unpadded-atomic] — in the same modules, an [Atomic.t] stored into
      a record or array (a long-lived shared block) must be created with
      [make_padded], or carry [@unpadded_ok "why false sharing is
      acceptable"] (e.g. short-lived per-operation nodes).

   3. [obj-confinement] — [Obj.*] is confined to lib/prim/padding.ml;
      everywhere else it can break the GC invariants padding relies on.

   4. [ebr-guard] — in discipline modules that use [Ebr], a field read of
      a node-typed record (any record type whose name contains "node")
      must be guarded. The rule is a query over the typestate CFG's
      guard depth, so it lives in {!Sec_typestate.Typestate}; this
      module supplies its node-field and [Ebr]-reference recognisers.

   5. [retire-once] — in the same modules, a [retire] call must be
      gated by an unlink CAS (the enclosing if-condition or
      match-scrutinee contains [compare_and_set], at the call or at
      every call site of its function), or carry
      [@retire_ok "why the node is unlinked exactly once"]. Retiring a
      node twice is the double-free of deferred reclamation; the dynamic
      {!Sec_analysis.Reclaim_checker} catches the interleavings, this
      rule catches the call sites. Computed by {!Sec_summary.Summary},
      which owns the call-site context the interprocedural case needs.

   6. [retry-discipline] — an unpaced retry loop on shared atomic state.
      The rule is a query over the typestate loop records, so it lives in
      {!Sec_typestate.Typestate}.

   7. [progress-class] — a module that implements the stack interface
      (binds both [push] and [pop]) must declare its progress class with
      a floating attribute: [[@@@progress "lock_free"]] or
      [[@@@progress "blocking"]]. The declaration is checked dynamically
      by the suspension classifier ({!Sec_sim.Explore.classify}, via the
      harness registry) and statically by the typestate rule 12 verdict.

   8. Retired. It checked node allocation in modules that recycled
      nodes; no module does any more. The number is kept so rules 9-13
      keep theirs.

   9. [spec-class] — a module that implements the stack interface
      (binds both [push] and [pop]) must declare which sequential spec
      its histories refine with a floating attribute:
      [[@@@spec "stack"]] (strict LIFO, checked by
      {!Sec_spec.Lin_check}) or [[@@@spec "pool"]] (the order-relaxed
      bag semantics). The declaration mirrors the registry entry's
      [spec] field ({!Sec_harness.Registry.semantics}) and selects the
      default refinement properties {!Sec_refine.Refine} verifies
      dynamically.

   10. [plain-publication] — a read-modify-plain-write chain ([get x]
       then a plain [set x] on the same atomic cell, with no ordering
       RMW on the path between them) on a cell written from two or more
       entry points is the lost-update idiom the dynamic
       {!Sec_analysis.Race_detector} models as a write-write race. The
       rule is interprocedural — the chain may span helper calls — so
       it lives in {!Sec_summary.Summary} (the summary side of this
       checker); it is listed here because it shares the diagnostic
       surface, the annotation discipline ([@publication_ok "reason"])
       and the driver. See docs/ANALYSIS.md, "Static prong".

   The per-file checker is syntactic by design: it recognises the repo
   idiom ([module A = P.Atomic], [A.make] / [Atomic.make], [module Ebr
   = Ebr.Make (P)], [Ebr.guard] / [Ebr.retire]) rather than doing
   type-driven analysis, which keeps it dependency-free and fast enough
   to run on every build. The same idiom predicates are exported to the
   summary and typestate analyses.

   The intent annotations [@retire_ok], [@unguarded_ok], [@await_ok]
   and [@publication_ok] share one subtree-covering discipline: each
   needs a non-empty reason string, and each marks its whole subtree,
   so one annotation on a helper's body covers every occurrence inside
   it. *)

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

type scope = {
  check_discipline : bool;
      (* rules 1, 2, 4-7 and 9: algorithm modules written against
         Prim_intf *)
  allow_obj : bool; (* rule 3 exemption: lib/prim/padding.ml *)
}

(* Identity of one annotation occurrence, for the audit's
   disable-and-recheck probe: the position of the attribute *name*
   distinguishes two same-named annotations on one line. *)
type annotation = {
  ann_name : string;
  ann_line : int;
  ann_col : int;
  ann_reason : string;
}

(* Directories whose modules implement the stack/prim interfaces and are
   therefore subject to the access-discipline rules. *)
let discipline_dirs = [ "lib/stacks"; "lib/core"; "lib/reclaim"; "lib/funnel" ]

let scope_of_path path =
  let path =
    String.concat "/" (String.split_on_char '\\' path) (* windows-proof *)
  in
  let contains_dir dir =
    (* match ".../lib/stacks/foo.ml" and "lib/stacks/foo.ml" *)
    let re = dir ^ "/" in
    let len_p = String.length path and len_r = String.length re in
    let rec scan i =
      if i + len_r > len_p then false
      else if String.sub path i len_r = re then
        i = 0 || path.[i - 1] = '/'
      else scan (i + 1)
    in
    scan 0
  in
  {
    check_discipline = List.exists contains_dir discipline_dirs;
    allow_obj =
      contains_dir "lib/prim" && Filename.basename path = "padding.ml";
  }

(* ------------------------------------------------------------------ *)
(* Attribute helpers                                                    *)

open Parsetree

let string_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let find_attr name attrs =
  List.find_opt (fun a -> a.attr_name.Location.txt = name) attrs

let pos_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* ------------------------------------------------------------------ *)
(* Idiom recognition                                                    *)

let flatten_longident lid = Longident.flatten lid

let last_component lid =
  match List.rev (flatten_longident lid) with c :: _ -> c | [] -> ""

(* [A.make] / [Atomic.make] / [P.Atomic.make]: the repo idiom for
   creating an atomic cell on the substrate. *)
let is_atomic_make lid =
  match List.rev (flatten_longident lid) with
  | "make" :: owner :: _ -> owner = "A" || owner = "Atomic"
  | _ -> false

let is_array_builder lid =
  match flatten_longident lid with
  | [ "Array"; ("make" | "init") ] -> true
  | _ -> false

(* [Ebr.guard] / [E.guard] / bare [guard]: entering a critical section. *)
let is_guard_call lid = last_component lid = "guard"
let is_retire_call lid = last_component lid = "retire"
let is_cas_ident lid = last_component lid = "compare_and_set"

(* [A.get] / [Atomic.get]: reading an atomic cell (rule 6's while-loop
   condition shape). *)
let is_atomic_get lid =
  match List.rev (flatten_longident lid) with
  | "get" :: owner :: _ -> owner = "A" || owner = "Atomic"
  | _ -> false

(* [A.set] / [Atomic.set]: the plain (blind) store — a release without
   an acquire in the dynamic detector's model, and the write half of the
   rule-10 lost-update chain. *)
let is_atomic_set lid =
  match List.rev (flatten_longident lid) with
  | "set" :: owner :: _ -> owner = "A" || owner = "Atomic"
  | _ -> false

(* The RMWs whose failure is what a retry loop retries on. *)
let is_retry_rmw_ident lid =
  match last_component lid with
  | "compare_and_set" | "exchange" -> true
  | _ -> false

(* Every ordering RMW of the substrate vocabulary: an acquire+release
   access whose presence on a path discharges the rule-10 chain. *)
let is_rmw_ident lid =
  match last_component lid with
  | "compare_and_set" | "exchange" | "fetch_and_add" | "incr" | "decr" ->
      true
  | _ -> false

(* [a.(i)] desugars to [Array.get a i]; summaries trace the array
   expression through it to key the cell. *)
let is_array_get lid =
  match flatten_longident lid with
  | [ "Array"; ("get" | "unsafe_get") ] -> true
  | _ -> false

(* Pacing calls that discharge rule 6: the substrate's waiting vocabulary
   ([relax]/[cpu_relax]/[yield]) and the Backoff module's entry points
   ([once] and the spin helpers, which escalate to yield internally). *)
let is_pacing_ident lid =
  match last_component lid with
  | "relax" | "cpu_relax" | "yield" | "once" | "spin_until" | "spin_while" ->
      true
  | _ -> false

(* Unbounded waits on another thread's write: rule 12 classifies every
   call site as a loop. *)
let is_spin_wait_ident lid =
  match last_component lid with
  | "spin_until" | "spin_while" -> true
  | _ -> false

let contains_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec scan i =
    if i + lb > ls then false
    else String.sub s i lb = sub || scan (i + 1)
  in
  scan 0

(* The ebr rules apply only to modules that actually reference [Ebr]
   (aliasing it, applying [Ebr.Make], or calling through it). *)
let structure_uses_ebr structure =
  let found = ref false in
  let check_lid lid =
    if List.mem "Ebr" (flatten_longident lid) then found := true
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> check_lid txt
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; _ } -> check_lid txt
          | _ -> ());
          Ast_iterator.default_iterator.module_expr it me);
    }
  in
  it.structure it structure;
  !found


(* Field names of reclaimable-node records: every record type whose name
   contains "node". Dereferencing these is what the guard protects (rule
   4). *)
let node_fields structure =
  let fields = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record labels
            when contains_sub td.ptype_name.Location.txt "node" ->
              List.iter
                (fun ld -> fields := ld.pld_name.Location.txt :: !fields)
                labels
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it structure;
  !fields

(* Does [e]'s subtree contain an identifier satisfying [pred]? *)
let expr_contains_ident pred e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } when pred txt -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* The checker                                                          *)

(* Edit distance, for the unknown-annotation suggestions. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <-
        Int.min (Int.min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* The names the audit probes, with the rules each one suppresses. *)
let auditable_annotations =
  [
    ("unguarded_ok", [ "ebr-guard" ]);
    ("retire_ok", [ "retire-once" ]);
    ("await_ok", [ "retry-discipline"; "loop-progress" ]);
    ("unpadded_ok", [ "unpadded-atomic" ]);
    ("plain_ok", [ "mutable-field" ]);
    ("publication_ok", [ "plain-publication" ]);
  ]

let check ?disabled ~file ~scope structure =
  (* [disabled] names one annotation occurrence to treat as absent: the
     audit's probe. Identity is (name, position of the attribute name),
     so two same-named annotations on one line stay distinct. *)
  let attr_enabled (attr : attribute) =
    match disabled with
    | None -> true
    | Some d ->
        not
          (attr.attr_name.Location.txt = d.ann_name
          && pos_of attr.attr_name.Location.loc = (d.ann_line, d.ann_col))
  in
  let attr_has_reason name attrs =
    match find_attr name attrs with
    | Some attr when attr_enabled attr -> (
        match string_payload attr with
        | Some s -> String.trim s <> ""
        | None -> false)
    | _ -> false
  in
  let diags = ref [] in
  let add loc rule message =
    let line, col = pos_of loc in
    diags := { file; line; col; rule; message } :: !diags
  in

  (* Rules 7 and 9 pre-pass: [@@@progress] / [@@@spec] declarations and
     push/pop bindings anywhere in the structure (including submodules —
     a file is one progress/spec unit, matching how the registry
     declares one class per algorithm). The missing-declaration
     diagnostics anchor at the later of the two bindings. *)
  let progress_decls = ref [] (* (payload, loc), reversed *) in
  let spec_decls = ref [] (* (payload, loc), reversed *) in
  let push_loc = ref None and pop_loc = ref None in
  (if scope.check_discipline then
     let note_binding (vb : value_binding) =
       match vb.pvb_pat.ppat_desc with
       | Ppat_var { txt = "push"; _ } -> push_loc := Some vb.pvb_loc
       | Ppat_var { txt = "pop"; _ } -> pop_loc := Some vb.pvb_loc
       | _ -> ()
     in
     let it =
       {
         Ast_iterator.default_iterator with
         structure_item =
           (fun it si ->
             (match si.pstr_desc with
             | Pstr_attribute attr
               when attr.attr_name.Location.txt = "progress" ->
                 progress_decls :=
                   (string_payload attr, attr.attr_loc) :: !progress_decls
             | Pstr_attribute attr when attr.attr_name.Location.txt = "spec"
               ->
                 spec_decls :=
                   (string_payload attr, attr.attr_loc) :: !spec_decls
             | Pstr_value (_, vbs) -> List.iter note_binding vbs
             | _ -> ());
             Ast_iterator.default_iterator.structure_item it si);
       }
     in
     it.structure it structure);
  let progress_decls = List.rev !progress_decls in
  let spec_decls = List.rev !spec_decls in

  (* Rule 1: mutable record fields need [@plain_ok "..."]. *)
  let check_label (ld : label_declaration) =
    match ld.pld_mutable with
    | Asttypes.Immutable -> ()
    | Asttypes.Mutable -> (
        match find_attr "plain_ok" ld.pld_attributes with
        | Some attr when attr_enabled attr -> (
            match string_payload attr with
            | Some arg when String.trim arg <> "" -> ()
            | Some _ | None ->
                add ld.pld_loc "mutable-field"
                  (Printf.sprintf
                     "[@plain_ok] on mutable field '%s' needs a publication \
                      argument, e.g. [@plain_ok \"thread-private\"]"
                     ld.pld_name.Location.txt))
        | Some _ | None ->
            add ld.pld_loc "mutable-field"
              (Printf.sprintf
                 "mutable field '%s' in an algorithm module: shared-memory \
                  communication must go through Atomic (the simulator cannot \
                  intercept plain stores); if the field is safely published, \
                  annotate it [@plain_ok \"how it is published\"]"
                 ld.pld_name.Location.txt))
  in

  (* Rule 2: [A.make]/[Atomic.make] results stored in records or arrays. *)
  let check_unpadded loc =
    add loc "unpadded-atomic"
      "Atomic cell stored in a long-lived shared block is created with \
       'make', not 'make_padded': contended neighbours will false-share a \
       cache line; use make_padded, or annotate the call [@unpadded_ok \
       \"why false sharing is acceptable here\"]"
  in

  (* Rule 3: Obj confinement. *)
  let check_obj lid loc =
    match flatten_longident lid with
    | "Obj" :: _ when not scope.allow_obj ->
        add loc "obj-confinement"
          "Obj.* outside lib/prim/padding.ml: unsafe representation \
           shenanigans are confined there so the GC invariants the padding \
           relies on are reviewed in one place"
    | _ -> ()
  in

  (* Rule 7: the progress-class declaration obligations. *)
  (if scope.check_discipline then begin
     List.iter
       (fun (payload, loc) ->
         match payload with
         | Some "lock_free" | Some "blocking" -> ()
         | Some other ->
             add loc "progress-class"
               (Printf.sprintf
                  "invalid progress class %S: declare [@@@progress \
                   \"lock_free\"] or [@@@progress \"blocking\"]"
                  other)
         | None ->
             add loc "progress-class"
               "[@@@progress] needs a class string: declare [@@@progress \
                \"lock_free\"] or [@@@progress \"blocking\"]")
       progress_decls;
     match (!push_loc, !pop_loc) with
     | Some ploc, Some qloc when progress_decls = [] ->
         let anchor =
           if fst (pos_of qloc) >= fst (pos_of ploc) then qloc else ploc
         in
         add anchor "progress-class"
           "module implements the stack interface (binds both push and \
            pop) but declares no progress class: add [@@@progress \
            \"lock_free\"] or [@@@progress \"blocking\"]; the declared \
            class is checked mechanically by the suspension classifier \
            (docs/ANALYSIS.md, \"Progress prong\")"
     | _ -> ()
   end);
  (* Rule 9: the spec-class declaration obligations. *)
  (if scope.check_discipline then begin
     List.iter
       (fun (payload, loc) ->
         match payload with
         | Some "stack" | Some "pool" -> ()
         | Some other ->
             add loc "spec-class"
               (Printf.sprintf
                  "invalid spec class %S: declare [@@@spec \"stack\"] \
                   (strict LIFO, checked by Lin_check) or [@@@spec \
                   \"pool\"] (order-relaxed bag)"
                  other)
         | None ->
             add loc "spec-class"
               "[@@@spec] needs a class string: declare [@@@spec \
                \"stack\"] or [@@@spec \"pool\"]")
       spec_decls;
     match (!push_loc, !pop_loc) with
     | Some ploc, Some qloc when spec_decls = [] ->
         let anchor =
           if fst (pos_of qloc) >= fst (pos_of ploc) then qloc else ploc
         in
         add anchor "spec-class"
           "module implements the stack interface (binds both push and \
            pop) but declares no sequential spec: add [@@@spec \
            \"stack\"] or [@@@spec \"pool\"]; the declared spec selects \
            the refinement property the checker verifies (docs/ANALYSIS.md, \
            \"Refinement prong\") and must match the registry entry's \
            [spec] field"
     | _ -> ()
   end);
  (* [shared]: inside a record literal or Array.make/init arguments, a
     long-lived shared block (rule 2). *)
  let rec expr shared (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_obj txt loc
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        check_obj txt loc;
        (if
           scope.check_discipline && shared && is_atomic_make txt
           && not (attr_has_reason "unpadded_ok" e.pexp_attributes)
         then check_unpadded e.pexp_loc);
        (* Entering Array.make/Array.init arguments counts as entering a
           shared block: the cells live together in one array. *)
        let shared = shared || is_array_builder txt in
        List.iter (fun (_, a) -> expr shared a) args
    | Pexp_record (fields, base) ->
        Option.iter (expr shared) base;
        List.iter (fun (_, v) -> expr true v) fields
    | Pexp_array items -> List.iter (expr true) items
    | _ ->
        (* Generic descent that preserves the context:
           [default_iterator.expr it e] iterates [e]'s children through
           [it.expr], i.e. back through this function. *)
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ child -> expr shared child);
            type_declaration = (fun _ td -> type_declaration td);
          }
        in
        Ast_iterator.default_iterator.expr it e
  and type_declaration (td : type_declaration) =
    match td.ptype_kind with
    | Ptype_record labels when scope.check_discipline ->
        List.iter check_label labels
    | _ -> ()
  in

  let iterator =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ e -> expr false e);
      type_declaration = (fun _ td -> type_declaration td);
    }
  in
  iterator.structure iterator structure;

  (* Unknown-annotation rule: a typo'd suppression ([@awiat_ok]) or a
     typo'd floating declaration ([@@@progess]) silently suppresses or
     declares nothing — flag names that look like ours but are not. *)
  (if scope.check_discipline then begin
     let known = List.map fst auditable_annotations in
     let floating = [ "progress"; "spec"; "protocol" ] in
     let suggest candidates name =
       List.fold_left
         (fun best cand ->
           let d = levenshtein name cand in
           match best with
           | Some (_, bd) when bd <= d -> best
           | _ -> if d <= 2 then Some (cand, d) else best)
         None candidates
     in
     let check_suffix_ok (a : attribute) =
       let name = a.attr_name.Location.txt in
       if
         String.length name > 3
         && String.sub name (String.length name - 3) 3 = "_ok"
         && not (List.mem name known)
       then
         add a.attr_name.Location.loc "unknown-annotation"
           (match suggest known name with
           | Some (cand, _) ->
               Printf.sprintf
                 "[@%s] is not a recognised suppression annotation and \
                  suppresses nothing — did you mean [@%s]?"
                 name cand
           | None ->
               Printf.sprintf
                 "[@%s] is not a recognised suppression annotation and \
                  suppresses nothing (known: %s)"
                 name
                 (String.concat ", " (List.map (fun n -> "[@" ^ n ^ "]") known)))
     in
     let check_floating (a : attribute) =
       let name = a.attr_name.Location.txt in
       if
         (not (List.mem name floating))
         && (not (String.length name >= 6 && String.sub name 0 6 = "ocaml."))
       then
         match suggest floating name with
         | Some (cand, _) ->
             add a.attr_name.Location.loc "unknown-annotation"
               (Printf.sprintf
                  "[@@@%s] is not a recognised declaration — did you mean \
                   [@@@%s]?"
                  name cand)
         | None -> ()
     in
     let it =
       {
         Ast_iterator.default_iterator with
         attribute =
           (fun it a ->
             check_suffix_ok a;
             Ast_iterator.default_iterator.attribute it a);
         structure_item =
           (fun it si ->
             (match si.pstr_desc with
             | Pstr_attribute a -> check_floating a
             | _ -> ());
             Ast_iterator.default_iterator.structure_item it si);
       }
     in
     it.structure it structure
   end);

  (* Diagnostics in source order. *)
  List.sort
    (fun a b -> compare (a.line, a.col, a.rule) (b.line, b.col, b.rule))
    !diags

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let check_structure ~file ~scope structure = check ~file ~scope structure

(* Every entry point parses from an in-memory string so location
   handling (notably [pos_bol] bookkeeping across multi-line tokens,
   which [Lexing.from_channel] refills mid-token) is byte-identical
   between fixture EXPECT markers ([check_string]) and real files. A
   file that does not parse yields its one [parse-error] diagnostic. *)
let parse_string ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn ->
      let loc, msg =
        match Location.error_of_exn exn with
        | Some (`Ok e) -> (e.Location.main.Location.loc, "syntax error")
        | _ -> (Location.none, Printexc.to_string exn)
      in
      let line, col = pos_of loc in
      Error { file; line; col; rule = "parse-error"; message = msg }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_string ?scope ~filename src =
  let scope = match scope with Some s -> s | None -> scope_of_path filename in
  match parse_string ~file:filename src with
  | Ok structure -> check ~file:filename ~scope structure
  | Error d -> [ d ]

(* ------------------------------------------------------------------ *)
(* Annotation audit                                                     *)

(* Every auditable annotation occurrence in the structure, in source
   order. The attribute hook sees attributes wherever they syntactically
   attach (expressions, value bindings, label declarations), so one walk
   covers every name in [auditable_annotations]. *)
let annotations_of_structure structure =
  let anns = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      attribute =
        (fun it a ->
          (match List.assoc_opt a.attr_name.Location.txt auditable_annotations
           with
          | Some _ ->
              let line, col = pos_of a.attr_name.Location.loc in
              anns :=
                {
                  ann_name = a.attr_name.Location.txt;
                  ann_line = line;
                  ann_col = col;
                  ann_reason = Option.value (string_payload a) ~default:"";
                }
                :: !anns
          | None -> ());
          Ast_iterator.default_iterator.attribute it a);
    }
  in
  it.structure it structure;
  List.sort
    (fun a b -> compare (a.ann_line, a.ann_col) (b.ann_line, b.ann_col))
    !anns

type audit_entry = {
  audit_annotation : annotation;
  audit_rules : string list; (* the rules this annotation can suppress *)
  audit_live : bool; (* deleting it would change the diagnostic set *)
}

(* Disable-and-recheck: an annotation is live iff treating that one
   occurrence as absent changes the diagnostic set. Precise by
   construction — whatever subtree/covering semantics the rules give an
   annotation, the probe inherits them. [probe] decides the occurrences
   whose rules live in another analysis; the rest are rechecked against
   this module's rules. *)
let audit_structure ~probe ~file ~scope structure =
  let base = check ~file ~scope structure in
  List.map
    (fun ann ->
      let live =
        match probe ann with
        | Some live -> live
        | None -> check ~disabled:ann ~file ~scope structure <> base
      in
      {
        audit_annotation = ann;
        audit_rules = List.assoc ann.ann_name auditable_annotations;
        audit_live = live;
      })
    (annotations_of_structure structure)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let pp_diagnostic ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

let diagnostic_to_string d = Format.asprintf "%a" pp_diagnostic d

(* Minimal SARIF 2.1.0 document — one run, one result per diagnostic,
   columns converted from the 0-based compiler convention to SARIF's
   1-based one. Shape-checked by test/test_lint.ml against the repo's
   own Bench_json parser. *)
let sarif_of_diagnostics diags =
  let buf = Buffer.create 4096 in
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let raw = Buffer.add_string buf in
  let comma_sep f = function
    | [] -> ()
    | x :: rest ->
        f x;
        List.iter
          (fun y ->
            raw ",";
            f y)
          rest
  in
  let rule_ids =
    List.sort_uniq compare (List.map (fun d -> d.rule) diags)
  in
  raw "{";
  raw "\"$schema\":";
  str "https://json.schemastore.org/sarif-2.1.0.json";
  raw ",\"version\":";
  str "2.1.0";
  raw ",\"runs\":[{\"tool\":{\"driver\":{\"name\":";
  str "sec_lint";
  raw ",\"informationUri\":";
  str "docs/ANALYSIS.md";
  raw ",\"rules\":[";
  comma_sep
    (fun id ->
      raw "{\"id\":";
      str id;
      raw "}")
    rule_ids;
  raw "]}},\"results\":[";
  comma_sep
    (fun d ->
      raw "{\"ruleId\":";
      str d.rule;
      raw ",\"level\":";
      str "error";
      raw ",\"message\":{\"text\":";
      str d.message;
      raw "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":";
      str d.file;
      raw "},\"region\":{\"startLine\":";
      raw (string_of_int d.line);
      raw ",\"startColumn\":";
      raw (string_of_int (d.col + 1));
      raw "}}}]}")
    diags;
  raw "]}]}";
  Buffer.contents buf
