(* Command-line driver for the discipline lint.

   Default mode: walk the given files and directories (recursively,
   *.ml only) and lint them as one corpus (Typestate.check_corpus):
   each file is parsed once, the interprocedural summary analysis
   (Sec_summary.Summary, rules 5 and 10) and the path-sensitive
   typestate analysis (Sec_typestate.Typestate, rules 4, 6 and 11-13)
   run over the whole set, and each file gets the per-file rules (1, 2,
   3, 7 and 9); print every diagnostic as file:line:col, and exit
   non-zero if any were found.
   Wired into the build as [dune build @lint], which [dune runtest]
   depends on — so a discipline violation fails the tier-1 check.
   Output modes: [--json] emits a JSON array of {file, line, col,
   rule, message}; [--sarif] emits a SARIF 2.1.0 document for CI
   code-scanning upload (exit status unchanged).

   Audit mode: [sec_lint --audit <dir>] rechecks every suppression
   annotation with that one occurrence treated as absent, in the
   analysis that owns its rule; annotations whose removal leaves the
   diagnostic set unchanged are stale and reported (exit 1), together
   with per-rule suppression counts. [@unguarded_ok] and [@await_ok]
   are probed by the typestate analysis (rule 4, and rules 6 and 12
   together), [@retire_ok] and [@publication_ok] by the summary
   analysis (rules 5 and 10), the rest by the per-file recheck.

   Self-test mode: [sec_lint --selftest <dir>] checks the fixture files
   under <dir> (discipline scope forced on, summaries and typestate
   built over the fixture set) against their inline
   "(* EXPECT rule *)" markers, failing on any missing or unexpected
   diagnostic — and against a pinned total marker count, so silently
   dropping a fixture (or its markers) breaks the build too. Wired in
   as [dune build @lint-selftest].

   Explain mode: [sec_lint --explain <rule>] prints the rule's
   one-paragraph documentation and its suppression annotation (if it
   has one). *)

module L = Sec_lint_rules.Lint_rules
module Typestate = Sec_typestate.Typestate

let rec gather path acc =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "sec_lint: no such file or directory: %s\n" path;
    exit 2
  end
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> gather (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* Minimal JSON string escaping: the characters RFC 8259 requires. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_json diagnostics =
  print_string "[";
  List.iteri
    (fun i (d : L.diagnostic) ->
      if i > 0 then print_string ",";
      Printf.printf
        "\n  {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \
         \"message\": \"%s\"}"
        (json_escape d.file) d.line d.col (json_escape d.rule)
        (json_escape d.message))
    diagnostics;
  if diagnostics <> [] then print_string "\n";
  print_string "]\n"

type output = Text | Json | Sarif

let lint ~output files =
  let _env, _ts, diagnostics = Typestate.check_corpus files in
  (match output with
  | Json -> print_json diagnostics
  | Sarif -> print_string (L.sarif_of_diagnostics diagnostics)
  | Text ->
      List.iter (fun d -> print_endline (L.diagnostic_to_string d)) diagnostics);
  match diagnostics with
  | [] ->
      if output = Text then
        Printf.printf "sec_lint: %d files clean\n" (List.length files);
      exit 0
  | ds ->
      Printf.eprintf "sec_lint: %d diagnostic(s)\n" (List.length ds);
      exit 1

(* --- audit mode ---------------------------------------------------- *)

let audit files =
  let _, ts, _ = Typestate.check_corpus files in
  let entries = Typestate.audit ts in
  let count name =
    List.length
      (List.filter
         (fun (_, (e : L.audit_entry)) -> e.audit_annotation.ann_name = name)
         entries)
  in
  Printf.printf "suppression annotations by rule:\n";
  List.iter
    (fun (name, rules) ->
      Printf.printf "  %-16s %3d  (suppresses %s)\n" ("[@" ^ name ^ "]")
        (count name)
        (String.concat ", " rules))
    L.auditable_annotations;
  let stale =
    List.filter (fun (_, (e : L.audit_entry)) -> not e.audit_live) entries
  in
  List.iter
    (fun (file, (e : L.audit_entry)) ->
      Printf.printf
        "STALE %s:%d:%d: [@%s \"%s\"] suppresses nothing the analysis still \
         flags; delete it\n"
        file e.audit_annotation.ann_line e.audit_annotation.ann_col
        e.audit_annotation.ann_name e.audit_annotation.ann_reason)
    stale;
  if stale = [] then begin
    Printf.printf "sec_lint --audit: %d annotations, none stale\n"
      (List.length entries);
    exit 0
  end
  else begin
    Printf.eprintf "sec_lint --audit: %d stale annotation(s)\n"
      (List.length stale);
    exit 1
  end

(* --- explain mode -------------------------------------------------- *)

(* (rule, suppression annotation or None, one-paragraph doc). *)
let rule_docs =
  [
    ( "mutable-field",
      Some "plain_ok",
      "Rule 1. Algorithm modules must not declare [mutable] record \
       fields: a plain store to shared state is invisible to the \
       memory-model machinery and the dynamic race detector's \
       publication analysis. Use an Atomic.t cell, or annotate the \
       field [@plain_ok \"publication argument\"] explaining why the \
       store is safely published (e.g. written only before the value \
       escapes its constructor)." );
    ( "unpadded-atomic",
      Some "unpadded_ok",
      "Rule 2. Atomics stored in long-lived shared blocks (records, \
       arrays) share cache lines with their neighbours, so independent \
       cells false-share. Allocate them with make_padded, or annotate \
       [@unpadded_ok \"reason\"] when the cells are deliberately \
       colocated (e.g. always written together by one owner)." );
    ( "obj-confinement",
      None,
      "Rule 3. Obj.* escapes the type system and is confined to \
       lib/prim/padding.ml, the one place the repo deliberately plays \
       layout tricks. There is no suppression annotation: move the \
       code, or extend the padding primitive." );
    ( "ebr-guard",
      Some "unguarded_ok",
      "Rule 4. In discipline modules referencing Ebr, reads of node \
       record fields must happen inside a guard extent — otherwise a \
       concurrent retire/sweep can free the node under the reader. A \
       query over the typestate CFG: a read is accepted at guard depth \
       >= 1 on every path (a guard wrapper's lambda body counts), in a \
       helper whose every call site is guarded (interprocedural \
       summaries), or inside a lambda passed to a guard wrapper. \
       Otherwise annotate [@unguarded_ok \"reason\"]." );
    ( "retire-once",
      Some "retire_ok",
      "Rule 5. A node may be retired exactly once, by the thread that \
       unlinked it; the syntactic witness is a retire call inside a \
       branch selected by a compare_and_set. Retires elsewhere need \
       [@retire_ok \"reason\"] (e.g. a drain loop that owns the whole \
       structure)." );
    ( "retry-discipline",
      Some "await_ok",
      "Rule 6. A retry loop on shared atomic state (a while on an \
       atomic read, or a recursive CAS/exchange loop) must pace itself \
       with a Backoff/relax/yield call (directly or through a callee), \
       or carry [@await_ok \"why the wait is bounded\"]. A query over \
       rule 12's loop records: loops rule 12 proves bounded are \
       exempt. Unpaced spinning saturates the interconnect exactly when \
       the system is most contended." );
    ( "progress-class",
      None,
      "Rule 7. A module binding both push and pop must declare \
       [@@@progress \"lock_free\"] or [@@@progress \"blocking\"]. The \
       declared class is checked twice: by the dynamic suspension \
       classifier, and by the typestate rule 12 static verdict (a stuck \
       wait reachable under a lock_free declaration is diagnosed at the \
       declaration, naming the wait). No suppression: the declaration \
       is the point." );
    ( "fresh-node",
      None,
      "Rule 8. Retired. It checked node allocation in modules that \
       recycled nodes, and no module does any more, so nothing reports \
       it. The number stays so that rules 9-13 keep theirs." );
    ( "spec-class",
      None,
      "Rule 9. A module binding both push and pop must declare the \
       sequential spec its histories refine — [@@@spec \"stack\"] \
       (strict LIFO) or [@@@spec \"pool\"] (order-relaxed bag) — \
       matching the registry entry's spec field, which selects the \
       refinement properties checked dynamically. No suppression: the \
       declaration is the point." );
    ( "plain-publication",
      Some "publication_ok",
      "Rule 10. A get x ... set x read-modify-plain-write chain on an \
       atomic cell written by two or more entry points, with no \
       ordering RMW between the read and the plain store, is a lost \
       update waiting to happen — the static mirror of the dynamic \
       detector's write-write-race model. Computed over the \
       interprocedural summaries (the chain may span helper calls). \
       Annotate [@publication_ok \"reason\"] when the store is a \
       single-writer publication." );
    ( "guard-balance",
      None,
      "Rule 11. Direct EBR enter/exit pairs must balance on every CFG \
       path, including exception edges: an exit at depth zero, a path \
       that returns or raises with the epoch still pinned, and paths \
       that disagree on the depth are each diagnosed. There is no \
       suppression annotation — an unbalanced guard is a leak (the \
       epoch never advances past the stuck reservation) or a \
       use-after-unpin; fix the control flow, or use the exception-safe \
       Ebr.guard wrapper." );
    ( "loop-progress",
      Some "await_ok",
      "Rule 12. Every loop is classified bounded (for-loops, monotone \
       counters with a comparison exit, deadline checks reading now_ns, \
       no shared atomic state, or an author-certified [@await_ok] \
       extent), cas-retry (retries that update shared state or chase \
       freshly read links) or stuck-spin (waits only another thread's \
       write can end). A module whose top-level operations can reach a \
       stuck wait through the resolved call graph is statically \
       Blocking; a [@@@progress] declaration disagreeing with the \
       verdict is diagnosed at the declaration. [@await_ok] moves a \
       wait into the bounded class — and the audit re-proves each \
       occurrence by reclassifying without it." );
    ( "protocol",
      None,
      "Rule 13. [@@@protocol \"name: s1 -kind:field-> s2; ...\"] \
       declares a state machine over the file's atomic fields (kind is \
       read/write/rmw; field is the last path component of the accessed \
       cell; the first-listed source state is the start state). Every \
       top-level function is checked from the start state over all CFG \
       paths, stepping through same-file calls; an access to a declared \
       (kind, field) event with no enabled transition from any current \
       state is a violation at that access. No suppression annotation — \
       fix the access order, or fix the automaton if the protocol \
       genuinely changed." );
    ( "unknown-annotation",
      None,
      "Hygiene rule. An annotation name ending in _ok that is not one \
       of the recognised suppression annotations (a typo like \
       [@awiat_ok]) suppresses nothing while looking like it does; \
       likewise a floating declaration within edit distance 2 of \
       progress/spec/protocol ([@@@progess]). Both are diagnosed with \
       the nearest recognised name. Fix the spelling." );
    ( "parse-error",
      None,
      "Reported when a file under lint does not parse; the analyses \
       contribute nothing for that file. Fix the syntax error." );
  ]

let explain rule =
  match List.find_opt (fun (r, _, _) -> r = rule) rule_docs with
  | Some (r, suppress, doc) ->
      Printf.printf "[%s]\n%s\n" r doc;
      (match suppress with
      | Some ann ->
          Printf.printf "suppression annotation: [@%s \"reason\"]\n" ann
      | None -> Printf.printf "suppression annotation: none\n");
      exit 0
  | None ->
      Printf.eprintf "sec_lint --explain: unknown rule %S\navailable: %s\n"
        rule
        (String.concat ", " (List.map (fun (r, _, _) -> r) rule_docs));
      exit 2

(* --- self-test mode ------------------------------------------------ *)

(* The total number of EXPECT markers across the fixture corpus. A
   fixture (or a marker) silently dropping out of the corpus would
   otherwise pass the per-file check vacuously; update this pin when
   adding or removing fixture expectations. *)
let pinned_expect_total = 28

(* "(* EXPECT rule-name *)" anywhere in [line]. *)
let expectation_of_line line =
  let marker = "EXPECT " in
  let ll = String.length line and lm = String.length marker in
  let rec find i =
    if i + lm > ll then None
    else if String.sub line i lm = marker then begin
      let stop = ref (i + lm) in
      while
        !stop < ll && line.[!stop] <> ' ' && line.[!stop] <> '*'
        && line.[!stop] <> '\r'
      do
        incr stop
      done;
      if !stop > i + lm then Some (String.sub line (i + lm) (!stop - i - lm))
      else None
    end
    else find (i + 1)
  in
  find 0

let expectations_of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lnum acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            match expectation_of_line line with
            | Some rule -> loop (lnum + 1) ((lnum, rule) :: acc)
            | None -> loop (lnum + 1) acc)
      in
      loop 1 [])

let selftest dir =
  let files = List.rev (gather dir []) in
  if files = [] then begin
    Printf.eprintf "sec_lint --selftest: no .ml fixtures under %s\n" dir;
    exit 2
  end;
  (* Fixtures are checked as if they lived in an algorithm directory,
     with summaries and typestate built over the whole fixture set so
     interprocedural fixtures exercise the call-site contexts and the
     rule 10-13 paths. *)
  let scope = { L.check_discipline = true; allow_obj = false } in
  let _env, _ts, diagnostics = Typestate.check_corpus ~scope files in
  let failures = ref 0 in
  let expected_total = ref 0 in
  List.iter
    (fun file ->
      let expected = expectations_of_file file in
      expected_total := !expected_total + List.length expected;
      let got =
        List.filter_map
          (fun (d : L.diagnostic) ->
            if d.file = file then Some (d.line, d.rule) else None)
          diagnostics
      in
      List.iter
        (fun (line, rule) ->
          if not (List.mem (line, rule) got) then begin
            incr failures;
            Printf.printf "MISSING  %s:%d: expected [%s], lint was silent\n"
              file line rule
          end)
        expected;
      List.iter
        (fun (line, rule) ->
          if not (List.mem (line, rule) expected) then begin
            incr failures;
            Printf.printf
              "SPURIOUS %s:%d: lint reported [%s], no EXPECT marker\n" file
              line rule
          end)
        got)
    files;
  if !expected_total <> pinned_expect_total then begin
    incr failures;
    Printf.printf
      "PIN      corpus has %d EXPECT markers, pinned total is %d — update \
       pinned_expect_total in bin/sec_lint.ml if the change is deliberate\n"
      !expected_total pinned_expect_total
  end;
  if !failures = 0 then begin
    Printf.printf "sec_lint --selftest: %d fixtures, %d expectations, all ok\n"
      (List.length files) !expected_total;
    exit 0
  end
  else begin
    Printf.eprintf "sec_lint --selftest: %d mismatch(es)\n" !failures;
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let output =
    if List.mem "--sarif" args then Sarif
    else if List.mem "--json" args then Json
    else Text
  in
  let audit_mode = List.mem "--audit" args in
  let args =
    List.filter
      (fun a -> a <> "--json" && a <> "--sarif" && a <> "--audit")
      args
  in
  let usage () =
    prerr_endline
      "usage: sec_lint [--json|--sarif] <file-or-directory>...\n\
      \       sec_lint --audit <file-or-directory>...\n\
      \       sec_lint --selftest <dir>\n\
      \       sec_lint --explain <rule>";
    exit 2
  in
  match args with
  | [] | [ "--selftest" ] | [ "--explain" ] -> usage ()
  | [ "--selftest"; dir ] -> selftest dir
  | [ "--explain"; rule ] -> explain rule
  | args ->
      let files = List.concat_map (fun p -> List.rev (gather p [])) args in
      if audit_mode then audit files else lint ~output files
