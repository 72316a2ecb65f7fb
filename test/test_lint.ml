(* Tests for the discipline lint: each rule class must fire on a seeded
   fixture at an exact file:line, accept the documented annotations, and
   stay silent outside its scope. *)

module L = Sec_lint_rules.Lint_rules

let discipline_scope = { L.check_discipline = true; allow_obj = false }

let check ?(scope = discipline_scope) src =
  L.check_string ~scope ~filename:"fixture.ml" src

let rules ds = List.map (fun d -> d.L.rule) ds

(* The corpus entry point [sec_lint] runs (summaries, typestate and the
   per-file rules together), over one in-memory file. *)
let corpus src =
  let _, _, ds =
    Sec_typestate.Typestate.check_sources ~scope:discipline_scope
      [ ("fixture.ml", src) ]
  in
  ds

(* -------------------------------------------------------------------- *)
(* mutable-field *)

let test_mutable_field_fires () =
  let src = "type t = {\n  value : int;\n  mutable next : t option;\n}\n" in
  match check src with
  | [ d ] ->
      Alcotest.(check string) "rule" "mutable-field" d.L.rule;
      Alcotest.(check string) "file" "fixture.ml" d.L.file;
      Alcotest.(check int) "line of the mutable field" 3 d.L.line;
      Alcotest.(check bool) "message names the field" true
        (String.length d.L.message > 0)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_plain_ok_accepted () =
  let src =
    "type t = {\n\
    \  value : int;\n\
    \  mutable next : t option;\n\
    \      [@plain_ok \"published by the combiner's release CAS\"]\n\
     }\n"
  in
  Alcotest.(check int) "annotated field is clean" 0 (List.length (check src))

let test_empty_plain_ok_rejected () =
  (* The annotation must carry an argument — a bare tag is not a
     publication argument. *)
  let src = "type t = { mutable next : t option [@plain_ok \"\"] }\n" in
  Alcotest.(check (list string)) "empty reason still fires"
    [ "mutable-field" ] (rules (check src))

(* -------------------------------------------------------------------- *)
(* unpadded-atomic *)

let test_unpadded_atomic_in_record_fires () =
  let src =
    "let create () = {\n\
    \  top = A.make None;\n\
    \  count = A.make_padded 0;\n\
     }\n"
  in
  match check src with
  | [ d ] ->
      Alcotest.(check string) "rule" "unpadded-atomic" d.L.rule;
      Alcotest.(check int) "line of the unpadded make" 2 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_unpadded_atomic_in_array_fires () =
  let src = "let slots n = Array.init n (fun _ -> Atomic.make None)\n" in
  Alcotest.(check (list string)) "array-builder counts as shared"
    [ "unpadded-atomic" ] (rules (check src))

let test_unpadded_ok_accepted () =
  let src =
    "let node v = {\n\
    \  ts = (A.make v [@unpadded_ok \"written once, then read-only\"]);\n\
     }\n"
  in
  Alcotest.(check int) "annotated make is clean" 0 (List.length (check src))

let test_local_atomic_not_flagged () =
  (* An atomic that is not stored into a record or array is not a
     long-lived shared block. *)
  let src = "let f () = let c = A.make 0 in A.get c\n" in
  Alcotest.(check int) "local make is clean" 0 (List.length (check src))

(* -------------------------------------------------------------------- *)
(* obj-confinement *)

let test_obj_use_fires () =
  let src = "let f x = Obj.magic x\n" in
  match check src with
  | [ d ] -> Alcotest.(check string) "rule" "obj-confinement" d.L.rule
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_obj_allowed_in_padding () =
  let scope = { L.check_discipline = false; allow_obj = true } in
  let src = "let f x = Obj.magic x\n" in
  Alcotest.(check int) "padding.ml scope is exempt" 0
    (List.length (check ~scope src))

(* -------------------------------------------------------------------- *)
(* ebr-guard / retire-once (the static prong of the reclamation layer) *)

(* A minimal EBR module shape: the rules only arm when the source
   references [Ebr] and declares a [*node*] record. *)
let ebr_prelude =
  "module E = Ebr.Make (P)\n\
   type 'a node = { value : 'a; next : 'a node option A.t }\n\
   type 'a t = { top : 'a node option A.t; ebr : E.t }\n"

let test_ebr_guard_fires () =
  let src =
    ebr_prelude
    ^ "let peek t = match A.get t.top with\n\
      \  | None -> None\n\
      \  | Some n -> Some n.value\n"
  in
  match corpus src with
  | [ d ] ->
      Alcotest.(check string) "rule" "ebr-guard" d.L.rule;
      Alcotest.(check int) "line of the naked deref" 6 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_ebr_guard_extent_clean () =
  let src =
    ebr_prelude
    ^ "let peek t ~tid = E.guard t.ebr ~tid (fun () ->\n\
      \  match A.get t.top with None -> None | Some n -> Some n.value)\n"
  in
  Alcotest.(check int) "deref inside the guard extent is clean" 0
    (List.length (corpus src))

let test_unguarded_ok_covers_subtree () =
  (* One annotation on a helper body covers every deref inside it. *)
  let src =
    ebr_prelude
    ^ "let rec youngest n =\n\
      \  (match n with\n\
      \  | None -> None\n\
      \  | Some n -> youngest (A.get n.next))\n\
      \  [@unguarded_ok \"callers hold the guard\"]\n"
  in
  Alcotest.(check int) "annotated helper is clean" 0 (List.length (corpus src))

let test_empty_unguarded_ok_rejected () =
  let src =
    ebr_prelude ^ "let value_of n = n.value [@unguarded_ok \"\"]\n"
  in
  Alcotest.(check (list string)) "empty reason still fires" [ "ebr-guard" ]
    (rules (corpus src))

let test_ebr_rules_need_ebr_reference () =
  (* Same deref shapes, but the module never references Ebr: the node
     lives forever under the GC and the rules must stay silent. *)
  let src =
    "type 'a node = { value : 'a; next : 'a node option A.t }\n\
     type 'a t = { top : 'a node option A.t }\n\
     let peek t = match A.get t.top with\n\
    \  | None -> None\n\
    \  | Some n -> Some n.value\n"
  in
  Alcotest.(check int) "no Ebr reference: rules disarmed" 0
    (List.length (corpus src))

let test_retire_once_fires () =
  let src =
    ebr_prelude
    ^ "let drop t ~tid n = E.guard t.ebr ~tid (fun () ->\n\
      \  ignore (A.compare_and_set t.top (Some n) None);\n\
      \  E.retire t.ebr ~tid (fun () -> ()))\n"
  in
  Alcotest.(check (list string)) "ungated retire fires" [ "retire-once" ]
    (rules (corpus src))

let test_retire_gated_by_cas_clean () =
  let src =
    ebr_prelude
    ^ "let drop t ~tid n = E.guard t.ebr ~tid (fun () ->\n\
      \  if A.compare_and_set t.top (Some n) None then\n\
      \    E.retire t.ebr ~tid (fun () -> ()))\n"
  in
  Alcotest.(check int) "CAS-gated retire is clean" 0
    (List.length (corpus src))

let test_retire_ok_accepted () =
  let src =
    ebr_prelude
    ^ "let drop t ~tid = E.guard t.ebr ~tid (fun () ->\n\
      \  (E.retire t.ebr ~tid (fun () -> ())\n\
      \   [@retire_ok \"owner-only unlink\"]))\n"
  in
  Alcotest.(check int) "annotated retire is clean" 0
    (List.length (corpus src))

(* -------------------------------------------------------------------- *)
(* retry-discipline (the static prong of the progress layer) *)

let test_while_on_atomic_fires () =
  let src = "let wait f = while not (A.get f) do () done\n" in
  match corpus src with
  | [ d ] ->
      Alcotest.(check string) "rule" "retry-discipline" d.L.rule;
      Alcotest.(check int) "line of the while" 1 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_bare_cas_loop_fires () =
  let src =
    "let bump c =\n\
    \  let rec attempt () =\n\
    \    let cur = A.get c in\n\
    \    if not (A.compare_and_set c cur (cur + 1)) then attempt ()\n\
    \  in\n\
    \  attempt ()\n"
  in
  (match corpus src with
  | [ d ] ->
      Alcotest.(check string) "rule" "retry-discipline" d.L.rule;
      Alcotest.(check int) "line of the rec binding" 2 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  (* Same shape at structure level. *)
  let src =
    "let rec spin c = if not (A.compare_and_set c 0 1) then spin c\n"
  in
  Alcotest.(check (list string)) "top-level rec loop fires"
    [ "retry-discipline" ] (rules (corpus src))

let test_paced_loops_clean () =
  let src =
    "let wait f = while not (A.get f) do P.relax 8 done\n\
     let bump c =\n\
    \  let backoff = Backoff.create () in\n\
    \  let rec attempt () =\n\
    \    let cur = A.get c in\n\
    \    if not (A.compare_and_set c cur (cur + 1)) then begin\n\
    \      Backoff.once backoff;\n\
    \      attempt ()\n\
    \    end\n\
    \  in\n\
    \  attempt ()\n"
  in
  Alcotest.(check int) "paced loops are clean" 0 (List.length (corpus src))

let test_await_ok_accepted () =
  let src =
    "let take c =\n\
    \  let rec attempt () =\n\
    \    (if not (A.compare_and_set c 0 1) then attempt ())\n\
    \    [@await_ok \"two parties alternate\"]\n\
    \  in\n\
    \  attempt ()\n"
  in
  Alcotest.(check int) "annotated loop is clean" 0 (List.length (corpus src))

let test_empty_await_ok_rejected () =
  let src =
    "let wait f = (while not (A.get f) do () done) [@await_ok \"\"]\n"
  in
  Alcotest.(check (list string)) "empty reason still fires"
    [ "retry-discipline" ] (rules (corpus src))

let test_non_shared_loop_clean () =
  (* A recursive loop with no atomic RMW inside is not a retry loop. *)
  let src = "let rec length = function [] -> 0 | _ :: t -> 1 + length t\n" in
  Alcotest.(check int) "pure recursion is clean" 0 (List.length (corpus src))

(* -------------------------------------------------------------------- *)
(* progress-class *)

let test_missing_declaration_fires () =
  let src =
    "[@@@spec \"stack\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t = ignore t; None\n"
  in
  match check src with
  | [ d ] ->
      Alcotest.(check string) "rule" "progress-class" d.L.rule;
      Alcotest.(check int) "anchored at the later binding" 3 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_declared_module_clean () =
  let src =
    "[@@@progress \"blocking\"]\n\
     [@@@spec \"stack\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t = ignore t; None\n"
  in
  Alcotest.(check int) "declared module is clean" 0 (List.length (check src))

let test_invalid_payload_fires () =
  let src =
    "[@@@progress \"wait_free\"]\n\
     [@@@spec \"stack\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t = ignore t; None\n"
  in
  Alcotest.(check (list string)) "unknown class rejected"
    [ "progress-class" ] (rules (check src))

let test_lock_free_spin_fires () =
  let src =
    "[@@@progress \"lock_free\"]\n\
     [@@@spec \"stack\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t = Backoff.spin_until (fun () -> A.get t.done_); None\n"
  in
  Alcotest.(check (list (pair int string)))
    "rule 12 contradicts the declaration"
    [ (1, "loop-progress") ]
    (List.map (fun d -> (d.L.line, d.L.rule)) (corpus src))

let test_lock_free_spin_await_ok_accepted () =
  let src =
    "[@@@progress \"lock_free\"]\n\
     [@@@spec \"stack\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t =\n\
    \  (Backoff.spin_until (fun () -> A.get t.done_)\n\
    \   [@await_ok \"publisher finishes in a bounded number of steps\"]);\n\
    \  None\n"
  in
  Alcotest.(check int) "annotated spin in lock_free module is clean" 0
    (List.length (corpus src))

let test_half_interface_needs_no_declaration () =
  (* Binding push alone (a helper module, say) is not a stack. *)
  let src = "let push t v = ignore (t, v)\n" in
  Alcotest.(check int) "push without pop: no declaration needed" 0
    (List.length (check src))

(* -------------------------------------------------------------------- *)
(* spec-class *)

let test_spec_missing_declaration_fires () =
  let src =
    "[@@@progress \"blocking\"]\n\
     let pop t = ignore t; None\n\
     let push t v = ignore (t, v)\n"
  in
  match check src with
  | [ d ] ->
      Alcotest.(check string) "rule" "spec-class" d.L.rule;
      Alcotest.(check int) "anchored at the later binding" 3 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_spec_stack_declared_clean () =
  let src =
    "[@@@progress \"blocking\"]\n\
     [@@@spec \"stack\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t = ignore t; None\n"
  in
  Alcotest.(check int) "declared stack module is clean" 0
    (List.length (check src))

let test_spec_pool_declared_clean () =
  let src =
    "[@@@progress \"blocking\"]\n\
     [@@@spec \"pool\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t = ignore t; None\n"
  in
  Alcotest.(check int) "declared pool module is clean" 0
    (List.length (check src))

let test_spec_invalid_payload_fires () =
  let src =
    "[@@@progress \"blocking\"]\n\
     [@@@spec \"queue\"]\n\
     let push t v = ignore (t, v)\n\
     let pop t = ignore t; None\n"
  in
  match check src with
  | [ d ] ->
      Alcotest.(check string) "rule" "spec-class" d.L.rule;
      Alcotest.(check int) "line of the bad declaration" 2 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_spec_bare_attribute_fires () =
  let src =
    "[@@@progress \"blocking\"]\n\
     [@@@spec]\n\
     let push t v = ignore (t, v)\n\
     let pop t = ignore t; None\n"
  in
  Alcotest.(check (list string)) "payload-less declaration rejected"
    [ "spec-class" ] (rules (check src))

let test_spec_half_interface_exempt () =
  let src = "let pop t = ignore t; None\n" in
  Alcotest.(check int) "pop without push: no declaration needed" 0
    (List.length (check src))

(* -------------------------------------------------------------------- *)
(* Scoping and the driver-facing surface *)

let test_scope_of_path () =
  let s = L.scope_of_path "lib/stacks/treiber.ml" in
  Alcotest.(check bool) "stacks: discipline on" true s.L.check_discipline;
  Alcotest.(check bool) "stacks: no Obj" false s.L.allow_obj;
  let s = L.scope_of_path "lib/sim/sim.ml" in
  Alcotest.(check bool) "sim: discipline off" false s.L.check_discipline;
  let s = L.scope_of_path "lib/prim/padding.ml" in
  Alcotest.(check bool) "padding.ml: Obj allowed" true s.L.allow_obj

let test_out_of_scope_mutable_clean () =
  let scope = { L.check_discipline = false; allow_obj = false } in
  let src = "type t = { mutable n : int }\n" in
  Alcotest.(check int) "non-algorithm module: mutable ok" 0
    (List.length (check ~scope src))

let test_parse_error_is_a_diagnostic () =
  match check "let let let\n" with
  | [ d ] -> Alcotest.(check string) "rule" "parse-error" d.L.rule
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_clean_fixture () =
  let src =
    "type t = { top : int A.t }\n\
     let create () = { top = A.make_padded 0 }\n\
     let bump t = A.incr t.top\n"
  in
  Alcotest.(check int) "idiomatic module is clean" 0 (List.length (check src))

(* The real tree must be clean: run the same corpus check the @lint
   alias runs (summaries and typestate included — several annotations
   were deleted because the analyses discharge them) and inspect a few
   load-bearing files. *)
(* The summary environment must cover the whole library, exactly as the
   @lint alias runs it: signature constraints (e.g. [Stack_intf.S])
   resolve through other files, and an unresolved constraint makes
   every binding an entry point, re-arming helper obligations. *)
let rec gather path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc e -> gather (Filename.concat path e) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let test_repo_files_clean () =
  if Sys.file_exists "../lib" then begin
    let _, _, diagnostics =
      Sec_typestate.Typestate.check_corpus (gather "../lib" [])
    in
    List.iter
      (fun path ->
        match List.filter (fun d -> d.L.file = path) diagnostics with
        | [] -> ()
        | ds ->
            Alcotest.failf "%s: %s" path
              (String.concat "; " (List.map L.diagnostic_to_string ds)))
      [
        "../lib/core/batch.ml";
        "../lib/core/sec_stack.ml";
        "../lib/core/sec_pool.ml";
        "../lib/stacks/ccsynch.ml";
        "../lib/stacks/exchanger.ml";
        "../lib/stacks/eb_stack.ml";
        "../lib/reclaim/ebr.ml";
        "../lib/reclaim/ts_stack_ebr.ml";
      ]
  end

(* check_string and check_file share one location pipeline: linting the
   same bytes from memory and from disk must produce identical
   diagnostics, columns included (multi-line annotations used to
   disagree). *)
let test_check_string_file_agree () =
  let path = "../lib/stacks/ts_stack.ml" in
  if Sys.file_exists path then begin
    let src = L.read_file path in
    let of_file = L.check_file path in
    let of_string = L.check_string ~filename:path src in
    Alcotest.(check (list string)) "identical diagnostics"
      (List.map L.diagnostic_to_string of_file)
      (List.map L.diagnostic_to_string of_string)
  end

(* -------------------------------------------------------------------- *)
(* Audit: live and stale annotations *)

(* The audit [sec_lint --audit] runs, over one in-memory file. *)
let audit src =
  let _, ts, _ =
    Sec_typestate.Typestate.check_sources ~scope:discipline_scope
      [ ("fixture.ml", src) ]
  in
  List.map snd (Sec_typestate.Typestate.audit ts)

let test_audit_live_annotation () =
  (* Removing the annotation would add an ebr-guard diagnostic, so it is
     live. *)
  let src =
    ebr_prelude ^ "let value_of n = n.value [@unguarded_ok \"callers guard\"]\n"
  in
  match audit src with
  | [ e ] ->
      Alcotest.(check string) "name" "unguarded_ok"
        e.L.audit_annotation.L.ann_name;
      Alcotest.(check bool) "live" true e.L.audit_live
  | es -> Alcotest.failf "expected one audit entry, got %d" (List.length es)

let test_audit_stale_annotation () =
  (* The annotated expression never fires any rule: removal changes
     nothing, so the annotation is stale. *)
  let src = "let f () = (0 [@await_ok \"pointless\"])\n" in
  match audit src with
  | [ e ] ->
      Alcotest.(check string) "name" "await_ok"
        e.L.audit_annotation.L.ann_name;
      Alcotest.(check bool) "stale" false e.L.audit_live
  | es -> Alcotest.failf "expected one audit entry, got %d" (List.length es)

let test_audit_facts_make_annotation_stale () =
  (* A loop paced only through a helper: syntactically the [@await_ok]
     looks load-bearing, interprocedurally it is redundant — the
     summary's pacing effect makes the annotation stale. *)
  let src =
    "module A = Atomic\n\
     let settle () = Prim.relax 8\n\
     let wait f = (while not (A.get f) do settle () done) [@await_ok \"x\"]\n"
  in
  match audit src with
  | [ e ] -> Alcotest.(check bool) "stale with facts" false e.L.audit_live
  | es -> Alcotest.failf "expected one audit entry, got %d" (List.length es)

(* The audit must agree with its definition, delete-and-relint: an
   annotation is live iff the corpus diagnostics change once that one
   attribute is gone. The oracle blanks the attribute's source span
   (found by [Ast_iterator]), which removes it from the parsetree and
   leaves every other location unchanged, then relints the corpus. *)
let strip src (ann : L.annotation) =
  match L.parse_string ~file:"strip.ml" src with
  | Error _ -> Alcotest.fail "strip: source does not parse"
  | Ok structure -> (
      let span = ref None in
      let it =
        {
          Ast_iterator.default_iterator with
          attribute =
            (fun it a ->
              if L.pos_of a.attr_name.loc = (ann.ann_line, ann.ann_col) then
                span := Some a.attr_loc;
              Ast_iterator.default_iterator.attribute it a);
        }
      in
      it.structure it structure;
      match !span with
      | None -> Alcotest.failf "strip: no [@%s] at %d:%d" ann.ann_name
                  ann.ann_line ann.ann_col
      | Some loc ->
          let b = Bytes.of_string src in
          for i = loc.loc_start.pos_cnum to loc.loc_end.pos_cnum - 1 do
            if Bytes.get b i <> '\n' then Bytes.set b i ' '
          done;
          Bytes.to_string b)

(* The annotations whose audit verdict disagrees with delete-and-relint
   over the corpus [sources]. *)
let oracle_disagreements sources =
  let relint sources =
    let _, _, ds =
      Sec_typestate.Typestate.check_sources ~scope:discipline_scope sources
    in
    ds
  in
  let base = relint sources in
  let _, ts, _ =
    Sec_typestate.Typestate.check_sources ~scope:discipline_scope sources
  in
  List.filter_map
    (fun (file, (e : L.audit_entry)) ->
      let ann = e.audit_annotation in
      let stripped =
        List.map
          (fun (f, src) -> (f, if f = file then strip src ann else src))
          sources
      in
      let deleting_changes = relint stripped <> base in
      if deleting_changes = e.audit_live then None
      else
        Some
          (Printf.sprintf "%s:%d:%d [@%s] audits %s" file ann.ann_line
             ann.ann_col ann.ann_name
             (if e.audit_live then "live" else "stale")))
    (Sec_typestate.Typestate.audit ts)

(* Each annotation sits on the only call of a helper the signature
   hides, so it covers the helper's sites through the call-site
   context; the last suppresses nothing (a plain store with no prior
   read). *)
let oracle_shapes =
  [
    ( "retire.ml",
      {|module A = Atomic
module E = Ebr.Make (P)
module type S = sig
  type 'a t
  val drop : 'a t -> tid:int -> unit
end
module Make () : S = struct
  type 'a node = { value : 'a }
  type 'a t = { top : 'a node option A.t; ebr : E.t }
  let release t ~tid = E.retire t.ebr ~tid (fun () -> ())
  let drop t ~tid = (release t ~tid [@retire_ok "owner-only unlink"])
end
|} );
    ( "unguarded.ml",
      {|module A = Atomic
module E = Ebr.Make (P)
module type S = sig
  type 'a t
  val peek : 'a t -> 'a option
end
module Make () : S = struct
  type 'a node = { value : 'a; next : 'a node option A.t }
  type 'a t = { top : 'a node option A.t; ebr : E.t }
  let value_of n = n.value
  let peek t =
    match A.get t.top with
    | None -> None
    | Some n -> (Some (value_of n) [@unguarded_ok "callers hold the guard"])
end
|} );
    ( "fresh.ml",
      {|module A = Atomic
module Mag = Magazine.Make (P)
module type S = sig
  type 'a t
  val push : 'a t -> 'a -> unit
end
module Make () : S = struct
  type 'a node = { value : 'a; next : 'a node option }
  type 'a t = { top : 'a node option A.t }
  let mk v = { value = v; next = None }
  let push t v = A.set t.top (Some (mk v [@fresh_ok "magazine miss"]))
end
|} );
    ( "publication.ml",
      {|module A = Atomic
type t = { hits : int A.t }
let reset t = (A.set t.hits 0 [@publication_ok "single writer"])
|} );
  ]

let fixture_dir =
  List.find_opt Sys.file_exists [ "lint_fixtures"; "test/lint_fixtures" ]

let test_audit_matches_delete_and_relint () =
  (match fixture_dir with
  | None -> Alcotest.fail "lint_fixtures not found"
  | Some dir ->
      let sources =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".ml")
        |> List.sort compare
        |> List.map (fun f ->
               let path = Filename.concat dir f in
               (path, L.read_file path))
      in
      Alcotest.(check (list string)) "fixture corpus" []
        (oracle_disagreements sources));
  Alcotest.(check (list string)) "hidden-helper shapes" []
    (List.concat_map (fun source -> oracle_disagreements [ source ])
       oracle_shapes)

(* -------------------------------------------------------------------- *)
(* SARIF output shape *)

module J = Sec_harness.Bench_json

let test_sarif_shape () =
  let ds =
    [
      {
        L.file = "lib/stacks/x.ml";
        line = 3;
        col = 5;
        rule = "ebr-guard";
        message = "naked deref of \"n\"";
      };
      {
        L.file = "lib/stacks/y.ml";
        line = 7;
        col = 0;
        rule = "plain-publication";
        message = "lost update";
      };
    ]
  in
  let doc = J.parse (L.sarif_of_diagnostics ds) in
  Alcotest.(check string) "version" "2.1.0" J.(to_str (member "version" doc));
  let run =
    match J.member "runs" doc with
    | J.Arr [ r ] -> r
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let driver = J.(member "driver" (member "tool" run)) in
  Alcotest.(check string) "tool name" "sec_lint"
    J.(to_str (member "name" driver));
  (match J.member "rules" driver with
  | J.Arr rules ->
      Alcotest.(check (list string)) "rule ids, sorted and unique"
        [ "ebr-guard"; "plain-publication" ]
        (List.map (fun r -> J.(to_str (member "id" r))) rules)
  | _ -> Alcotest.fail "expected a rules array");
  match J.member "results" run with
  | J.Arr [ r1; _ ] ->
      Alcotest.(check string) "ruleId" "ebr-guard"
        J.(to_str (member "ruleId" r1));
      Alcotest.(check string) "level" "error" J.(to_str (member "level" r1));
      Alcotest.(check string) "message text" "naked deref of \"n\""
        J.(to_str (member "text" (member "message" r1)));
      let phys =
        match J.member "locations" r1 with
        | J.Arr [ l ] -> J.member "physicalLocation" l
        | _ -> Alcotest.fail "expected one location"
      in
      Alcotest.(check string) "uri" "lib/stacks/x.ml"
        J.(to_str (member "uri" (member "artifactLocation" phys)));
      let region = J.member "region" phys in
      Alcotest.(check int) "startLine" 3 J.(to_int (member "startLine" region));
      Alcotest.(check int) "startColumn" 6
        J.(to_int (member "startColumn" region))
  | _ -> Alcotest.fail "expected two results"

let () =
  Alcotest.run "lint"
    [
      ( "mutable-field",
        [
          Alcotest.test_case "fires with file:line" `Quick
            test_mutable_field_fires;
          Alcotest.test_case "plain_ok accepted" `Quick test_plain_ok_accepted;
          Alcotest.test_case "empty reason rejected" `Quick
            test_empty_plain_ok_rejected;
        ] );
      ( "unpadded-atomic",
        [
          Alcotest.test_case "record literal" `Quick
            test_unpadded_atomic_in_record_fires;
          Alcotest.test_case "array builder" `Quick
            test_unpadded_atomic_in_array_fires;
          Alcotest.test_case "unpadded_ok accepted" `Quick
            test_unpadded_ok_accepted;
          Alcotest.test_case "local atomic ok" `Quick
            test_local_atomic_not_flagged;
        ] );
      ( "obj-confinement",
        [
          Alcotest.test_case "fires" `Quick test_obj_use_fires;
          Alcotest.test_case "padding.ml exempt" `Quick
            test_obj_allowed_in_padding;
        ] );
      ( "ebr-guard",
        [
          Alcotest.test_case "naked deref fires" `Quick test_ebr_guard_fires;
          Alcotest.test_case "guard extent clean" `Quick
            test_ebr_guard_extent_clean;
          Alcotest.test_case "unguarded_ok covers subtree" `Quick
            test_unguarded_ok_covers_subtree;
          Alcotest.test_case "empty reason rejected" `Quick
            test_empty_unguarded_ok_rejected;
          Alcotest.test_case "needs an Ebr reference" `Quick
            test_ebr_rules_need_ebr_reference;
        ] );
      ( "retire-once",
        [
          Alcotest.test_case "ungated retire fires" `Quick
            test_retire_once_fires;
          Alcotest.test_case "CAS-gated retire clean" `Quick
            test_retire_gated_by_cas_clean;
          Alcotest.test_case "retire_ok accepted" `Quick
            test_retire_ok_accepted;
        ] );
      ( "retry-discipline",
        [
          Alcotest.test_case "while on atomic fires" `Quick
            test_while_on_atomic_fires;
          Alcotest.test_case "bare CAS loop fires" `Quick
            test_bare_cas_loop_fires;
          Alcotest.test_case "paced loops clean" `Quick test_paced_loops_clean;
          Alcotest.test_case "await_ok accepted" `Quick test_await_ok_accepted;
          Alcotest.test_case "empty reason rejected" `Quick
            test_empty_await_ok_rejected;
          Alcotest.test_case "pure recursion clean" `Quick
            test_non_shared_loop_clean;
        ] );
      ( "progress-class",
        [
          Alcotest.test_case "missing declaration fires" `Quick
            test_missing_declaration_fires;
          Alcotest.test_case "declared module clean" `Quick
            test_declared_module_clean;
          Alcotest.test_case "invalid payload rejected" `Quick
            test_invalid_payload_fires;
          Alcotest.test_case "lock_free spin fires" `Quick
            test_lock_free_spin_fires;
          Alcotest.test_case "lock_free spin under await_ok" `Quick
            test_lock_free_spin_await_ok_accepted;
          Alcotest.test_case "half interface exempt" `Quick
            test_half_interface_needs_no_declaration;
        ] );
      ( "spec-class",
        [
          Alcotest.test_case "missing declaration fires" `Quick
            test_spec_missing_declaration_fires;
          Alcotest.test_case "declared stack clean" `Quick
            test_spec_stack_declared_clean;
          Alcotest.test_case "declared pool clean" `Quick
            test_spec_pool_declared_clean;
          Alcotest.test_case "invalid payload rejected" `Quick
            test_spec_invalid_payload_fires;
          Alcotest.test_case "payload-less declaration rejected" `Quick
            test_spec_bare_attribute_fires;
          Alcotest.test_case "half interface exempt" `Quick
            test_spec_half_interface_exempt;
        ] );
      ( "scope",
        [
          Alcotest.test_case "scope_of_path" `Quick test_scope_of_path;
          Alcotest.test_case "out of scope mutable" `Quick
            test_out_of_scope_mutable_clean;
          Alcotest.test_case "parse error reported" `Quick
            test_parse_error_is_a_diagnostic;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "repo files clean" `Quick test_repo_files_clean;
          Alcotest.test_case "check_string agrees with check_file" `Quick
            test_check_string_file_agree;
        ] );
      ( "audit",
        [
          Alcotest.test_case "live annotation" `Quick
            test_audit_live_annotation;
          Alcotest.test_case "stale annotation" `Quick
            test_audit_stale_annotation;
          Alcotest.test_case "facts flip liveness" `Quick
            test_audit_facts_make_annotation_stale;
          Alcotest.test_case "matches delete-and-relint" `Quick
            test_audit_matches_delete_and_relint;
        ] );
      ( "sarif",
        [ Alcotest.test_case "document shape" `Quick test_sarif_shape ] );
    ]
