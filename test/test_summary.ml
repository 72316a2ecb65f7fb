(* Tests for the interprocedural atomic-effect summaries
   (lib/analysis/summary): fixpoint convergence on call cycles, the
   context fixpoint discharging lint obligations across calls, rule 10
   (plain-publication) in both its intra- and interprocedural forms,
   pacing through a helper on the seeded fixtures, and the
   cross-validation of the static may-write set
   against the dynamic race detector on the mutant corpus. *)

module L = Sec_lint_rules.Lint_rules
module Summary = Sec_summary.Summary
module Explore = Sec_sim.Explore
module RD = Sec_analysis.Race_detector
module SP = Sec_sim.Sim.Prim
module Registry = Sec_harness.Registry

let discipline_scope = { L.check_discipline = true; allow_obj = false }

let analyze srcs =
  let env, _, _ =
    Sec_typestate.Typestate.check_sources ~scope:discipline_scope srcs
  in
  env

(* Find the unique function key with the given suffix, so the tests do
   not hard-code the namespace mangling. *)
let key_of env suffix =
  match
    List.filter
      (fun k -> Filename.check_suffix k suffix)
      (Summary.functions env)
  with
  | [ k ] -> k
  | [] -> Alcotest.failf "no function key ends in %S" suffix
  | ks -> Alcotest.failf "ambiguous suffix %S: %s" suffix (String.concat ", " ks)

let rules ds = List.map (fun (d : L.diagnostic) -> d.L.rule) ds

(* The corpus entry point [sec_lint] runs: summaries, typestate and the
   per-file rules together. *)
let corpus srcs =
  let _, _, ds =
    Sec_typestate.Typestate.check_sources ~scope:discipline_scope srcs
  in
  ds

(* -------------------------------------------------------------------- *)
(* Effect fixpoint on call cycles *)

(* Mutual recursion: the pacing effect in [g] must reach [f] (and vice
   versa for the atomic read), which takes at least two bottom-up
   rounds plus the stabilisation check. *)
let test_cycle_effects_converge () =
  let src =
    "module A = Atomic\n\
     type t = { flag : bool A.t }\n\
     let rec f t n = if n = 0 then () else g t (n - 1)\n\
     and g t n =\n\
    \  Prim.relax 1;\n\
    \  if A.get t.flag then f t n\n"
  in
  let env = analyze [ ("cycle.ml", src) ] in
  let f = Summary.total_effects env (key_of env ".f") in
  let g = Summary.total_effects env (key_of env ".g") in
  Alcotest.(check bool) "f paces through g" true f.Summary.paces;
  Alcotest.(check bool) "g paces directly" true g.Summary.paces;
  Alcotest.(check bool) "f reads flag through g" true
    (Summary.String_set.exists
       (fun c -> Filename.check_suffix c "flag")
       f.Summary.reads);
  Alcotest.(check bool) "cycle needs >= 2 rounds" true
    (Summary.effect_rounds env >= 2)

(* A self-recursive function must not loop the fixpoint. *)
let test_self_recursion_terminates () =
  let src =
    "module A = Atomic\n\
     let rec spin c = if A.get c then () else spin c\n"
  in
  let env = analyze [ ("self.ml", src) ] in
  let spin = Summary.total_effects env (key_of env ".spin") in
  Alcotest.(check bool) "reads recorded" true
    (not (Summary.String_set.is_empty spin.Summary.reads));
  Alcotest.(check bool) "no pacing invented" false spin.Summary.paces

(* -------------------------------------------------------------------- *)
(* Context fixpoint: obligations discharged at every call site *)

let guard_src =
  "module A = Atomic\n\
   module E = Ebr.Make (P)\n\
   module type S = sig\n\
  \  type 'a t\n\
  \  val peek : 'a t -> tid:int -> 'a option\n\
   end\n\
   module Make () : S = struct\n\
  \  type 'a node = { value : 'a; next : 'a node option A.t }\n\
  \  type 'a t = { top : 'a node option A.t; ebr : E.t }\n\
  \  let rec scan n =\n\
  \    match n with\n\
  \    | None -> None\n\
  \    | Some n -> (\n\
  \        match A.get n.next with None -> Some n.value | tail -> scan tail)\n\
  \  let peek t ~tid = E.guard t.ebr ~tid (fun () -> scan (A.get t.top))\n\
   end\n"

let test_ctx_guarded_helper () =
  let env = analyze [ ("guard.ml", guard_src) ] in
  let scan = key_of env ".scan" in
  Alcotest.(check bool) "scan is context-guarded" true
    (Summary.ctx_guarded env scan);
  Alcotest.(check bool) "scan is not an entry point" false
    (Summary.String_set.mem scan (Summary.entries env));
  (* The corpus run must discharge the ebr-guard rule with it. *)
  Alcotest.(check (list string)) "facts discharge the helper derefs" []
    (rules (corpus [ ("guard.ml", guard_src) ]))

(* An exported helper (no signature constraint) keeps its obligation:
   any caller outside the library could run it unguarded. *)
let test_exported_helper_not_ctx_guarded () =
  let src =
    "module A = Atomic\n\
     module E = Ebr.Make (P)\n\
     type 'a node = { value : 'a; next : 'a node option A.t }\n\
     type 'a t = { top : 'a node option A.t; ebr : E.t }\n\
     let value_of n = n.value\n\
     let peek t ~tid = E.guard t.ebr ~tid (fun () ->\n\
    \  match A.get t.top with None -> None | Some n -> Some (value_of n))\n"
  in
  let env = analyze [ ("exported.ml", src) ] in
  Alcotest.(check bool) "exported helper stays obligated" false
    (Summary.ctx_guarded env (key_of env ".value_of"))

(* Rule 8 across calls: a node literal in a helper is discharged when
   every call site sits under [@fresh_ok] and the signature hides the
   helper; exported, any caller could reach the literal unannotated. *)
let fresh_src ~hidden =
  "module A = Atomic\n\
   module Mag = Magazine.Make (P)\n\
   module type S = sig\n\
  \  type 'a t\n\
  \  val push : 'a t -> 'a -> unit\n\
   end\n"
  ^ (if hidden then "module Make () : S = struct\n"
     else "module Make () = struct\n")
  ^ "  type 'a node = { value : 'a; next : 'a node option }\n\
    \  type 'a t = { top : 'a node option A.t }\n\
    \  let mk v = { value = v; next = None }\n\
    \  let push t v =\n\
    \    A.set t.top (Some (mk v [@fresh_ok \"magazine miss\"]))\n\
     end\n"

let test_ctx_fresh_helper () =
  Alcotest.(check (list string)) "hidden helper: literal discharged" []
    (rules (corpus [ ("fresh.ml", fresh_src ~hidden:true) ]));
  Alcotest.(check (list string)) "exported helper: literal flagged"
    [ "fresh-node" ]
    (rules (corpus [ ("fresh.ml", fresh_src ~hidden:false) ]))

(* -------------------------------------------------------------------- *)
(* Rule 10: plain-publication *)

let pub_diags srcs = Summary.diagnostics (analyze srcs)

let test_publication_direct_chain () =
  let src =
    "module A = Atomic\n\
     type t = { hits : int A.t }\n\
     let reset t = A.set t.hits 0\n\
     let bump t =\n\
    \  let n = A.get t.hits in\n\
    \  A.set t.hits (n + 1)\n"
  in
  match pub_diags [ ("pub.ml", src) ] with
  | [ d ] ->
      Alcotest.(check string) "rule" "plain-publication" d.L.rule;
      Alcotest.(check int) "anchored at the completing store" 6 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_publication_single_writer_clean () =
  (* Only one entry point ever writes the cell: its own update cannot
     be lost to a concurrent writer that does not exist. *)
  let src =
    "module A = Atomic\n\
     type t = { hits : int A.t }\n\
     let bump t =\n\
    \  let n = A.get t.hits in\n\
    \  A.set t.hits (n + 1)\n"
  in
  Alcotest.(check int) "single writer is clean" 0
    (List.length (pub_diags [ ("pub.ml", src) ]))

let test_publication_rmw_discharges () =
  let src =
    "module A = Atomic\n\
     type t = { hits : int A.t }\n\
     let reset t = A.set t.hits 0\n\
     let bump t =\n\
    \  let n = A.get t.hits in\n\
    \  let _ = A.fetch_and_add t.hits 1 in\n\
    \  if n > 10 then A.set t.hits 0\n"
  in
  Alcotest.(check int) "ordering RMW discharges the chain" 0
    (List.length (pub_diags [ ("pub.ml", src) ]))

let test_publication_annotation_suppresses () =
  let src =
    "module A = Atomic\n\
     type t = { hits : int A.t }\n\
     let reset t = A.set t.hits 0\n\
     let bump t =\n\
    \  let n = A.get t.hits in\n\
    \  A.set t.hits (n + 1) [@publication_ok \"advisory counter\"]\n"
  in
  Alcotest.(check int) "annotated store is suppressed" 0
    (List.length (pub_diags [ ("pub.ml", src) ]))

let interproc_pub_src =
  "module A = Atomic\n\
   type t = { mode : int A.t }\n\
   let clear t = A.set t.mode 0\n\
   let current t = A.get t.mode\n\
   let publish t m = A.set t.mode m\n\
   let widen t =\n\
  \  let m = current t in\n\
  \  publish t (m * 2)\n"

let test_publication_across_helpers () =
  (* The read lives in [current], the plain store in [publish]; the
     chain exists only in [widen], at the call completing it. *)
  (match pub_diags [ ("split.ml", interproc_pub_src) ] with
  | [ d ] ->
      Alcotest.(check string) "rule" "plain-publication" d.L.rule;
      Alcotest.(check int) "anchored at the completing call" 8 d.L.line
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  (* The syntactic lint alone sees nothing here — rule 10 only exists
     interprocedurally. *)
  Alcotest.(check bool) "syntactic lint misses the chain" false
    (List.mem "plain-publication"
       (rules
          (L.check_string ~scope:discipline_scope ~filename:"split.ml"
             interproc_pub_src)))

(* -------------------------------------------------------------------- *)
(* The seeded fixture's two loops paced through a helper are
   discharged by the summaries' pacing effect; the corpus run keeps
   exactly the two genuinely unpaced ones. *)

(* Tests run from the test directory under `dune runtest` and from the
   workspace root under `dune exec`; resolve either layout. *)
let resolve candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let spin_fixture =
  resolve
    [ "lint_fixtures/bad_interproc_spin.ml";
      "test/lint_fixtures/bad_interproc_spin.ml" ]

let test_fixture_differential () =
  if not (Sys.file_exists spin_fixture) then
    Alcotest.skip ()
  else begin
    let _, _, with_facts =
      Sec_typestate.Typestate.check_corpus ~scope:discipline_scope
        [ spin_fixture ]
    in
    Alcotest.(check (list int))
      "summary facts keep only the genuinely unpaced loops" [ 26; 43 ]
      (List.map (fun (d : L.diagnostic) -> d.L.line) with_facts)
  end

(* -------------------------------------------------------------------- *)
(* Cross-validation against the dynamic detector *)

let rec gather path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc e -> gather (Filename.concat path e) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* Normalise "../lib/stacks/fc.ml" (the analyzer's view from the test
   directory) to "lib/stacks/fc.ml" (the detector's backtrace view from
   the workspace root). *)
let normalize file =
  if String.length file > 3 && String.sub file 0 3 = "../" then
    String.sub file 3 (String.length file - 3)
  else file

let split_site site =
  match String.rindex_opt site ':' with
  | None -> None
  | Some i -> (
      let file = String.sub site 0 i in
      match
        int_of_string_opt
          (String.sub site (i + 1) (String.length site - i - 1))
      with
      | Some line -> Some (file, line)
      | None -> None)

let stack_scenario (module M : Registry.MAKER) () =
  let module St = M (SP) in
  let s = St.create ~max_threads:2 () in
  St.push s ~tid:0 100;
  let fiber slot () =
    St.push s ~tid:slot slot;
    ignore (St.pop s ~tid:slot)
  in
  ([ fiber 0; fiber 1 ], fun () -> true)

(* Every write-write race the dynamic detector attributes to library
   code on the seeded-mutant corpus must land on a site the static
   analysis considers a may-write — static soundness on this codebase.
   The detector plumbing itself is checked non-vacuously first, so an
   empty dynamic race set on the (discipline-respecting) mutants cannot
   silently pass a broken harness. *)
let test_dynamic_races_subset_of_static () =
  (* 1. Plumbing: a deliberate blind-store pair must be detected. *)
  let racy () =
    let c = SP.Atomic.make 0 in
    ([ (fun () -> SP.Atomic.set c 1); (fun () -> SP.Atomic.set c 2) ],
     fun () -> true)
  in
  let d = RD.create () in
  (match Explore.replay ~quantum:1 ~detector:d ~schedule:[] racy with
  | Explore.Ok_run true -> ()
  | _ -> Alcotest.fail "plumbing replay failed");
  Alcotest.(check bool) "plumbing: blind stores detected" true
    (RD.races d <> []);
  (* 2. The static may-write set over the library. *)
  let lib_dir = resolve [ "../lib"; "lib" ] in
  let env, _, _ = Sec_typestate.Typestate.check_corpus (gather lib_dir []) in
  let static =
    List.map
      (fun (file, line) -> (normalize file, line))
      (Summary.may_write_sites env)
  in
  Alcotest.(check bool) "static set covers the SEC core" true
    (List.exists
       (fun (f, _) -> Filename.basename f = "sec_stack.ml")
       static);
  (* 3. Sweep the mutants under pinned preemptions, collecting races. *)
  let races = ref [] in
  List.iter
    (fun entry ->
      let scenario = stack_scenario entry.Registry.maker in
      let schedules =
        [] :: List.concat_map
                (fun step ->
                  [ [ { Explore.step; fiber = 0 } ];
                    [ { Explore.step; fiber = 1 } ] ])
                [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 ]
      in
      List.iter
        (fun schedule ->
          let d = RD.create () in
          match Explore.replay ~quantum:3 ~detector:d ~schedule scenario with
          | Explore.Ok_run _ -> races := RD.races d @ !races
          | Explore.Raised m -> Alcotest.failf "mutant replay raised: %s" m
          | Explore.Livelocked -> ())
        schedules)
    Registry.mutants;
  (* 4. Subset check: each race site attributed to lib/ is statically
     known as a may-write. *)
  List.iter
    (fun (h : RD.hazard) ->
      List.iter
        (fun site ->
          match split_site site with
          | Some (file, line)
            when String.length file > 4 && String.sub file 0 4 = "lib/" ->
              if
                not
                  (List.exists
                     (fun (f, l) -> f = file && l = line)
                     static)
              then
                Alcotest.failf
                  "dynamic race site %s:%d is not in the static may-write \
                   set"
                  file line
          | _ -> ())
        [ h.RD.site_a; h.RD.site_b ])
    !races

let () =
  Alcotest.run "summary"
    [
      ( "fixpoint",
        [
          Alcotest.test_case "mutual recursion converges" `Quick
            test_cycle_effects_converge;
          Alcotest.test_case "self recursion terminates" `Quick
            test_self_recursion_terminates;
        ] );
      ( "context",
        [
          Alcotest.test_case "internal helper ctx-guarded" `Quick
            test_ctx_guarded_helper;
          Alcotest.test_case "exported helper stays obligated" `Quick
            test_exported_helper_not_ctx_guarded;
          Alcotest.test_case "internal helper ctx-fresh" `Quick
            test_ctx_fresh_helper;
        ] );
      ( "plain-publication",
        [
          Alcotest.test_case "direct chain fires" `Quick
            test_publication_direct_chain;
          Alcotest.test_case "single writer clean" `Quick
            test_publication_single_writer_clean;
          Alcotest.test_case "RMW discharges" `Quick
            test_publication_rmw_discharges;
          Alcotest.test_case "publication_ok suppresses" `Quick
            test_publication_annotation_suppresses;
          Alcotest.test_case "chain across helpers" `Quick
            test_publication_across_helpers;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fixture: facts vs syntactic" `Quick
            test_fixture_differential;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "dynamic races within static may-writes"
            `Slow test_dynamic_races_subset_of_static;
        ] );
    ]
