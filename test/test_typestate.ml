(* Tests for the path-sensitive typestate analysis
   (lib/analysis/typestate): the CFG guard-balance rule (rule 11) and
   the rule-4 query over its guard depth, the loop classifier and
   static progress verdicts (rule 12), the protocol automata (rule 13),
   the three-way progress agreement (declaration = dynamic classifier
   = static verdict) over every registry entry, and seeded protocol
   mutants for the three shipped automata. *)

module L = Sec_lint_rules.Lint_rules
module Summary = Sec_summary.Summary
module Ts = Sec_typestate.Typestate
module Explore = Sec_sim.Explore
module Sim = Sec_sim.Sim
module SP = Sim.Prim
module Registry = Sec_harness.Registry

let scope = { L.check_discipline = true; L.allow_obj = false }

let rec gather path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc e -> gather (Filename.concat path e) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let resolve candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.failf "none of %s exists" (String.concat ", " candidates)

(* One shared analysis of the library, built on first use. *)
let lib =
  lazy
    (let dir = resolve [ "../lib"; "lib" ] in
     let env, ts, _ = Ts.check_corpus (gather dir []) in
     (dir, env, ts))

(* Analyse in-memory sources with the discipline scope forced on,
   returning the summary environment and the typestate result. *)
let analyze_pairs pairs =
  let env, ts, _ = Ts.check_sources ~scope pairs in
  (env, ts)

let analyze_src src = analyze_pairs [ ("fix.ml", src) ]

let rules ts = List.map (fun (d : L.diagnostic) -> d.rule) (Ts.diagnostics ts)

(* -------------------------------------------------------------------- *)
(* Rule 11: guard balance *)

let test_guard_exception_leak () =
  let _, ts =
    analyze_src
      {|
module A = Atomic
module E = Ebr.Make (Prim)
type 'a node = { value : 'a }
type 'a t = { top : 'a node option A.t; ebr : E.t }
let peek_exn t ~tid =
  E.enter t.ebr ~tid;
  let v = match A.get t.top with
    | None -> raise Not_found
    | Some n -> n.value
  in
  E.exit t.ebr ~tid;
  v
|}
  in
  Alcotest.(check (list string))
    "the raise path leaks the pinned epoch" [ "guard-balance" ] (rules ts)

let test_guard_match_exception_balanced () =
  let _, ts =
    analyze_src
      {|
module A = Atomic
module E = Ebr.Make (Prim)
type 'a node = { value : 'a }
type 'a t = { top : 'a node option A.t; ebr : E.t }
let peek t ~tid =
  E.enter t.ebr ~tid;
  match A.get t.top with
  | Some n -> let v = n.value in E.exit t.ebr ~tid; Some v
  | None -> E.exit t.ebr ~tid; None
  | exception exn -> E.exit t.ebr ~tid; raise exn
|}
  in
  Alcotest.(check (list string))
    "exit on value, empty and exception paths balances" [] (rules ts)

let test_guard_exit_at_zero () =
  let _, ts =
    analyze_src
      {|
module E = Ebr.Make (Prim)
type t = { ebr : E.t }
let oops t ~tid =
  E.enter t.ebr ~tid;
  E.exit t.ebr ~tid;
  E.exit t.ebr ~tid
|}
  in
  Alcotest.(check (list string))
    "second exit unpins an unpinned epoch" [ "guard-balance" ] (rules ts)

let test_guard_branch_disagreement () =
  let _, ts =
    analyze_src
      {|
module E = Ebr.Make (Prim)
type t = { ebr : E.t }
let maybe t ~tid cond =
  E.enter t.ebr ~tid;
  if cond then E.exit t.ebr ~tid
|}
  in
  Alcotest.(check (list string))
    "branches disagree on the depth at return" [ "guard-balance" ]
    (rules ts)

(* The rule-4 query: a node-field read between enter and exit is at
   guard depth >= 1 on every path, so the corpus run does not report
   it. *)
let test_guard_facts_discharge_rule4 () =
  let src =
    {|
module A = Atomic
module E = Ebr.Make (Prim)
type 'a node = { value : 'a }
type 'a t = { top : 'a node option A.t; ebr : E.t }
let peek t ~tid =
  E.enter t.ebr ~tid;
  let v = match A.get t.top with None -> None | Some n -> Some n.value in
  E.exit t.ebr ~tid;
  v
|}
  in
  let corpus src =
    let _, _, ds = Ts.check_sources ~scope [ ("fix.ml", src) ] in
    List.map (fun (d : L.diagnostic) -> d.rule) ds
  in
  Alcotest.(check (list string)) "typestate facts discharge it" []
    (corpus src);
  (* Non-vacuity: the same read with the enter/exit pair removed is
     reported by the corpus run. *)
  let unpinned =
    String.concat "\n"
      (List.filter
         (fun l -> not (Filename.check_suffix l "~tid;"))
         (String.split_on_char '\n' src))
  in
  Alcotest.(check (list string)) "without the pair the read is flagged"
    [ "ebr-guard" ] (corpus unpinned)

(* -------------------------------------------------------------------- *)
(* Rule 12: loop classification and verdicts *)

let class_of ts name =
  match
    List.find_opt
      (fun (_, n, _, _, _) -> n = name)
      (Ts.loops ts ~file:"fix.ml")
  with
  | Some (_, _, _, c, _) -> Ts.loop_class_to_string c
  | None -> Alcotest.failf "loop %s not classified" name

let test_loop_classes () =
  let _, ts =
    analyze_src
      {|
[@@@progress "blocking"]
module A = Atomic
type t = { flag : bool A.t; n : int A.t }
let sum t k =
  let s = ref 0 in
  for i = 0 to k do s := !s + i done;
  !s
let bump t =
  let rec attempt () =
    let cur = A.get t.n in
    if not (A.compare_and_set t.n cur (cur + 1)) then attempt ()
  in
  attempt ()
let wait t = while not (A.get t.flag) do () done
let wait_certified t =
  (while not (A.get t.flag) do () done)
  [@await_ok "test: the flag is set before this runs"]
|}
  in
  (match Ts.loops ts ~file:"fix.ml" with
  | [] -> Alcotest.fail "no loops classified"
  | _ -> ());
  Alcotest.(check string) "for-loop is bounded" "bounded" (class_of ts "for@7");
  Alcotest.(check string)
    "CAS loop is cas-retry" "cas_retry" (class_of ts "attempt");
  Alcotest.(check string)
    "read-only wait is stuck" "stuck_spin" (class_of ts "while@15");
  Alcotest.(check string)
    "await_ok moves the wait to bounded" "bounded" (class_of ts "while@17");
  Alcotest.(check (option string))
    "a stuck wait makes the file blocking" (Some "blocking")
    (Option.map Ts.verdict_to_string (Ts.verdict_of ts ~file:"fix.ml"));
  Alcotest.(check (list string))
    "declaration agrees: no diagnostic" [] (rules ts)

let test_verdict_contradiction () =
  let _, ts =
    analyze_src
      {|
[@@@progress "lock_free"]
module A = Atomic
type t = { flag : bool A.t }
let wait t = while not (A.get t.flag) do () done
|}
  in
  Alcotest.(check (list string))
    "declared lock_free over a stuck spin" [ "loop-progress" ] (rules ts)

let test_blocking_needs_witness () =
  let _, ts =
    analyze_src
      {|
[@@@progress "blocking"]
module A = Atomic
type t = { n : int A.t }
let bump t =
  let rec attempt () =
    let cur = A.get t.n in
    if not (A.compare_and_set t.n cur (cur + 1)) then attempt ()
  in
  attempt ()
|}
  in
  Alcotest.(check (list string))
    "declared blocking with no reachable stuck wait" [ "loop-progress" ]
    (rules ts)

(* Cross-file reachability: the stuck wait lives in a helper module; the
   caller's top-level operation reaches it through the resolved call
   graph, so the *caller's* file is blocking. *)
let test_cross_file_stuck_reachability () =
  let _, ts =
    analyze_pairs
      [
        ( "helper.ml",
          {|
module A = Atomic
type t = { flag : bool A.t }
let await t = while not (A.get t.flag) do () done
|}
        );
        ( "caller.ml",
          {|
[@@@progress "lock_free"]
module A = Atomic
let push t v = Helper.await t; ignore v
|}
        );
      ]
  in
  Alcotest.(check (option string))
    "the caller is blocking via the helper" (Some "blocking")
    (Option.map Ts.verdict_to_string (Ts.verdict_of ts ~file:"caller.ml"));
  Alcotest.(check bool)
    "and its lock_free declaration is diagnosed" true
    (List.exists
       (fun (d : L.diagnostic) ->
         d.file = "caller.ml" && d.rule = "loop-progress")
       (Ts.diagnostics ts))

(* Reachability must not depend on the order files are analysed in: a
   search that reaches [y] while its caller [x] (on the same call cycle)
   is still open must not record [y] as reaching no stuck wait, or
   [user.ml], which reaches the wait only through [y], comes out
   lock_free whenever [cyc.ml] is analysed before it. *)
let test_reachability_order_independent () =
  let waiter =
    ( "waiter.ml",
      {|
module A = Atomic
let spin t = Backoff.spin_until (fun () -> A.get t.flag)
|} )
  in
  let cyc =
    ( "cyc.ml",
      {|
module A = Atomic
let rec x t = A.incr t.c; if t.n > 0 then Waiter.spin t else y t
and y t = x t
|} )
  in
  let user = ("user.ml", {|
let w t = Cyc.y t
|}) in
  List.iter
    (fun order ->
      let _, ts = analyze_pairs order in
      Alcotest.(check (option string))
        (Printf.sprintf "user.ml is blocking (order %s)"
           (String.concat ", " (List.map fst order)))
        (Some "blocking")
        (Option.map Ts.verdict_to_string (Ts.verdict_of ts ~file:"user.ml")))
    [ [ waiter; cyc; user ]; [ waiter; user; cyc ] ]

(* -------------------------------------------------------------------- *)
(* Rule 13: protocol automata *)

let test_protocol_violation_and_conformance () =
  let proto =
    {|
[@@@protocol "hand: idle -read:head-> seen; seen -read:head-> seen; seen -rmw:head-> idle"]
module A = Atomic
type 'a t = { head : 'a list A.t }
|}
  in
  let _, bad =
    analyze_src
      (proto
     ^ {|
let push t v =
  let cur = [] in
  if A.compare_and_set t.head cur (v :: cur) then ()
|}
      )
  in
  Alcotest.(check (list string))
    "CAS with no fresh read violates" [ "protocol" ] (rules bad);
  let _, good =
    analyze_src
      (proto
     ^ {|
let push t v =
  let rec attempt () =
    let cur = A.get t.head in
    if not (A.compare_and_set t.head cur (v :: cur)) then attempt ()
  in
  attempt ()
|}
      )
  in
  Alcotest.(check (list string)) "read-then-CAS conforms" [] (rules good)

let test_protocol_malformed_payload () =
  let _, ts =
    analyze_src
      {|
[@@@protocol "no transitions here"]
module A = Atomic
|}
  in
  Alcotest.(check (list string))
    "malformed payload is a protocol diagnostic" [ "protocol" ] (rules ts)

(* The three shipped automata: the library itself lints clean (the
   @lint alias and test_lint pin that), and each automaton catches its
   seeded protocol-violating mutant. Mutants are the real sources with
   one access reordered or a fresh read replaced by a stale value; the
   test fails if the source drifts so the pattern no longer matches. *)

let replace ~what ~with_ s =
  let lw = String.length what in
  let ls = String.length s in
  let rec find i =
    if i + lw > ls then
      Alcotest.failf "mutant pattern no longer matches the source: %S" what
    else if String.sub s i lw = what then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ with_ ^ String.sub s (i + lw) (ls - i - lw)

let analyze_mutant ~path ~what ~with_ =
  let dir, _, _ = Lazy.force lib in
  let file = Filename.concat dir path in
  let src = L.read_file file in
  let _, ts, _ = Ts.check_sources [ (file, replace ~what ~with_ src) ] in
  ts

let protocol_diags ts =
  List.filter (fun (d : L.diagnostic) -> d.rule = "protocol")
    (Ts.diagnostics ts)

let test_shipped_automata_present () =
  let dir, _, ts = Lazy.force lib in
  let check path name =
    Alcotest.(check (list string))
      (path ^ " declares " ^ name) [ name ]
      (Ts.automata_of ts ~file:(Filename.concat dir path))
  in
  check "core/batch.ml" "batch";
  check "reclaim/ebr.ml" "epoch";
  Alcotest.(check (list string))
    "the unmutated library has no rule 11-13 diagnostics" []
    (List.map L.diagnostic_to_string (Ts.diagnostics ts))

let test_sec_stack_freeze_order_mutant () =
  let ts =
    analyze_mutant ~path:"core/batch.ml"
      ~what:
        "A.set batch.pop_at_freeze pops;\n    A.set batch.push_at_freeze pushes;"
      ~with_:
        "A.set batch.push_at_freeze pushes;\n    A.set batch.pop_at_freeze pops;"
  in
  Alcotest.(check bool)
    "swapping the freeze snapshot order violates 'batch'" true
    (List.exists
       (fun (d : L.diagnostic) ->
         d.message <> ""
         && String.length d.message >= 17
         && String.sub d.message 0 17 = "automaton 'batch'")
       (protocol_diags ts))

let test_ebr_unscanned_advance_mutant () =
  let ts =
    analyze_mutant ~path:"reclaim/ebr.ml"
      ~what:
        "Array.iter\n\
        \      (fun slot ->\n\
        \        let a = A.get slot.announce in\n\
        \        if a <> quiescent && a <> e then blocked := true)\n\
        \      t.slots;"
      ~with_:"ignore t.slots;"
  in
  Alcotest.(check bool)
    "advancing without scanning the announcements violates 'epoch'" true
    (protocol_diags ts <> [])

(* -------------------------------------------------------------------- *)
(* Three-way progress agreement over the registry *)

let file_of_entry name =
  let prefixed p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  if prefixed "SEC-POOL" then "core/sec_pool.ml"
  else if prefixed "SEC" then "core/sec_stack.ml"
  else
    match name with
    | "TRB" | "TRB-EBR" -> "stacks/treiber.ml"
    | "EB" -> "stacks/eb_stack.ml"
    | "FC" -> "stacks/fc_stack.ml"
    | "CC" -> "stacks/cc_stack.ml"
    | "TSI" | "TSI-EBR" -> "stacks/ts_stack.ml"
    | "LCK" -> "stacks/lock_stack.ml"
    | "HS" -> "stacks/h_stack.ml"
    | n -> Alcotest.failf "no source mapping for registry entry %s" n

(* Leg 1 (static): for every registry entry, the [@@@progress]
   declaration in its source file and the typestate verdict computed
   from the CFGs must both equal the registry's declared class. The
   dynamic leg is Explore.classify: test_progress.ml runs it for the
   paper set + lock + hsynch, [test_dynamic_rest] below for the rest —
   together the three verdicts agree for every entry. *)
let test_three_way_static () =
  let dir, _, ts = Lazy.force lib in
  List.iter
    (fun (entry : Registry.entry) ->
      let file = Filename.concat dir (file_of_entry entry.Registry.name) in
      let declared_registry =
        Explore.progress_class_to_string entry.Registry.progress
      in
      (match Ts.declared_progress ts ~file with
      | Some d ->
          Alcotest.(check string)
            (entry.Registry.name ^ ": [@@@progress] = registry")
            declared_registry d
      | None ->
          Alcotest.failf "%s: %s declares no [@@@progress]"
            entry.Registry.name file);
      match Ts.verdict_of ts ~file with
      | Some v ->
          Alcotest.(check string)
            (entry.Registry.name ^ ": static verdict = registry")
            declared_registry (Ts.verdict_to_string v)
      | None ->
          Alcotest.failf "%s: no static verdict for %s" entry.Registry.name
            file)
    Registry.refine_set

(* SEC and its pool own no blocking wait: every stuck spin lives in the
   shared batch engine, so both files are blocking only through the
   resolved call graph into core/batch.ml (as cc_stack.ml is through
   ccsynch.ml). *)
let test_sec_blocking_via_engine () =
  let dir, _, ts = Lazy.force lib in
  let stuck path =
    List.filter_map
      (fun (_, name, _, c, _) ->
        if Ts.loop_class_to_string c = "stuck_spin" then Some name else None)
      (Ts.loops ts ~file:(Filename.concat dir path))
  in
  Alcotest.(check bool) "the engine holds the stuck waits" true
    (stuck "core/batch.ml" <> []);
  List.iter
    (fun path ->
      Alcotest.(check (list string)) (path ^ " has no local stuck wait") []
        (stuck path);
      Alcotest.(check (option string))
        (path ^ " is blocking via the engine") (Some "blocking")
        (Option.map Ts.verdict_to_string
           (Ts.verdict_of ts ~file:(Filename.concat dir path))))
    [ "core/sec_stack.ml"; "core/sec_pool.ml" ]

(* Leg 2 (dynamic) for the entries test_progress.ml does not cover:
   the reclaimed variants and the pool. *)
let stack_scenario ?(tids = [| 0; 1 |]) (module M : Registry.MAKER) () =
  let module St = M (SP) in
  let s = St.create ~max_threads:8 () in
  let fiber tid () =
    St.push s ~tid tid;
    ignore (St.pop s ~tid)
  in
  (Array.to_list (Array.map fiber tids), fun () -> true)

let test_dynamic_rest (entry : Registry.entry) () =
  let tids =
    (* SEC variants block only same-shard: route both fibers onto
       aggregator 0 ([tid mod K] with the default K = 2). *)
    let n = entry.Registry.name in
    if String.length n >= 3 && String.sub n 0 3 = "SEC" then Some [| 0; 2 |]
    else None
  in
  let c = Explore.classify ~fibers:2 (stack_scenario ?tids entry.Registry.maker) in
  Alcotest.(check string)
    (Printf.sprintf "%s classifies as declared (%d suspension runs)"
       entry.Registry.name c.Explore.runs)
    (Explore.progress_class_to_string entry.Registry.progress)
    (Explore.progress_class_to_string c.Explore.verdict)

(* -------------------------------------------------------------------- *)
(* -------------------------------------------------------------------- *)
(* Introspection sanity *)

let test_cfg_stats () =
  let dir, _, ts = Lazy.force lib in
  let units, nodes, heads =
    Ts.cfg_stats ts ~file:(Filename.concat dir "core/batch.ml")
  in
  Alcotest.(check bool) "the batch engine has analysed units" true (units > 5);
  Alcotest.(check bool) "CFGs have nodes" true (nodes > units);
  Alcotest.(check bool) "and loop heads" true (heads > 0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "typestate"
    [
      ( "guard-balance",
        [
          quick "exception path leaks" test_guard_exception_leak;
          quick "match-exception balances" test_guard_match_exception_balanced;
          quick "exit at depth zero" test_guard_exit_at_zero;
          quick "branch disagreement" test_guard_branch_disagreement;
          quick "facts discharge rule 4" test_guard_facts_discharge_rule4;
        ] );
      ( "loop-progress",
        [
          quick "loop classes" test_loop_classes;
          quick "lock_free over stuck spin" test_verdict_contradiction;
          quick "blocking needs a witness" test_blocking_needs_witness;
          quick "cross-file reachability" test_cross_file_stuck_reachability;
          quick "order-independent reachability"
            test_reachability_order_independent;
        ] );
      ( "protocol",
        [
          quick "violation and conformance"
            test_protocol_violation_and_conformance;
          quick "malformed payload" test_protocol_malformed_payload;
          quick "shipped automata present" test_shipped_automata_present;
          quick "sec_stack freeze-order mutant"
            test_sec_stack_freeze_order_mutant;
          quick "ebr unscanned-advance mutant"
            test_ebr_unscanned_advance_mutant;
        ] );
      ( "three-way",
        quick "static = declared = registry, all entries"
          test_three_way_static
        :: quick "SEC and pool blocking via the batch engine"
             test_sec_blocking_via_engine
        :: List.map
             (fun (entry : Registry.entry) ->
               slow
                 (Printf.sprintf "dynamic: %s is %s" entry.Registry.name
                    (Explore.progress_class_to_string entry.Registry.progress))
                 (test_dynamic_rest entry))
             (Registry.reclaimed_set @ [ Registry.pool ])
      );
      ("introspection", [ quick "cfg stats" test_cfg_stats ]);
    ]
