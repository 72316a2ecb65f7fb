(* Tests for the packaged conformance kit: it must pass every real stack
   on both substrates and flag a deliberately broken one. *)

module C = Sec_spec.Conformance

module Native = Sec_prim.Native
module SP = Sec_sim.Sim.Prim

(* Each simulated run is a fresh simulated machine. *)
let simulated f = fst (Sec_sim.Sim.run ~topology:Sec_sim.Topology.emerald f)

let check_conforms name (report : C.report) =
  List.iter
    (fun (f : C.failure) ->
      Alcotest.failf "%s: %s failed: %s" name f.C.check f.C.detail)
    report.C.failures;
  Alcotest.(check bool) (name ^ " ran checks") true (report.C.passed > 0)

let test_all_stacks_native () =
  let module T =
    C.Make (Native) (Sec_stacks.Treiber.Make (Native) (Sec_reclaim.Reclaim.Gc))
  in
  check_conforms "treiber/native" (Native.with_exec ~seed:1L T.all);
  let module E = C.Make (Native) (Sec_stacks.Eb_stack.Make (Native)) in
  check_conforms "eb/native" (Native.with_exec ~seed:1L E.all);
  let module S = C.Make (Native) (Sec_core.Sec_stack.Make (Native)) in
  check_conforms "sec/native" (Native.with_exec ~seed:1L S.all)

let test_all_stacks_simulated () =
  let module T =
    C.Make (SP) (Sec_stacks.Treiber.Make (SP) (Sec_reclaim.Reclaim.Gc))
  in
  check_conforms "treiber/sim" (simulated (T.all ~threads:16 ~ops:100));
  let module F = C.Make (SP) (Sec_stacks.Fc_stack.Make (SP)) in
  check_conforms "fc/sim" (simulated (F.all ~threads:16 ~ops:100));
  let module S = C.Make (SP) (Sec_core.Sec_stack.Make (SP)) in
  check_conforms "sec/sim" (simulated (S.all ~threads:16 ~ops:100))

(* A broken stack: pop ignores concurrent updates (plain store). The kit
   must catch it — on the simulator, where the race is schedulable. *)
module Broken (P : Sec_prim.Prim_intf.S) : Sec_spec.Stack_intf.S = struct
  module A = P.Atomic

  type 'a t = 'a list A.t

  let name = "BROKEN"
  let create ?max_threads:_ () = A.make []
  let push t ~tid:_ v = A.set t (v :: A.get t) (* racy read-modify-write *)

  let pop t ~tid:_ =
    match A.get t with
    | [] -> None
    | v :: rest ->
        A.set t rest;
        Some v

  let peek t ~tid:_ = match A.get t with [] -> None | v :: _ -> Some v
end

let test_broken_stack_flagged () =
  let module B = C.Make (SP) (Broken (SP)) in
  (* Drive enough concurrency that the lost-update race fires. *)
  let report = simulated (B.conservation ~threads:16 ~ops:200) in
  Alcotest.(check bool) "broken stack detected" true
    (report.C.failures <> [])

let test_report_merge () =
  let a = { C.passed = 2; failures = [] } in
  let b = { C.passed = 1; failures = [ { C.check = "x"; detail = "y" } ] } in
  let m = C.merge a b in
  Alcotest.(check int) "passed summed" 3 m.C.passed;
  Alcotest.(check int) "failures kept" 1 (List.length m.C.failures)

let () =
  Alcotest.run "conformance"
    [
      ( "kit",
        [
          Alcotest.test_case "real stacks pass (native)" `Quick
            test_all_stacks_native;
          Alcotest.test_case "real stacks pass (simulated)" `Quick
            test_all_stacks_simulated;
          Alcotest.test_case "broken stack flagged" `Quick
            test_broken_stack_flagged;
          Alcotest.test_case "report merge" `Quick test_report_merge;
        ] );
    ]
