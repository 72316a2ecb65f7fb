(* Tests for epoch-based reclamation: the central safety property is that
   no destructor runs while any thread is still inside a critical section
   it entered before the retirement. *)

module P = Sec_prim.Native
module Ebr = Sec_reclaim.Ebr.Make (P)
module SimEbr = Sec_reclaim.Ebr.Make (Sec_sim.Sim.Prim)

let test_retire_and_flush () =
  let e = Ebr.create ~max_threads:2 () in
  let freed = ref 0 in
  Ebr.retire e ~tid:0 (fun () -> incr freed);
  Ebr.retire e ~tid:0 (fun () -> incr freed);
  Alcotest.(check int) "nothing freed yet" 0 !freed;
  Ebr.flush e ~tid:0;
  Alcotest.(check int) "freed after flush" 2 !freed;
  let s = Ebr.stats e in
  Alcotest.(check int) "stats retired" 2 s.Ebr.retired;
  Alcotest.(check int) "stats reclaimed" 2 s.Ebr.reclaimed;
  Alcotest.(check int) "stats pending" 0 s.Ebr.pending

let test_epoch_advances () =
  let e = Ebr.create ~max_threads:2 () in
  let e0 = Ebr.epoch e in
  Ebr.try_advance e;
  Alcotest.(check int) "quiescent world advances" (e0 + 1) (Ebr.epoch e)

let test_active_reader_blocks_advance () =
  let e = Ebr.create ~max_threads:2 () in
  Ebr.enter e ~tid:1;
  Ebr.try_advance e;
  let e1 = Ebr.epoch e in
  Ebr.try_advance e;
  Alcotest.(check int) "active reader pins the epoch" e1 (Ebr.epoch e);
  Ebr.exit e ~tid:1;
  Ebr.try_advance e;
  Alcotest.(check int) "released after exit" (e1 + 1) (Ebr.epoch e)

let test_no_premature_destruction () =
  (* Thread 1 sits in a critical section; objects retired meanwhile must
     not be destroyed until it leaves, no matter how hard we flush. *)
  let e = Ebr.create ~max_threads:2 () in
  let destroyed = ref false in
  Ebr.enter e ~tid:1;
  Ebr.retire e ~tid:0 (fun () -> destroyed := true);
  for _ = 1 to 10 do
    Ebr.flush e ~tid:0
  done;
  Alcotest.(check bool) "protected while reader active" false !destroyed;
  Ebr.exit e ~tid:1;
  Ebr.flush e ~tid:0;
  Alcotest.(check bool) "destroyed after reader exits" true !destroyed

let test_guard_exception_safety () =
  let e = Ebr.create ~max_threads:1 () in
  (try Ebr.guard e ~tid:0 (fun () -> failwith "boom") with Failure _ -> ());
  Ebr.try_advance e;
  let e0 = Ebr.epoch e in
  Ebr.try_advance e;
  Alcotest.(check bool) "slot released despite exception" true
    (Ebr.epoch e > e0 - 1)

(* A realistic integration: a Treiber-like structure where popped nodes
   hold a "resource" released via EBR. Concurrent readers traverse under
   guard; the resource must never be observed released during traversal. *)
let test_concurrent_no_use_after_free () =
  let threads = 4 in
  let e = Ebr.create ~max_threads:threads () in
  let module A = Stdlib.Atomic in
  (* Shared cell holding a "node": (payload, live flag). Writers swap in a
     fresh node and retire the old one; readers guard, read, and check
     liveness twice with work in between. *)
  let make_node v = (v, A.make true) in
  let cell = A.make (make_node 0) in
  let violations = A.make 0 in
  let stop = A.make false in
  let writer tid () =
    for i = 1 to 3_000 do
      let fresh = make_node i in
      let old = A.exchange cell fresh in
      let _, live = old in
      Ebr.retire e ~tid (fun () -> A.set live false)
    done;
    A.set stop true
  in
  let reader tid () =
    while not (A.get stop) do
      Ebr.guard e ~tid (fun () ->
          let _, live = A.get cell in
          if not (A.get live) then A.incr violations;
          P.relax 50;
          if not (A.get live) then A.incr violations)
    done
  in
  let ds =
    Domain.spawn (writer 0)
    :: List.init (threads - 1) (fun i -> Domain.spawn (reader (i + 1)))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no reader saw a freed node" 0 (A.get violations);
  Ebr.flush e ~tid:0;
  let s = Ebr.stats e in
  Alcotest.(check int) "all retirements recorded" 3_000 s.Ebr.retired

let test_sweep_threshold_amortisation () =
  (* With threshold 4, reclamation happens without explicit flushes. *)
  let e = Ebr.create ~max_threads:1 ~sweep_threshold:4 () in
  let freed = ref 0 in
  for _ = 1 to 100 do
    Ebr.retire e ~tid:0 (fun () -> incr freed)
  done;
  Alcotest.(check bool) "amortised sweeping reclaimed most" true (!freed > 50)

let test_ebr_under_simulation () =
  (* Deterministic high-thread-count run in the simulator. *)
  let reclaimed, _ =
    Sec_sim.Sim.run ~topology:Sec_sim.Topology.testbox (fun () ->
        let e = SimEbr.create ~max_threads:8 ~sweep_threshold:4 () in
        let freed = Sec_sim.Sim.Prim.Atomic.make 0 in
        for _ = 1 to 8 do
          Sec_sim.Sim.spawn (fun () ->
              let tid = Sec_sim.Sim.fiber_id () in
              for _ = 1 to 100 do
                SimEbr.guard e ~tid (fun () -> Sec_sim.Sim.Prim.relax 5);
                SimEbr.retire e ~tid (fun () ->
                    Sec_sim.Sim.Prim.Atomic.incr freed)
              done)
        done;
        Sec_sim.Sim.await_all ();
        for tid = 0 to 7 do
          SimEbr.flush e ~tid
        done;
        Sec_sim.Sim.Prim.Atomic.get freed)
  in
  Alcotest.(check int) "all retired objects reclaimed" 800 reclaimed

let test_flush_idempotent_shutdown () =
  (* The shutdown protocol: once every thread is quiescent, flushing each
     thread leaves nothing pending; further flushes are no-ops (the epoch
     does not move, nothing is destroyed twice). *)
  let e = Ebr.create ~max_threads:2 () in
  let freed = ref 0 in
  for _ = 1 to 5 do
    Ebr.retire e ~tid:0 (fun () -> incr freed)
  done;
  for _ = 1 to 3 do
    Ebr.retire e ~tid:1 (fun () -> incr freed)
  done;
  Ebr.flush e ~tid:0;
  Ebr.flush e ~tid:1;
  Alcotest.(check int) "shutdown leaves nothing pending" 0
    (Ebr.stats e).Ebr.pending;
  Alcotest.(check int) "every destructor ran" 8 !freed;
  let epoch0 = Ebr.epoch e in
  Ebr.flush e ~tid:0;
  Ebr.flush e ~tid:1;
  Ebr.flush e ~tid:0;
  Alcotest.(check int) "empty flush does not move the epoch" epoch0
    (Ebr.epoch e);
  Alcotest.(check int) "empty flush destroys nothing" 8 !freed;
  Alcotest.(check int) "still nothing pending" 0 (Ebr.stats e).Ebr.pending

(* -------------------------------------------------------------------- *)
(* Reclamation-checked exploration: the shadow heap (installed by
   [Explore.for_all ~check_reclamation:true]) must stay silent on the
   real reclaimed structures, and must catch seeded discipline bugs. *)

module Explore = Sec_sim.Explore
module Chk = Sec_analysis.Reclaim_checker
module SP = Sec_sim.Sim.Prim
module Observed = Testkit.Observed_ebr (SP)
module RS = Sec_stacks.Treiber.Make (SP) (Observed)

let stack_scenario (module M : Sec_spec.Stack_intf.MAKER) () =
  let module St = M (SP) in
  let s = St.create ~max_threads:2 () in
  St.push s ~tid:0 100;
  let results = Array.make 2 [] in
  let fiber slot () =
    St.push s ~tid:slot slot;
    match St.pop s ~tid:slot with
    | Some v -> results.(slot) <- [ v ]
    | None -> ()
  in
  ( [ fiber 0; fiber 1 ],
    fun () ->
      let rec drain acc =
        match St.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
      in
      let all = results.(0) @ results.(1) @ drain [] in
      List.sort compare all = [ 0; 1; 100 ] )

(* Treiber over EBR with a full shutdown flush in the final check, so
   the checker sees the complete lifecycle of every node, reclaim
   included. *)
let reclaimed_stack_scenario () =
  let s = RS.create ~max_threads:2 () in
  let r = Observed.state () in
  RS.push s ~tid:0 100;
  let fiber slot () =
    RS.push s ~tid:slot slot;
    ignore (RS.pop s ~tid:slot)
  in
  ( [ fiber 0; fiber 1 ],
    fun () ->
      let rec drain () =
        match RS.pop s ~tid:0 with Some _ -> drain () | None -> ()
      in
      drain ();
      Observed.flush r ~tid:0;
      Observed.flush r ~tid:1;
      (Observed.stats r).Observed.pending = 0 )

let sweep name scenario () =
  match
    Explore.for_all ~max_preemptions:1 ~quantum:6 ~max_schedules:2_000
      ~detect_races:true ~check_reclamation:true scenario
  with
  | Explore.Passed _ -> ()
  | other ->
      Alcotest.failf "%s: expected Passed, got %a" name Explore.pp_result
        other

(* -------------------------------------------------------------------- *)
(* Seeded mutants: an instrumented Treiber-over-EBR with a correct push
   and two classic discipline bugs in pop. The checker must catch both;
   these are regression tests for the checker itself. *)

module Mutant = struct
  module A = SP.Atomic

  type node = { value : int; next : node option; chk : int }
  type t = { top : node option A.t; ebr : SimEbr.t }

  let create () =
    { top = A.make_padded None; ebr = SimEbr.create ~max_threads:2 () }

  let push t ~tid v =
    SimEbr.guard t.ebr ~tid (fun () ->
        let chk = Chk.note_alloc ~fiber:tid in
        let rec attempt () =
          let cur = A.get t.top in
          if A.compare_and_set t.top cur (Some { value = v; next = cur; chk })
          then Chk.note_publish ~fiber:tid ~node:chk
          else attempt ()
        in
        attempt ())

  (* Seeded bug 1: the [Ebr.guard] wrapper was deleted — every node
     dereference races the retirement protocol. *)
  let pop_unguarded t ~tid =
    let rec attempt () =
      match A.get t.top with
      | None -> None
      | Some n as cur ->
          Chk.note_access ~fiber:tid ~node:n.chk;
          if A.compare_and_set t.top cur n.next then begin
            Chk.note_unlink ~fiber:tid ~node:n.chk;
            SimEbr.retire t.ebr ~tid ~chk:n.chk ignore;
            Some n.value
          end
          else attempt ()
    in
    attempt ()

  (* Seeded bug 2: the retire is not gated on winning the unlink CAS, so
     the loser of a pop race retires the same node a second time. *)
  let pop_double_retire t ~tid =
    SimEbr.guard t.ebr ~tid (fun () ->
        match A.get t.top with
        | None -> None
        | Some n as cur ->
            Chk.note_access ~fiber:tid ~node:n.chk;
            let won = A.compare_and_set t.top cur n.next in
            Chk.note_unlink ~fiber:tid ~node:n.chk;
            SimEbr.retire t.ebr ~tid ~chk:n.chk ignore;
            if won then Some n.value else None)
end

let missing_guard_scenario () =
  let s = Mutant.create () in
  Mutant.push s ~tid:0 100;
  ( [
      (fun () -> ignore (Mutant.pop_unguarded s ~tid:0));
      (fun () -> Mutant.push s ~tid:1 2);
    ],
    fun () -> true )

let double_retire_scenario () =
  let s = Mutant.create () in
  Mutant.push s ~tid:0 100;
  ( [
      (fun () -> ignore (Mutant.pop_double_retire s ~tid:0));
      (fun () -> ignore (Mutant.pop_double_retire s ~tid:1));
    ],
    fun () -> true )

let contains_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec scan i =
    if i + lb > ls then false else String.sub s i lb = sub || scan (i + 1)
  in
  scan 0

let test_missing_guard_flagged () =
  match
    Explore.for_all ~max_preemptions:1 ~quantum:6 ~max_schedules:500
      ~check_reclamation:true missing_guard_scenario
  with
  | Explore.Failed { kind = Explore.Reclamation_violation msg; _ } ->
      Alcotest.(check bool)
        ("an unguarded access is reported: " ^ msg)
        true
        (contains_sub msg "unguarded-access")
  | other ->
      Alcotest.failf "expected a reclamation violation, got %a"
        Explore.pp_result other

let test_double_retire_flagged_and_pinned () =
  match
    Explore.for_all ~max_preemptions:1 ~quantum:6 ~max_schedules:500
      ~check_reclamation:true double_retire_scenario
  with
  | Explore.Failed
      { kind = Explore.Reclamation_violation msg; schedule; _ } -> (
      Alcotest.(check bool)
        ("a double retire is reported: " ^ msg)
        true
        (contains_sub msg "double-retire");
      (* Pin the interleaving: round-trip the reproducing schedule
         through its string form and replay it against a fresh checker —
         the exact double-retire must come back. *)
      let schedule =
        Explore.schedule_of_string (Explore.schedule_to_string schedule)
      in
      let c = Chk.create () in
      match
        Explore.replay ~quantum:6 ~reclaim_checker:c ~schedule
          double_retire_scenario
      with
      | Explore.Ok_run _ ->
          let kinds =
            List.map (fun r -> r.Chk.kind) (Chk.reports c)
          in
          Alcotest.(check bool)
            "pinned replay reproduces the double retire" true
            (List.mem Chk.Double_retire kinds)
      | other ->
          Alcotest.failf "pinned replay did not complete (outcome %s)"
            (match other with
            | Explore.Ok_run _ -> "ok"
            | Explore.Raised m -> "raised " ^ m
            | Explore.Livelocked -> "livelock"))
  | other ->
      Alcotest.failf "expected a reclamation violation, got %a"
        Explore.pp_result other

(* -------------------------------------------------------------------- *)
(* Schedule pins of the Treiber and TS registry entries, each with and
   without epoch-based reclamation: seed 1, testbox, 100% updates, the
   BENCH_sim.json window (200 000 cycles over a 64-element prefill), so
   the op counts equal those rows. BENCH_sim.json only gates them within
   10%; a change to either stack's or to the reclamation layer's
   simulated accesses moves a digest here. *)

let pinned_twins =
  [
    ("TRB", 4, 242, 3257801741463654725);
    ("TRB", 8, 447, 1135637789608456315);
    ("TSI", 4, 540, 3203889217978978525);
    ("TSI", 8, 837, 2216588825635598810);
    ("TRB-EBR", 4, 501, 616500360779015016);
    ("TRB-EBR", 8, 308, 797507465623405240);
    ("TSI-EBR", 4, 730, 4311301465164809501);
    ("TSI-EBR", 8, 1177, 2005558459212815538);
  ]

let test_twin_pins () =
  List.iter
    (fun (name, threads, pinned_ops, pinned_digest) ->
      let entry = Sec_harness.Registry.find name in
      let m, st =
        Sec_harness.Sim_runner.run_with_stats entry.Sec_harness.Registry.maker
          ~topology:Sec_sim.Topology.testbox ~threads ~duration_cycles:200_000
          ~mix:(Sec_harness.Workload.by_name "100%upd")
          ~prefill:64 ~seed:1 ()
      in
      let label what =
        Printf.sprintf "%s %s (seed 1, %d threads)" name what threads
      in
      Alcotest.(check int) (label "ops") pinned_ops
        m.Sec_harness.Measurement.ops;
      Alcotest.(check int) (label "schedule digest") pinned_digest
        st.Sec_sim.Sim.schedule_digest)
    pinned_twins

let () =
  Alcotest.run "reclaim"
    [
      ( "epochs",
        [
          Alcotest.test_case "retire & flush" `Quick test_retire_and_flush;
          Alcotest.test_case "advance" `Quick test_epoch_advances;
          Alcotest.test_case "reader blocks advance" `Quick
            test_active_reader_blocks_advance;
          Alcotest.test_case "guard exception safety" `Quick
            test_guard_exception_safety;
          Alcotest.test_case "flush idempotent at shutdown" `Quick
            test_flush_idempotent_shutdown;
        ] );
      ( "safety",
        [
          Alcotest.test_case "no premature destruction" `Quick
            test_no_premature_destruction;
          Alcotest.test_case "concurrent use-after-free hunt" `Quick
            test_concurrent_no_use_after_free;
          Alcotest.test_case "amortised sweeping" `Quick
            test_sweep_threshold_amortisation;
        ] );
      ( "simulated",
        [ Alcotest.test_case "8 fibers" `Quick test_ebr_under_simulation ] );
      ( "reclamation-checked exploration",
        [
          Alcotest.test_case "clean: Reclaimed TRB, flushed" `Slow
            (sweep "flushed TRB-EBR" reclaimed_stack_scenario);
          Alcotest.test_case "clean: TRB-EBR" `Slow
            (sweep "TRB-EBR"
               (stack_scenario Sec_harness.Registry.treiber_ebr.maker));
          Alcotest.test_case "clean: TSI-EBR" `Slow
            (sweep "TSI-EBR"
               (stack_scenario Sec_harness.Registry.tsi_ebr.maker));
          Alcotest.test_case "mutant: missing guard flagged" `Quick
            test_missing_guard_flagged;
          Alcotest.test_case "mutant: double retire flagged & pinned" `Quick
            test_double_retire_flagged_and_pinned;
        ] );
      ( "schedule pins",
        [
          Alcotest.test_case "TRB, TSI and their EBR twins" `Quick
            test_twin_pins;
        ] );
    ]
