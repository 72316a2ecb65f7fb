(* The refinement prong (docs/ANALYSIS.md, "Refinement prong"):
   - every registry entry (plus the pool) passes its declared default
     properties under DPOR and under every pinned weighted-random seed;
   - the weighted-random scheduler is seed-deterministic: same seed,
     byte-identical serialized schedule and identical verdict, on both a
     passing structure and a seeded-mutant failure;
   - the seeded mutants (Config.mutation) are caught, and the shrinker
     reduces their failing schedules to small witnesses that replay
     deterministically to the same violation. *)

module Explore = Sec_sim.Explore
module Registry = Sec_harness.Registry
module Refine = Sec_refine.Refine

let find_mutant name =
  List.find (fun e -> e.Registry.name = name) Registry.mutants

let result_str r = Format.asprintf "%a" Explore.pp_result r

(* ------------------------------------------------------------------ *)
(* Every entry refines its declared spec                                *)

let check_entry_case (e : Registry.entry) () =
  List.iter
    (fun (prop, strat, v) ->
      match v with
      | Refine.Refines _ -> ()
      | v ->
          Alcotest.failf "%s / %s / %s: %s" e.Registry.name prop strat
            (Refine.verdict_to_string v))
    (Refine.check_entry ~max_schedules:300 ~runs:8 e)

(* ------------------------------------------------------------------ *)
(* Seed determinism                                                     *)

let passing_scenario () =
  let gu = ref false in
  Refine.scenario_of ~maker:Registry.treiber.Registry.maker
    ~refines:Registry.Stack_sem ~gave_up:gu
    {
      Refine.prefill = [ 5 ];
      threads = [ [ Refine.Push 1; Refine.Pop ]; [ Refine.Push 2; Refine.Pop ] ];
      max_threads = None;
    }

let test_seed_determinism_passing () =
  let run seed =
    let o, sched = Explore.random_run ~seed (passing_scenario ()) in
    (o, Explore.schedule_to_string sched)
  in
  let o1, s1 = run 42L in
  let o2, s2 = run 42L in
  Alcotest.(check string) "same seed, byte-identical schedule" s1 s2;
  (match (o1, o2) with
  | Explore.Ok_run true, Explore.Ok_run true -> ()
  | _ -> Alcotest.fail "expected both seeded runs to pass identically");
  (* The sweep driver is deterministic too. *)
  let r1 = result_str (Explore.for_random ~seed:42L ~runs:8 (passing_scenario ())) in
  let r2 = result_str (Explore.for_random ~seed:42L ~runs:8 (passing_scenario ())) in
  Alcotest.(check string) "same seed, identical verdict" r1 r2

let pop_reorder_scenario () =
  let e = find_mutant "SEC!POP" in
  let gu = ref false in
  Refine.scenario_of ~maker:e.Registry.maker ~refines:Registry.Stack_sem
    ~gave_up:gu
    {
      Refine.prefill = [ 1; 2; 3 ];
      threads = [ [ Refine.Pop ]; [ Refine.Pop ] ];
      max_threads = None;
    }

let test_seed_determinism_mutant () =
  let run () =
    match Explore.for_random ~seed:7L ~runs:8 (pop_reorder_scenario ()) with
    | Explore.Failed _ as r ->
        (result_str r,
         match r with
         | Explore.Failed { schedule; _ } -> Explore.schedule_to_string schedule
         | _ -> assert false)
    | Explore.Passed _ ->
        Alcotest.fail "pop-reorder mutant not caught by seeded random runs"
  in
  let v1, s1 = run () in
  let v2, s2 = run () in
  Alcotest.(check string) "same seed, byte-identical failing schedule" s1 s2;
  Alcotest.(check string) "same seed, identical failing verdict" v1 v2

(* ------------------------------------------------------------------ *)
(* The seeded mutants are caught and their witnesses shrink             *)

let witness_budget = 8

let assert_shrunk_witness ~entry ~prop ~expect_kind ~expect_outcome strategy =
  match Refine.check entry strategy prop with
  | Refine.Violates w ->
      Alcotest.(check string) "violation category" expect_kind w.Refine.w_kind;
      Alcotest.(check bool) "witness replayed to the same violation" true
        w.Refine.w_replayed;
      if List.length w.Refine.w_schedule > witness_budget then
        Alcotest.failf "witness has %d placements (> %d): [%s]"
          (List.length w.Refine.w_schedule)
          witness_budget
          (Explore.schedule_to_string w.Refine.w_schedule);
      (* Replay the shrunk witness three more times: deterministically the
         same violation, every time. *)
      for _ = 1 to 3 do
        let gu = ref false in
        let o =
          Explore.replay ~quantum:6 ~schedule:w.Refine.w_schedule
            (Refine.scenario_of ~maker:entry.Registry.maker
               ~refines:prop.Refine.refines ~gave_up:gu w.Refine.w_workload)
        in
        if not (expect_outcome o) then
          Alcotest.failf "witness replay diverged from %s" expect_kind
      done
  | v ->
      Alcotest.failf "expected a violation, got %s"
        (Refine.verdict_to_string v)

(* Batch-capacity overflow: three fibers over-subscribe a capacity-2 SEC
   with a single aggregator, so all three announcements land in one
   batch; the mutant's unclamped freeze snapshot sends the combiner past
   the elimination array. *)
let overflow_prop =
  {
    Refine.pname = "overflow";
    refines = Registry.Stack_sem;
    workload =
      {
        Refine.prefill = [];
        threads =
          [ [ Refine.Push 10 ]; [ Refine.Push 11 ]; [ Refine.Push 12 ] ];
        max_threads = Some 2;
      };
    adversary = Refine.No_adversary;
  }

let test_overflow_mutant_dpor () =
  assert_shrunk_witness ~entry:(find_mutant "SEC!OVF") ~prop:overflow_prop
    ~expect_kind:"raised"
    ~expect_outcome:(function Explore.Raised _ -> true | _ -> false)
    (Refine.Dpor { max_preemptions = 1; max_schedules = 500 })

let test_overflow_mutant_weighted () =
  assert_shrunk_witness ~entry:(find_mutant "SEC!OVF") ~prop:overflow_prop
    ~expect_kind:"raised"
    ~expect_outcome:(function Explore.Raised _ -> true | _ -> false)
    (Refine.Weighted { seed = 0x5ECL; runs = 32; stay_weight = 4 })

(* Pop reorder: the combiner publishes the remaining stack instead of
   the detached chain, so combined pops read values still reachable from
   [top] — the drain then observes them again and the LIFO check
   convicts. *)
let pop_reorder_prop =
  {
    Refine.pname = "pop-reorder";
    refines = Registry.Stack_sem;
    workload =
      {
        Refine.prefill = [ 1; 2; 3 ];
        threads = [ [ Refine.Pop ]; [ Refine.Pop ] ];
        max_threads = None;
      };
    adversary = Refine.No_adversary;
  }

let test_pop_reorder_mutant_dpor () =
  assert_shrunk_witness ~entry:(find_mutant "SEC!POP") ~prop:pop_reorder_prop
    ~expect_kind:"check-failed"
    ~expect_outcome:(function Explore.Ok_run false -> true | _ -> false)
    (Refine.Dpor { max_preemptions = 1; max_schedules = 500 })

let test_pop_reorder_mutant_weighted () =
  assert_shrunk_witness ~entry:(find_mutant "SEC!POP") ~prop:pop_reorder_prop
    ~expect_kind:"check-failed"
    ~expect_outcome:(function Explore.Ok_run false -> true | _ -> false)
    (Refine.Weighted { seed = 0xC0FFEEL; runs = 32; stay_weight = 4 })

(* ------------------------------------------------------------------ *)
(* The history clock                                                    *)

(* Stacks with no atomic access: a fiber's whole program runs within
   one Explore step. [Amnesic] forgets every push. *)
module Plain (_ : Sec_prim.Prim_intf.S) = struct
  type 'a t = 'a list ref

  let name = "PLAIN"
  let create ?max_threads:_ () = ref []
  let push t ~tid:_ v = t := v :: !t

  let pop t ~tid:_ =
    match !t with
    | v :: rest ->
        t := rest;
        Some v
    | [] -> None

  let peek t ~tid:_ = match !t with v :: _ -> Some v | [] -> None
end

module Amnesic (P : Sec_prim.Prim_intf.S) = struct
  include Plain (P)

  let name = "AMNESIC"
  let push _ ~tid:_ _ = ()
end

(* One fiber pushes then pops within one Explore step. Refine's clock
   must still stamp the push's response strictly before the pop's
   invocation. A bare step clock stamps both with the same step, so the
   checker lets the pop linearize first. *)
let test_clock_orders_one_step () =
  let module S = Plain (Sec_sim.Sim.Prim) in
  let module R = Sec_spec.History.Instrument (Sec_refine.Seq_clock) (S) in
  let events = ref [] in
  let scenario () =
    Sec_refine.Seq_clock.reset ();
    let r = R.create ~max_threads:1 () in
    ( [
        (fun () ->
          R.push r ~tid:0 1;
          ignore (R.pop r ~tid:0));
      ],
      fun () ->
        events := Sec_spec.History.events r.R.history;
        true )
  in
  (match Explore.random_run ~seed:1L scenario with
  | Explore.Ok_run true, _ -> ()
  | _ -> Alcotest.fail "the plain run should pass");
  (match !events with
  | [ push; pop ] ->
      let step ts = Int64.shift_right ts 20 in
      Alcotest.(check int64) "push and pop share one Explore step"
        (step push.Sec_spec.History.resp) (step pop.Sec_spec.History.inv);
      Alcotest.(check bool) "push's response strictly before pop's invocation"
        true
        (Int64.compare push.Sec_spec.History.resp pop.Sec_spec.History.inv < 0)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  (* Through Refine: a pop that misses its own fiber's completed push is
     a violation, not an overlap. *)
  let gu = ref false in
  let scenario =
    Refine.scenario_of ~maker:(module Amnesic : Registry.MAKER)
      ~refines:Registry.Stack_sem ~gave_up:gu
      {
        Refine.prefill = [];
        threads = [ [ Refine.Push 1; Refine.Pop ] ];
        max_threads = None;
      }
  in
  match Explore.random_run ~seed:1L scenario with
  | Explore.Ok_run false, _ -> ()
  | Explore.Ok_run true, _ ->
      Alcotest.fail "a pop after its own fiber's push read empty, unconvicted"
  | _ -> Alcotest.fail "the amnesic run should complete"

(* ------------------------------------------------------------------ *)
(* The ddmin shrinker itself                                            *)

let test_shrink_schedule_ddmin () =
  let mk steps = List.map (fun s -> { Explore.step = s; fiber = 1 }) steps in
  let needed = mk [ 3; 7 ] in
  let still_fails cand = List.for_all (fun p -> List.mem p cand) needed in
  let shrunk =
    Explore.shrink_schedule ~still_fails (mk [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
  in
  Alcotest.(check string)
    "1-minimal schedule"
    (Explore.schedule_to_string needed)
    (Explore.schedule_to_string shrunk);
  (* An empty-failing predicate shrinks to the empty schedule. *)
  Alcotest.(check int) "vacuous failure shrinks to nothing" 0
    (List.length (Explore.shrink_schedule ~still_fails:(fun _ -> true) (mk [ 1; 2; 3 ])))

let () =
  let entry_cases =
    List.map
      (fun (e : Registry.entry) ->
        Alcotest.test_case
          (Printf.sprintf "%s refines %s" e.Registry.name
             (Registry.semantics_to_string e.Registry.spec))
          `Slow (check_entry_case e))
      Registry.refine_set
  in
  Alcotest.run "refine"
    [
      ("registry", entry_cases);
      ( "determinism",
        [
          Alcotest.test_case "same seed, passing structure" `Quick
            test_seed_determinism_passing;
          Alcotest.test_case "same seed, seeded-mutant failure" `Quick
            test_seed_determinism_mutant;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "batch overflow caught + shrunk (dpor)" `Slow
            test_overflow_mutant_dpor;
          Alcotest.test_case "batch overflow caught + shrunk (weighted)" `Slow
            test_overflow_mutant_weighted;
          Alcotest.test_case "pop reorder caught + shrunk (dpor)" `Slow
            test_pop_reorder_mutant_dpor;
          Alcotest.test_case "pop reorder caught + shrunk (weighted)" `Slow
            test_pop_reorder_mutant_weighted;
        ] );
      ( "clock",
        [
          Alcotest.test_case "one step, push before pop" `Quick
            test_clock_orders_one_step;
        ] );
      ( "shrinker",
        [ Alcotest.test_case "ddmin is 1-minimal" `Quick test_shrink_schedule_ddmin ] );
    ]
