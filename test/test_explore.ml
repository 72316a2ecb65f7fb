(* Tests for the bounded model checker: it must PASS correct code over the
   whole bounded schedule space, FAIL deliberately broken code with a
   reproducible schedule, and cope with the blocking SEC machinery. *)

module Explore = Sec_sim.Explore
module SP = Sec_sim.Sim.Prim

let result_kind = function
  | Explore.Passed _ -> "passed"
  | Explore.Failed { kind = Explore.Check_failed; _ } -> "check_failed"
  | Explore.Failed { kind = Explore.Fiber_raised _; _ } -> "raised"
  | Explore.Failed { kind = Explore.Livelock; _ } -> "livelock"
  | Explore.Failed { kind = Explore.Race_detected _; _ } -> "race"
  | Explore.Failed { kind = Explore.Reclamation_violation _; _ } ->
      "reclamation"

(* -------------------------------------------------------------------- *)
(* A racy read-modify-write: increment as get-then-set. Two fibers, two
   increments each: some schedule loses an update. *)

let racy_counter_scenario () =
  let c = SP.Atomic.make 0 in
  let incr_racy () =
    for _ = 1 to 2 do
      let v = SP.Atomic.get c in
      SP.Atomic.set c (v + 1)
    done
  in
  ([ incr_racy; incr_racy ], fun () -> SP.Atomic.get c = 4)

let test_finds_lost_update () =
  match Explore.for_all ~max_preemptions:1 racy_counter_scenario with
  | Explore.Failed { kind = Explore.Check_failed; schedule; _ } ->
      Alcotest.(check bool) "needs at least one forced preemption" true
        (List.length schedule >= 1)
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_replay_reproduces () =
  match Explore.for_all ~max_preemptions:1 racy_counter_scenario with
  | Explore.Failed { schedule; _ } -> (
      match Explore.replay ~schedule racy_counter_scenario with
      | Explore.Ok_run false -> ()
      | Explore.Ok_run true -> Alcotest.fail "replay did not reproduce"
      | Explore.Raised m -> Alcotest.failf "replay raised: %s" m
      | Explore.Livelocked -> Alcotest.fail "replay livelocked")
  | other -> Alcotest.failf "expected a violation, got %s" (result_kind other)

(* A violation's schedule must survive a serialize/parse round-trip and
   still reproduce the same violation kind when pinned — this is the
   workflow for committing a reproduction to a bug report. *)
let test_serialized_replay_reproduces () =
  match Explore.for_all ~max_preemptions:1 racy_counter_scenario with
  | Explore.Failed { kind = Explore.Check_failed; schedule; _ } -> (
      let serialized = Explore.schedule_to_string schedule in
      let parsed = Explore.schedule_of_string serialized in
      Alcotest.(check bool) "round-trip preserves the schedule" true
        (parsed = schedule);
      (* Pin the parsed schedule: the same violation kind must reproduce
         deterministically, run after run. *)
      for _ = 1 to 3 do
        match Explore.replay ~schedule:parsed racy_counter_scenario with
        | Explore.Ok_run false -> ()
        | Explore.Ok_run true ->
            Alcotest.fail "pinned schedule did not reproduce Check_failed"
        | Explore.Raised m -> Alcotest.failf "pinned replay raised: %s" m
        | Explore.Livelocked -> Alcotest.fail "pinned replay livelocked"
      done)
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_schedule_string_roundtrip () =
  let open Explore in
  let s = [ { step = 4; fiber = 1 }; { step = 9; fiber = 0 } ] in
  Alcotest.(check string) "to_string" "4:1;9:0" (schedule_to_string s);
  Alcotest.(check bool) "of_string inverts" true
    (schedule_of_string (schedule_to_string s) = s);
  Alcotest.(check bool) "empty round-trips" true
    (schedule_of_string (schedule_to_string []) = []);
  match schedule_of_string "bogus" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed input must raise"

(* The deliberately racy get-then-set increment must be flagged by the
   race detector itself (not just by the final check): both fibers store
   blindly without an ordering acquire between them. *)
let test_race_detector_flags_racy_scenario () =
  match
    Explore.for_all ~max_preemptions:1 ~detect_races:true racy_counter_scenario
  with
  | Explore.Failed { kind = Explore.Race_detected msg; schedule; _ } ->
      Alcotest.(check bool) "report names the race" true
        (String.length msg > 0);
      Alcotest.(check bool) "has a reproducing schedule" true
        (List.length schedule >= 1)
  | other -> Alcotest.failf "expected Race_detected, got %s" (result_kind other)

let test_correct_faa_passes () =
  let scenario () =
    let c = SP.Atomic.make 0 in
    let incr_atomic () =
      for _ = 1 to 2 do
        ignore (SP.Atomic.fetch_and_add c 1)
      done
    in
    ([ incr_atomic; incr_atomic ], fun () -> SP.Atomic.get c = 4)
  in
  match Explore.for_all ~max_preemptions:2 scenario with
  | Explore.Passed { schedules; truncated } ->
      Alcotest.(check bool) "explored more than one schedule" true
        (schedules > 1);
      Alcotest.(check bool) "space not truncated" false truncated
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* -------------------------------------------------------------------- *)
(* DPOR pruning: conflict-driven branching must find the same seeded bug
   while visiting measurably fewer schedules than exhaustive branching. *)

let schedules_of = function
  | Explore.Passed { schedules; _ } -> schedules
  | Explore.Failed { explored; _ } -> explored

let test_dpor_finds_lost_update () =
  match
    Explore.for_all ~max_preemptions:1 ~strategy:`Dpor racy_counter_scenario
  with
  | Explore.Failed { kind = Explore.Check_failed; _ } -> ()
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_dpor_visits_fewer_schedules () =
  (* A correct scenario, so both strategies sweep their whole space. *)
  let scenario () =
    let c = SP.Atomic.make 0 in
    let private_work = SP.Atomic.make 0 in
    let body () =
      (* Independent accesses dilute the conflict density, which is
         exactly where DPOR wins: preemptions placed between accesses to
         different cells commute and are pruned. *)
      for _ = 1 to 3 do
        ignore (SP.Atomic.get private_work)
      done;
      ignore (SP.Atomic.fetch_and_add c 1)
    in
    ([ body; body ], fun () -> SP.Atomic.get c = 2)
  in
  let exhaustive =
    schedules_of (Explore.for_all ~max_preemptions:2 scenario)
  in
  let dpor =
    schedules_of (Explore.for_all ~max_preemptions:2 ~strategy:`Dpor scenario)
  in
  Alcotest.(check bool)
    (Printf.sprintf "dpor (%d) < exhaustive (%d)" dpor exhaustive)
    true
    (dpor < exhaustive);
  (* "Measurably": at least 2x fewer on this conflict-sparse scenario. *)
  Alcotest.(check bool)
    (Printf.sprintf "dpor (%d) <= exhaustive/2 (%d)" dpor (exhaustive / 2))
    true
    (dpor <= exhaustive / 2)

(* -------------------------------------------------------------------- *)
(* A broken "Treiber" whose pop publishes with a plain store instead of a
   CAS: two concurrent pops can return the same node. *)

let test_finds_broken_pop () =
  let scenario () =
    let top = SP.Atomic.make [ 1; 2; 3 ] in
    let popped = Array.make 2 [] in
    let bad_pop slot () =
      match SP.Atomic.get top with
      | [] -> ()
      | v :: rest ->
          SP.Atomic.set top rest (* BUG: should be compare_and_set *);
          popped.(slot) <- v :: popped.(slot)
    in
    ( [ bad_pop 0; bad_pop 1 ],
      fun () ->
        (* No value may be popped twice. *)
        let all = popped.(0) @ popped.(1) in
        List.length (List.sort_uniq compare all) = List.length all )
  in
  match Explore.for_all ~max_preemptions:1 scenario with
  | Explore.Failed { kind = Explore.Check_failed; _ } -> ()
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_real_treiber_passes () =
  let module T = Sec_stacks.Treiber.Make (SP) in
  let scenario () =
    let s = T.create ~max_threads:2 () in
    T.push s ~tid:0 100;
    let popped = Array.make 2 [] in
    let fiber slot () =
      T.push s ~tid:slot slot;
      match T.pop s ~tid:slot with
      | Some v -> popped.(slot) <- [ v ]
      | None -> ()
    in
    ( [ fiber 0; fiber 1 ],
      fun () ->
        let rec drain acc =
          match T.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
        in
        let all = popped.(0) @ popped.(1) @ drain [] in
        (* Conservation: exactly the three pushed values, each once. *)
        List.sort compare all = [ 0; 1; 100 ] )
  in
  match Explore.for_all ~max_preemptions:2 scenario with
  | Explore.Passed { schedules; _ } ->
      Alcotest.(check bool) "dozens of schedules" true (schedules > 10)
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* -------------------------------------------------------------------- *)
(* SEC under exploration: the full blocking machinery (freezing,
   elimination, combining) must survive every bounded schedule. *)

let sec_scenario () =
  let module Sec = Sec_core.Sec_stack.Make (SP) in
  let s = Sec.create ~max_threads:2 () in
  Sec.push s ~tid:0 100;
  let results = Array.make 2 [] in
  let fiber slot () =
    Sec.push s ~tid:slot slot;
    match Sec.pop s ~tid:slot with
    | Some v -> results.(slot) <- [ v ]
    | None -> ()
  in
  let module Seq = Sec_spec.Seq_stack in
  ignore (Seq.create ());
  ( [ fiber 0; fiber 1 ],
    fun () ->
      let rec drain acc =
        match Sec.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
      in
      let all = results.(0) @ results.(1) @ drain [] in
      List.sort compare all = [ 0; 1; 100 ] )

let test_dpor_passes_correct_sec () =
  match
    Explore.for_all ~max_preemptions:2 ~quantum:6 ~max_schedules:5_000
      ~strategy:`Dpor sec_scenario
  with
  | Explore.Passed _ -> ()
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

let test_sec_conservation_all_schedules () =
  match
    Explore.for_all ~max_preemptions:2 ~quantum:6 ~max_schedules:5_000
      sec_scenario
  with
  | Explore.Passed { schedules; _ } ->
      Alcotest.(check bool) "thousands of schedules" true (schedules > 1_000)
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

let test_sec_elimination_all_schedules () =
  (* A symmetric push/pop pair: across every schedule, the pop returns
     either the concurrent push or the prefilled value — never None. *)
  let module Sec = Sec_core.Sec_stack.Make (SP) in
  let scenario () =
    let s = Sec.create ~max_threads:2 () in
    Sec.push s ~tid:0 7;
    let got = ref (Some (-1)) in
    ( [
        (fun () -> Sec.push s ~tid:0 8);
        (fun () -> got := Sec.pop s ~tid:1);
      ],
      fun () -> match !got with Some 7 | Some 8 -> true | _ -> false )
  in
  match
    Explore.for_all ~max_preemptions:1 ~quantum:6 ~max_schedules:5_000 scenario
  with
  | Explore.Passed _ -> ()
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* -------------------------------------------------------------------- *)
(* TSI peek. Two bugs made native TSI histories non-linearizable; each
   has a pinned witness below.
   - Pending push: fiber 0 pushes 1; fiber 1 peeks, pushes 2 and peeks
     again. A peek that reports 1 while its push is still pending
     (published, interval not yet stamped) puts push 1 before the first
     peek, yet the second peek, after fiber 1's own push 2, reports 1
     again.
   - Unordered maxima: pushes 1 and 2 get overlapping intervals, which
     the TS order leaves unordered. A scan that keeps the first maximal
     node it meets answers by the pool it starts from, so fiber 0 peeks
     1 while fiber 1 peeks (or pops) 2, with both nodes still present.
   Three settings of the bounded search hid them:
   - history timestamps were the bare Explore step, which ticks only at
     atomic accesses, so a fiber's back-to-back operations shared a
     timestamp (response = next invocation) and the checker treated them
     as overlapping, free to reorder (histories are now stamped by
     Sec_refine.Seq_clock);
   - a clock read is no scheduling point, so a push read both ends of its
     interval in one step: intervals were points and never overlapped;
   - the default 8-access quantum rotates a fiber out before its
     operations end, so few preemptions cannot hold a push pending. *)

(* The stacks' substrate: a clock read first reads a private cell, so it
   is a scheduling point and time passes between the two ends of an
   interval, as on hardware. *)
module Clocked = struct
  include SP

  let tick : int Atomic.t option ref = ref None

  let now_ns () =
    Option.iter (fun c -> ignore (Atomic.get c)) !tick;
    SP.now_ns ()
end

module Tsi = Sec_stacks.Ts_stack.Make (Clocked)
module Tsi_ebr = Sec_reclaim.Ts_stack_ebr.Make (Clocked)

let tsi_quantum = 32
let tsi_history : int Sec_spec.History.event list ref = ref []

let tsi_scenario programs (module S : Sec_spec.Stack_intf.S) () =
  Sec_refine.Seq_clock.reset ();
  Clocked.tick := Some (SP.Atomic.make 0);
  let module R = Sec_spec.History.Instrument (Sec_refine.Seq_clock) (S) in
  let r = R.create ~max_threads:(List.length programs) () in
  ( List.mapi
      (fun tid program () ->
        List.iter
          (function
            | Sec_refine.Refine.Push v -> R.push r ~tid v
            | Pop -> ignore (R.pop r ~tid)
            | Peek -> ignore (R.peek r ~tid))
          program)
      programs,
    fun () ->
      tsi_history := Sec_spec.History.events r.R.history;
      match Sec_spec.Lin_check.check !tsi_history with
      | Sec_spec.Lin_check.Linearizable -> true
      | Not_linearizable | Gave_up -> false )

let pending_push = Sec_refine.Refine.[ [ Push 1 ]; [ Peek; Push 2; Peek ] ]

let unordered_maxima =
  Sec_refine.Refine.[ [ Push 1; Peek; Peek ]; [ Push 2; Peek; Pop ] ]

let tsi_stacks =
  [
    ("tsi", (module Tsi : Sec_spec.Stack_intf.S));
    ("tsi-ebr", (module Tsi_ebr : Sec_spec.Stack_intf.S));
  ]

let history_event tid op =
  List.find
    (fun (e : int Sec_spec.History.event) -> e.tid = tid && op e.op)
    !tsi_history

let replay_linearizable name witness scenario =
  let schedule = Explore.schedule_of_string witness in
  Alcotest.(check bool)
    (name ^ ": at most 8 placements")
    true
    (List.length schedule <= 8);
  match Explore.replay ~quantum:tsi_quantum ~schedule scenario with
  | Explore.Ok_run true -> schedule
  | Explore.Ok_run false ->
      Alcotest.failf "%s: history not linearizable under %s" name witness
  | Explore.Raised m -> Alcotest.failf "%s: replay raised %s" name m
  | Explore.Livelocked -> Alcotest.failf "%s: replay livelocked" name

(* Pinned witnesses: [Explore.for_all ~quantum:32] found each against the
   code before the fix and [shrink_schedule] reduced it. *)

(* The replay must put fiber 1's first peek entirely inside push 1 — the
   pending window. The witness preempts fiber 0 between its publish and
   its stamp, at its [step]th access (fiber 0 runs first under the
   baseline); frozen there for good, fiber 0 must not stall the peeker:
   a peek may skip a pending node but never wait for its stamp. *)
let test_tsi_peek_pending_witness () =
  List.iter2
    (fun (name, stack) witness ->
      let scenario = tsi_scenario pending_push stack in
      let schedule = replay_linearizable name witness scenario in
      let push1 =
        history_event 0 (function Sec_spec.History.Push 1 -> true | _ -> false)
      and peek1 =
        history_event 1 (function Sec_spec.History.Peek _ -> true | _ -> false)
      in
      Alcotest.(check bool)
        (name ^ ": first peek inside the pending push")
        true
        (push1.inv < peek1.inv && peek1.resp < push1.resp);
      let stamp = (List.hd schedule).Explore.step in
      match
        Explore.suspended_run ~quantum:tsi_quantum ~victim:0 ~after:stamp
          scenario
      with
      | Explore.Survived { engaged = true } -> ()
      | Explore.Survived { engaged = false } ->
          Alcotest.failf "%s: pusher finished before access %d" name stamp
      | Explore.Blocked ->
          Alcotest.failf "%s: peeker blocked on the pending push" name
      | Explore.Crashed m -> Alcotest.failf "%s: crashed: %s" name m)
    tsi_stacks [ "4:1"; "8:1" ]

(* The replay must overlap the two pushes in real time, so that neither
   order of them is forced. *)
let test_tsi_peek_maxima_witness () =
  List.iter2
    (fun (name, stack) witness ->
      ignore
        (replay_linearizable name witness (tsi_scenario unordered_maxima stack));
      let push v =
        history_event (v - 1) (function
          | Sec_spec.History.Push w -> w = v
          | _ -> false)
      in
      let p1 = push 1 and p2 = push 2 in
      Alcotest.(check bool)
        (name ^ ": pushes overlap")
        true
        (p1.inv < p2.resp && p2.inv < p1.resp))
    tsi_stacks [ "5:1;12:0"; "9:1;21:0" ]

(* The whole bounded space of both scenarios is linearizable. *)
let test_tsi_peek_all_schedules () =
  List.iter
    (fun (name, stack) ->
      List.iter
        (fun programs ->
          match
            Explore.for_all ~quantum:tsi_quantum ~max_preemptions:2
              (tsi_scenario programs stack)
          with
          | Explore.Passed { truncated = false; _ } -> ()
          | other ->
              Alcotest.failf "%s: expected Passed, got %s" name
                (result_kind other))
        [ pending_push; unordered_maxima ])
    tsi_stacks

(* -------------------------------------------------------------------- *)
(* Pathology detection                                                   *)

let test_livelock_detected () =
  let scenario () =
    let flag = SP.Atomic.make false in
    let spin () =
      while not (SP.Atomic.get flag) do
        SP.cpu_relax ()
      done
    in
    ([ spin ], fun () -> true)
  in
  match Explore.for_all ~max_steps:1_000 scenario with
  | Explore.Failed { kind = Explore.Livelock; _ } -> ()
  | other -> Alcotest.failf "expected Livelock, got %s" (result_kind other)

let test_exception_reported () =
  let scenario () = ([ (fun () -> failwith "boom") ], fun () -> true) in
  match Explore.for_all scenario with
  | Explore.Failed { kind = Explore.Fiber_raised msg; _ } ->
      Alcotest.(check bool) "message mentions boom" true
        (String.length msg > 0)
  | other -> Alcotest.failf "expected Fiber_raised, got %s" (result_kind other)

let test_schedule_count_grows_with_bound () =
  let count bound =
    match
      Explore.for_all ~max_preemptions:bound ~max_schedules:100_000
        racy_counter_scenario
    with
    | Explore.Passed { schedules; _ } -> schedules
    | Explore.Failed { explored; _ } -> explored
  in
  Alcotest.(check int) "zero preemptions = single baseline schedule" 1 (count 0)

let () =
  Alcotest.run "explore"
    [
      ( "bug finding",
        [
          Alcotest.test_case "lost update found" `Quick test_finds_lost_update;
          Alcotest.test_case "violation replays" `Quick test_replay_reproduces;
          Alcotest.test_case "serialized schedule replays" `Quick
            test_serialized_replay_reproduces;
          Alcotest.test_case "schedule string round-trip" `Quick
            test_schedule_string_roundtrip;
          Alcotest.test_case "race detector flags racy scenario" `Quick
            test_race_detector_flags_racy_scenario;
          Alcotest.test_case "broken pop found" `Quick test_finds_broken_pop;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "finds lost update" `Quick
            test_dpor_finds_lost_update;
          Alcotest.test_case "fewer schedules than exhaustive" `Quick
            test_dpor_visits_fewer_schedules;
          Alcotest.test_case "sec passes under dpor" `Slow
            test_dpor_passes_correct_sec;
        ] );
      ( "correct code passes",
        [
          Alcotest.test_case "atomic counter" `Quick test_correct_faa_passes;
          Alcotest.test_case "treiber conservation" `Quick
            test_real_treiber_passes;
          Alcotest.test_case "sec conservation" `Slow
            test_sec_conservation_all_schedules;
          Alcotest.test_case "sec elimination" `Slow
            test_sec_elimination_all_schedules;
          Alcotest.test_case "tsi peek pending witness" `Quick
            test_tsi_peek_pending_witness;
          Alcotest.test_case "tsi peek maxima witness" `Quick
            test_tsi_peek_maxima_witness;
          Alcotest.test_case "tsi peek all schedules" `Quick
            test_tsi_peek_all_schedules;
        ] );
      ( "pathologies",
        [
          Alcotest.test_case "livelock" `Quick test_livelock_detected;
          Alcotest.test_case "exception" `Quick test_exception_reported;
          Alcotest.test_case "bound semantics" `Quick
            test_schedule_count_grows_with_bound;
        ] );
    ]
