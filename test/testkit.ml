(* Shared test machinery: every concurrent stack implementation must pass
   the same battery — sequential LIFO semantics, model equivalence,
   multi-domain conservation, and linearizability of recorded histories. *)

module P = Sec_prim.Native

module type STACK = Sec_spec.Stack_intf.S

(* ------------------------------------------------------------------ *)
(* Sequential semantics                                                 *)

let sequential_lifo (module S : STACK) () =
  let s = S.create () in
  Alcotest.(check (option int)) "pop empty" None (S.pop s ~tid:0);
  Alcotest.(check (option int)) "peek empty" None (S.peek s ~tid:0);
  S.push s ~tid:0 1;
  S.push s ~tid:0 2;
  S.push s ~tid:0 3;
  Alcotest.(check (option int)) "peek" (Some 3) (S.peek s ~tid:0);
  Alcotest.(check (option int)) "pop 3" (Some 3) (S.pop s ~tid:0);
  Alcotest.(check (option int)) "pop 2" (Some 2) (S.pop s ~tid:0);
  S.push s ~tid:0 4;
  Alcotest.(check (option int)) "pop 4" (Some 4) (S.pop s ~tid:0);
  Alcotest.(check (option int)) "pop 1" (Some 1) (S.pop s ~tid:0);
  Alcotest.(check (option int)) "pop empty again" None (S.pop s ~tid:0)

let qcheck_sequential_model (module S : STACK) =
  QCheck.Test.make
    ~name:(S.name ^ ": agrees with sequential model")
    ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let s = S.create () in
      let model = Sec_spec.Seq_stack.create () in
      List.for_all
        (function
          | Some v ->
              S.push s ~tid:0 v;
              Sec_spec.Seq_stack.push model v;
              true
          | None ->
              S.pop s ~tid:0 = Sec_spec.Seq_stack.pop model
              && S.peek s ~tid:0 = Sec_spec.Seq_stack.peek model)
        ops)

(* ------------------------------------------------------------------ *)
(* Conservation under real concurrency                                  *)

(* Tag values so that every pushed value is globally unique. *)
let tag ~tid i = (tid * 1_000_000) + i

module IntSet = Set.Make (Int)

(* Each of [threads] domains performs [ops] operations (a random mix of
   pushes of unique values and pops). Afterwards we check that:
   - no value was popped twice,
   - every popped value was pushed,
   - pushed = popped + what remains on the stack. *)
let conservation ?(threads = 4) ?(ops = 3_000) ?(seed = 7) (module S : STACK)
    () =
  let s = S.create ~max_threads:threads () in
  let pushed = Array.make threads [] in
  let popped = Array.make threads [] in
  let body tid () =
    P.seed_rng (Int64.of_int (seed + tid));
    let rng = Sec_prim.Rng.create (Int64.of_int (seed + (100 * tid))) in
    for i = 1 to ops do
      if Sec_prim.Rng.int rng 2 = 0 then begin
        let v = tag ~tid i in
        S.push s ~tid v;
        pushed.(tid) <- v :: pushed.(tid)
      end
      else
        match S.pop s ~tid with
        | Some v -> popped.(tid) <- v :: popped.(tid)
        | None -> ()
    done
  in
  let domains = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join domains;
  (* Drain what remains, single-threaded. *)
  let rec drain acc =
    match S.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
  in
  let remaining = drain [] in
  let all_pushed =
    Array.fold_left (fun acc l -> List.fold_left (fun a v -> IntSet.add v a) acc l)
      IntSet.empty pushed
  in
  let all_popped = Array.to_list popped |> List.concat in
  let popped_set =
    List.fold_left (fun a v -> IntSet.add v a) IntSet.empty all_popped
  in
  Alcotest.(check int)
    "no value popped twice"
    (List.length all_popped)
    (IntSet.cardinal popped_set);
  List.iter
    (fun v ->
      if not (IntSet.mem v all_pushed) then
        Alcotest.failf "popped a never-pushed value: %d" v)
    all_popped;
  let accounted =
    List.fold_left (fun a v -> IntSet.add v a) popped_set remaining
  in
  Alcotest.(check int)
    "pushed = popped + remaining"
    (IntSet.cardinal all_pushed)
    (IntSet.cardinal accounted);
  Alcotest.(check bool)
    "no duplicates between popped and remaining" true
    (List.for_all (fun v -> not (IntSet.mem v popped_set)) remaining)

(* ------------------------------------------------------------------ *)
(* Linearizability of recorded histories                                *)

(* Run a small, highly concurrent workload with operation recording and
   check the history against the LIFO specification. Repeated over many
   seeds to explore distinct interleavings. *)
let linearizability ?(threads = 3) ?(ops = 10) ?(rounds = 15) ?(peeks = true)
    (module S : STACK) () =
  let module I = Sec_spec.History.Instrument (Sec_prim.Native) (S) in
  for round = 1 to rounds do
    let t = I.create ~max_threads:threads () in
    let body tid () =
      P.seed_rng (Int64.of_int ((round * 1000) + tid));
      let rng = Sec_prim.Rng.create (Int64.of_int ((round * 37) + tid)) in
      for i = 1 to ops do
        match Sec_prim.Rng.int rng (if peeks then 5 else 4) with
        | 0 | 1 -> I.push t ~tid (tag ~tid i)
        | 2 | 3 -> ignore (I.pop t ~tid)
        | _ -> ignore (I.peek t ~tid)
      done
    in
    let domains =
      List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1)))
    in
    body 0 ();
    List.iter Domain.join domains;
    let events = Sec_spec.History.events t.history in
    match Sec_spec.Lin_check.check events with
    | Sec_spec.Lin_check.Linearizable -> ()
    | Sec_spec.Lin_check.Gave_up ->
        (* Bounded search exhausted: not a failure, but worth knowing. *)
        Printf.eprintf "[%s] lin check gave up on round %d (%d events)\n%!"
          S.name round (List.length events)
    | Sec_spec.Lin_check.Not_linearizable ->
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        List.iter
          (fun e ->
            Sec_spec.History.pp_event Format.pp_print_int ppf e;
            Format.pp_print_newline ppf ())
          events;
        Format.pp_print_flush ppf ();
        Alcotest.failf "%s: round %d NOT linearizable:\n%s" S.name round
          (Buffer.contents buf)
  done

(* ------------------------------------------------------------------ *)
(* Suite assembly                                                       *)

let standard_suite ?(threads = 4) ?(lin_threads = 3) (module S : STACK) =
  [
    Alcotest.test_case "sequential lifo" `Quick (sequential_lifo (module S));
    QCheck_alcotest.to_alcotest (qcheck_sequential_model (module S));
    Alcotest.test_case "conservation (4 domains)" `Quick
      (conservation ~threads (module S));
    Alcotest.test_case "linearizable histories" `Slow
      (linearizability ~threads:lin_threads (module S));
  ]

(* ------------------------------------------------------------------ *)
(* Observable reclamation                                               *)

(* Schedule pins of registry entries: each [(name, threads, ops,
   schedule digest)] is checked at seed 1, testbox, 100% updates, over
   the BENCH_sim.json window (200 000 cycles over a 64-element
   prefill), so the op counts equal those rows. *)
let check_schedule_pins pins =
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
    pins

(* Epoch-based reclamation as a stack's functor argument, observable from
   outside: [last] holds the state of the stack created most recently
   (for [flush] and [stats]), and [freed] counts the destructors run. *)
module Observed_ebr (P : Sec_prim.Prim_intf.S) = struct
  include Sec_reclaim.Reclaim.Ebr (P)

  let last = ref None
  let freed = Stdlib.Atomic.make 0

  let create ?max_threads () =
    let t = create ?max_threads () in
    last := Some t;
    Stdlib.Atomic.set freed 0;
    t

  let retire t ~tid ?chk destroy =
    retire t ~tid ?chk (fun () ->
        destroy ();
        Stdlib.Atomic.incr freed)

  let state () = Option.get !last
end
