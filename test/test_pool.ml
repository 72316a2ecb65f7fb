(* Tests for the SEC-style pool (the paper's "independent interest"
   extension): bag semantics — nothing lost, nothing duplicated — plus
   elimination and sharded-stealing behaviour. *)

module P = Sec_prim.Native
module Pool = Sec_core.Sec_pool.Make (P)
module SimPool = Sec_core.Sec_pool.Make (Sec_sim.Sim.Prim)
module IntSet = Set.Make (Int)

let test_sequential_bag () =
  let p = Pool.create ~max_threads:1 () in
  Alcotest.(check (option int)) "empty pop" None (Pool.pop p ~tid:0);
  Pool.push p ~tid:0 1;
  Pool.push p ~tid:0 2;
  Pool.push p ~tid:0 3;
  Alcotest.(check int) "size" 3 (Pool.size p);
  let drained =
    List.sort compare
      (List.filter_map (fun _ -> Pool.pop p ~tid:0) [ (); (); () ])
  in
  Alcotest.(check (list int)) "all values come back" [ 1; 2; 3 ] drained;
  Alcotest.(check (option int)) "empty again" None (Pool.pop p ~tid:0)

let test_sequential_lifo_within_thread () =
  (* A single thread with one aggregator sees LIFO order (each op is its
     own batch against the local store). *)
  let p = Pool.create ~aggregators:1 ~max_threads:1 () in
  Pool.push p ~tid:0 1;
  Pool.push p ~tid:0 2;
  Alcotest.(check (option int)) "lifo pop" (Some 2) (Pool.pop p ~tid:0);
  Alcotest.(check (option int)) "lifo pop" (Some 1) (Pool.pop p ~tid:0)

let test_stealing_across_aggregators () =
  (* Values pushed via aggregator 0 must be reachable from a popper bound
     to aggregator 1 (its own store is empty, so it steals). *)
  let p = Pool.create ~aggregators:2 ~max_threads:4 () in
  Pool.push p ~tid:0 11;
  Pool.push p ~tid:0 22;
  Alcotest.(check bool) "steal finds a value" true (Pool.pop p ~tid:1 <> None);
  Alcotest.(check bool) "steal finds the other" true (Pool.pop p ~tid:1 <> None);
  Alcotest.(check (option int)) "then empty" None (Pool.pop p ~tid:1)

let test_conservation_native () =
  let threads = 4 and ops = 3_000 in
  let p = Pool.create ~max_threads:threads () in
  let pushed = Array.make threads [] and popped = Array.make threads [] in
  let body tid () =
    let rng = Sec_prim.Rng.create (Int64.of_int (tid + 9)) in
    for i = 1 to ops do
      if Sec_prim.Rng.int rng 2 = 0 then begin
        let v = (tid * 1_000_000) + i in
        Pool.push p ~tid v;
        pushed.(tid) <- v :: pushed.(tid)
      end
      else
        match Pool.pop p ~tid with
        | Some v -> popped.(tid) <- v :: popped.(tid)
        | None -> ()
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  let rec drain acc =
    match Pool.pop p ~tid:0 with Some v -> drain (v :: acc) | None -> acc
  in
  let remaining = drain [] in
  let all_pushed =
    Array.fold_left
      (fun acc l -> List.fold_left (fun a v -> IntSet.add v a) acc l)
      IntSet.empty pushed
  in
  let all_popped = (Array.to_list popped |> List.concat) @ remaining in
  let popped_set =
    List.fold_left (fun a v -> IntSet.add v a) IntSet.empty all_popped
  in
  Alcotest.(check int) "no duplicates" (List.length all_popped)
    (IntSet.cardinal popped_set);
  Alcotest.(check int) "nothing lost, nothing invented"
    (IntSet.cardinal all_pushed)
    (IntSet.cardinal popped_set);
  Alcotest.(check bool) "popped subset of pushed" true
    (IntSet.subset popped_set all_pushed)

let test_conservation_simulated_at_scale () =
  let threads = 40 and ops = 100 in
  let delta, _ =
    Sec_sim.Sim.run ~topology:Sec_sim.Topology.emerald (fun () ->
        let p = SimPool.create ~aggregators:4 ~max_threads:threads () in
        let pushed = ref 0 and popped = ref 0 in
        for _ = 1 to threads do
          Sec_sim.Sim.spawn (fun () ->
              let tid = Sec_sim.Sim.fiber_id () in
              for i = 1 to ops do
                if Sec_sim.Sim.Prim.rand_int 2 = 0 then begin
                  SimPool.push p ~tid i;
                  incr pushed
                end
                else
                  match SimPool.pop p ~tid with
                  | Some _ -> incr popped
                  | None -> ()
              done)
        done;
        Sec_sim.Sim.await_all ();
        let rec drain n =
          match SimPool.pop p ~tid:0 with
          | Some _ -> drain (n + 1)
          | None -> n
        in
        !pushed - !popped - drain 0)
  in
  Alcotest.(check int) "pushed = popped + drained (40 fibers)" 0 delta

let test_no_global_hot_spot () =
  (* Sanity on the design claim: two aggregators maintain two disjoint
     backing stores; pushing via tid 0 and tid 1 populates both. *)
  let p = Pool.create ~aggregators:2 ~max_threads:2 () in
  for i = 1 to 10 do
    Pool.push p ~tid:0 i;
    Pool.push p ~tid:1 (100 + i)
  done;
  Alcotest.(check int) "all present" 20 (Pool.size p);
  (* Draining from one tid must still find everything (stealing). *)
  let rec drain n =
    match Pool.pop p ~tid:0 with Some _ -> drain (n + 1) | None -> n
  in
  Alcotest.(check int) "drained everything from one side" 20 (drain 0)

(* Schedule pin: the pool's whole simulated schedule under a fixed seed,
   8 fibers on 2 aggregators, 100% updates. The pool runs on the shared
   batch engine, so an engine edit that moves the pool's schedule (its
   freezer, announce or combine steps) changes this digest and must be
   re-recorded deliberately. Before freeze waiters started probing at
   [poll_step] (and a filled elimination slot took two reads) it was
   3361906400065417051; until read hits that no write can overtake
   stopped rescheduling, 2638060712388763491. *)
let pinned_pool_digest = 4454502950113138851

let pool_schedule_digest () =
  let _, stats =
    Sec_sim.Sim.run ~seed:42 ~topology:Sec_sim.Topology.emerald (fun () ->
        let p = SimPool.create ~aggregators:2 ~max_threads:8 () in
        for _ = 1 to 8 do
          Sec_sim.Sim.spawn (fun () ->
              let tid = Sec_sim.Sim.fiber_id () in
              for i = 1 to 50 do
                if Sec_sim.Sim.Prim.rand_int 2 = 0 then SimPool.push p ~tid i
                else ignore (SimPool.pop p ~tid)
              done)
        done;
        Sec_sim.Sim.await_all ())
  in
  stats.Sec_sim.Sim.schedule_digest

let test_schedule_pin () =
  Alcotest.(check int) "pool schedule digest (seed 42, 8 fibers, 2 shards)"
    pinned_pool_digest (pool_schedule_digest ())

let qcheck_pool_multiset =
  QCheck.Test.make ~name:"pool: sequential multiset semantics" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let p = Pool.create ~max_threads:1 () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (function
          | Some v ->
              Pool.push p ~tid:0 v;
              model := v :: !model
          | None -> (
              match Pool.pop p ~tid:0 with
              | Some v ->
                  if List.mem v !model then
                    model :=
                      (let removed = ref false in
                       List.filter
                         (fun x ->
                           if x = v && not !removed then begin
                             removed := true;
                             false
                           end
                           else true)
                         !model)
                  else ok := false
              | None -> if !model <> [] then ok := false))
        ops;
      !ok && List.length !model = Pool.size p)

let () =
  Alcotest.run "pool"
    [
      ( "sequential",
        [
          Alcotest.test_case "bag" `Quick test_sequential_bag;
          Alcotest.test_case "per-thread lifo" `Quick
            test_sequential_lifo_within_thread;
          Alcotest.test_case "stealing" `Quick test_stealing_across_aggregators;
          QCheck_alcotest.to_alcotest qcheck_pool_multiset;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "conservation (domains)" `Quick
            test_conservation_native;
          Alcotest.test_case "conservation (40 fibers)" `Quick
            test_conservation_simulated_at_scale;
          Alcotest.test_case "sharded stores" `Quick test_no_global_hot_spot;
          Alcotest.test_case "schedule pin" `Quick test_schedule_pin;
        ] );
    ]
