(* The zero-allocation perf layer: per-domain node magazines
   (lib/reclaim/magazine.ml), the reclaim checker's recycling contract,
   the magazine-backed TRB-EBR's observational equivalence with plain
   Treiber, and SEC+MAG's static [tid mod K] routing.

   The sweeps in test_reclaim.ml already model-check the magazine-backed
   structures under preemption with [check_reclamation]; this file covers
   the allocator's own semantics and the end-to-end properties the perf
   work claims (fewer allocations, unchanged behaviour). *)

module Mag = Sec_reclaim.Magazine
module NMag = Sec_reclaim.Magazine.Make (Sec_prim.Native)
module Chk = Sec_analysis.Reclaim_checker
module Config = Sec_core.Config
module Topology = Sec_sim.Topology
module Sim = Sec_sim.Sim
module SP = Sim.Prim

module type STACK = Sec_spec.Stack_intf.S

(* ------------------------------------------------------------------ *)
(* Magazine unit semantics (native substrate, single thread drives
   several tids — legal because we never run two tids concurrently).   *)

let test_local_hit_lifo () =
  let m = NMag.create ~capacity:4 ~max_threads:2 () in
  Alcotest.(check int) "capacity accessor" 4 (NMag.capacity m);
  Alcotest.(check bool)
    "empty magazine misses" true
    (NMag.alloc m ~tid:0 = None);
  let a = ref 1 and b = ref 2 in
  NMag.recycle m ~tid:0 a;
  NMag.recycle m ~tid:0 b;
  let got_b =
    match NMag.alloc m ~tid:0 with Some n -> n == b | None -> false
  in
  Alcotest.(check bool) "LIFO: last recycled node comes out first" true got_b;
  let got_a =
    match NMag.alloc m ~tid:0 with Some n -> n == a | None -> false
  in
  Alcotest.(check bool) "then the earlier one" true got_a;
  Alcotest.(check bool) "then dry again" true (NMag.alloc m ~tid:0 = None);
  let s = NMag.stats m in
  Alcotest.(check int) "hits" 2 s.Mag.hits;
  Alcotest.(check int) "misses" 2 s.Mag.misses;
  Alcotest.(check int) "recycled" 2 s.Mag.recycled

let test_invalid_capacity () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Magazine.create: capacity must be at least 1")
    (fun () -> ignore (NMag.create ~capacity:0 ()))

(* A full magazine emigrates to the slab store as one chain; once tid
   0's active slab holds a slab's worth of chains it is parked, and a
   different tid — which never recycled anything — adopts it whole. *)
let test_slab_overflow_and_adoption () =
  let m = NMag.create ~capacity:2 ~max_threads:4 () in
  let nodes = Array.init 9 (fun i -> ref i) in
  Array.iter (fun n -> NMag.recycle m ~tid:0 n) nodes;
  (* capacity 2: recycles 3, 5, 7 and 9 each emigrate a full chain; the
     fourth fills the slab (4 chains by default), which parks *)
  let s = NMag.stats m in
  Alcotest.(check int) "recycled" 9 s.Mag.recycled;
  Alcotest.(check int) "four chains emigrated" 4 s.Mag.chain_puts;
  let sl = NMag.slab_stats m in
  Alcotest.(check int) "the full slab parked" 1 sl.Sec_reclaim.Slab.parks;
  (* tid 3 starts empty: everything it gets comes from the parked slab *)
  let adopted = ref 0 in
  (try
     while !adopted < 9 do
       match NMag.alloc m ~tid:3 with
       | Some _ -> incr adopted
       | None -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check int) "adopted the eight parked nodes" 8 !adopted;
  let s = NMag.stats m in
  Alcotest.(check int) "four chains adopted" 4 s.Mag.chain_gets;
  let sl = NMag.slab_stats m in
  Alcotest.(check int) "one slab adoption" 1 sl.Sec_reclaim.Slab.adopts;
  Alcotest.(check int) "the store is drained" 0 sl.Sec_reclaim.Slab.pooled;
  (* the ninth node stayed in tid 0's private magazine *)
  let got_last =
    match NMag.alloc m ~tid:0 with
    | Some n -> n == nodes.(8)
    | None -> false
  in
  Alcotest.(check bool) "owner still holds its private node" true got_last

let test_global_tallies () =
  Mag.Global.reset ();
  let m = NMag.create ~capacity:2 ~max_threads:2 () in
  ignore (NMag.alloc m ~tid:0);
  NMag.recycle m ~tid:0 (ref 0);
  ignore (NMag.alloc m ~tid:0);
  let s = Mag.Global.snapshot () in
  Alcotest.(check int) "global hits" 1 s.Mag.Global.hits;
  Alcotest.(check int) "global misses" 1 s.Mag.Global.misses;
  Alcotest.(check int) "global recycled" 1 s.Mag.Global.recycled;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Mag.Global.hit_rate s);
  Mag.Global.reset ();
  let z = Mag.Global.snapshot () in
  Alcotest.(check int) "reset clears" 0 (z.Mag.Global.hits + z.Mag.Global.misses + z.Mag.Global.recycled);
  Alcotest.(check (float 1e-9)) "empty hit rate" 0.0 (Mag.Global.hit_rate z)

(* ------------------------------------------------------------------ *)
(* The reclaim checker's recycling contract. *)

(* A node whose first life ran the full
   alloc -> publish -> access -> unlink -> retire -> reclaim cycle may
   re-enter a magazine; its reincarnation is a fresh node to the shadow
   heap and lives a clean second life. *)
let test_recycle_after_full_cycle_is_clean () =
  let t = Chk.create () in
  let id = Chk.on_alloc t ~fiber:0 in
  Chk.on_publish t ~fiber:0 ~node:id;
  Chk.on_enter t ~fiber:1;
  Chk.on_access t ~fiber:1 ~node:id;
  Chk.on_exit t ~fiber:1;
  Chk.on_unlink t ~fiber:0 ~node:id;
  Chk.on_retire t ~fiber:0 ~node:id;
  Chk.on_reclaim t ~fiber:0 ~node:id;
  let id' = Chk.on_recycle t ~fiber:0 ~node:id in
  Alcotest.(check bool) "reincarnation gets a fresh id" true (id' <> id);
  (* second life through the same protocol *)
  Chk.on_publish t ~fiber:0 ~node:id';
  Chk.on_unlink t ~fiber:0 ~node:id';
  Chk.on_retire t ~fiber:0 ~node:id';
  Chk.on_reclaim t ~fiber:0 ~node:id';
  Alcotest.(check int) "no reports" 0 (List.length (Chk.reports t))

(* Recycling a node whose destructor never ran (the grace period was
   skipped) is exactly the bug the contract exists to catch. *)
let test_recycle_of_live_reported () =
  let t = Chk.create () in
  let id = Chk.on_alloc t ~fiber:0 in
  Chk.on_publish t ~fiber:0 ~node:id;
  Chk.on_unlink t ~fiber:0 ~node:id;
  Chk.on_retire t ~fiber:0 ~node:id;
  ignore (Chk.on_recycle t ~fiber:1 ~node:id);
  match Chk.reports t with
  | [ r ] ->
      Alcotest.(check string)
        "kind" "recycle-of-live"
        (Chk.kind_to_string r.Chk.kind)
  | rs ->
      Alcotest.failf "expected exactly one report, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Magazine-backed TRB-EBR behaves exactly like plain Treiber. *)

module NT = Sec_stacks.Treiber.Make (Sec_prim.Native)
module NE = Sec_reclaim.Treiber_ebr.Make (Sec_prim.Native)

(* Deterministic op stream, applied to both stacks in lockstep; every
   observable result must agree. The stream is long enough that EBR's
   grace periods expire and pushes really do draw recycled nodes (the
   global tallies prove it), so the equivalence covers second-life
   nodes, not just fresh ones. *)
let test_differential_vs_treiber () =
  Mag.Global.reset ();
  let t = NT.create ~max_threads:1 () in
  let e = NE.create ~max_threads:1 () in
  let state = ref 0x2545F491 in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = 1 to 10_000 do
    match rand 5 with
    | 0 | 1 | 2 ->
        NT.push t ~tid:0 i;
        NE.push e ~tid:0 i
    | 3 ->
        let a = NT.pop t ~tid:0 and b = NE.pop e ~tid:0 in
        Alcotest.(check (option int)) "pop agrees" a b
    | _ ->
        let a = NT.peek t ~tid:0 and b = NE.peek e ~tid:0 in
        Alcotest.(check (option int)) "peek agrees" a b
  done;
  let rec drain () =
    let a = NT.pop t ~tid:0 and b = NE.pop e ~tid:0 in
    Alcotest.(check (option int)) "drain agrees" a b;
    if a <> None then drain ()
  in
  drain ();
  let s = Mag.Global.snapshot () in
  Alcotest.(check bool)
    "the run exercised recycled nodes" true
    (s.Mag.Global.recycled > 0 && s.Mag.Global.hits > 0)

(* The same equivalence under the simulator's interleavings: recorded
   concurrent histories of the magazine-backed stack stay linearizable
   against the sequential LIFO spec. *)
module SimTrbEbr = Sec_reclaim.Treiber_ebr.Make (SP)

let test_sim_linearizable () =
  let module I = Sec_spec.History.Instrument (SP) (SimTrbEbr) in
  for seed = 1 to 6 do
    let events, _ =
      Sim.run ~seed ~jitter:40 ~topology:Topology.testbox (fun () ->
          let t = I.create ~max_threads:4 () in
          for _ = 1 to 4 do
            Sim.spawn (fun () ->
                let tid = Sim.fiber_id () in
                for i = 1 to 6 do
                  match SP.rand_int 5 with
                  | 0 | 1 -> I.push t ~tid ((tid * 1_000_000) + i)
                  | 2 | 3 -> ignore (I.pop t ~tid)
                  | _ -> ignore (I.peek t ~tid)
                done)
          done;
          Sim.await_all ();
          Sec_spec.History.events t.I.history)
    in
    match Sec_spec.Lin_check.check events with
    | Sec_spec.Lin_check.Linearizable -> ()
    | Sec_spec.Lin_check.Gave_up ->
        Printf.eprintf "[TRB-EBR] lin check gave up (seed %d)\n%!" seed
    | Sec_spec.Lin_check.Not_linearizable ->
        Alcotest.failf "TRB-EBR: seed %d produced a non-linearizable history"
          seed
  done

(* And the point of it all: the magazine-backed stack allocates fewer
   nodes than plain Treiber on the same workload, counted by the
   simulator's first-class allocation statistic. *)
module SimTrb = Sec_stacks.Treiber.Make (SP)

let sim_allocs (module S : STACK) =
  let _, stats =
    Sim.run ~seed:11 ~jitter:3 ~topology:Topology.testbox (fun () ->
        let s = S.create ~max_threads:8 () in
        for _ = 1 to 4 do
          Sim.spawn (fun () ->
              let tid = Sim.fiber_id () in
              for i = 1 to 300 do
                S.push s ~tid i;
                ignore (S.pop s ~tid)
              done)
        done;
        Sim.await_all ())
  in
  stats.Sim.allocs

let test_fewer_allocations () =
  let trb = sim_allocs (module SimTrb) in
  let ebr = sim_allocs (module SimTrbEbr) in
  Alcotest.(check bool)
    (Printf.sprintf "TRB-EBR allocates less (TRB %d, TRB-EBR %d)" trb ebr)
    true (ebr < trb)

(* ------------------------------------------------------------------ *)
(* Static sharding: SEC+MAG routes [tid] to aggregator [tid mod K]. *)

module SimSec = Sec_core.Sec_stack.Make (SP)

(* Two fibers on different aggregators (tids 0 and 1, K = 2) never meet
   in a batch, so every frozen batch holds exactly one operation; on the
   same aggregator (tids 0 and 2) some batches hold both. *)
let batch_tally tids =
  let config = Config.with_stats (Config.with_recycling Config.default) in
  fst
    (Sim.run ~seed:3 ~jitter:4 ~topology:Topology.testbox (fun () ->
         let s = SimSec.create_with ~config ~max_threads:4 () in
         List.iter
           (fun tid ->
             Sim.spawn (fun () ->
                 for i = 1 to 50 do
                   SimSec.push s ~tid i;
                   ignore (SimSec.pop s ~tid)
                 done))
           tids;
         Sim.await_all ();
         let st = SimSec.stats s in
         (st.Sec_core.Sec_stats.batches, st.Sec_core.Sec_stats.operations)))

let test_shards_never_share () =
  let batches, ops = batch_tally [ 0; 1 ] in
  Alcotest.(check int) "tids 0 and 1: 200 operations" 200 ops;
  Alcotest.(check int) "tids 0 and 1: one operation per batch" ops batches;
  let batches, ops = batch_tally [ 0; 2 ] in
  Alcotest.(check int) "tids 0 and 2: 200 operations" 200 ops;
  Alcotest.(check bool)
    (Printf.sprintf "tids 0 and 2 share batches (%d batches)" batches)
    true (batches < ops)

let () =
  Alcotest.run "magazine"
    [
      ( "allocator",
        [
          Alcotest.test_case "local hit is LIFO" `Quick test_local_hit_lifo;
          Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
          Alcotest.test_case "slab overflow + cross-tid adoption" `Quick
            test_slab_overflow_and_adoption;
          Alcotest.test_case "global tallies" `Quick test_global_tallies;
        ] );
      ( "checker contract",
        [
          Alcotest.test_case "recycle after full cycle is clean" `Quick
            test_recycle_after_full_cycle_is_clean;
          Alcotest.test_case "recycle of live node reported" `Quick
            test_recycle_of_live_reported;
        ] );
      ( "differential",
        [
          Alcotest.test_case "lockstep with plain Treiber" `Quick
            test_differential_vs_treiber;
          Alcotest.test_case "sim histories linearizable" `Quick
            test_sim_linearizable;
          Alcotest.test_case "fewer simulated allocations" `Quick
            test_fewer_allocations;
        ] );
      ( "tid mod K routing",
        [
          Alcotest.test_case "shards never share a batch" `Quick
            test_shards_never_share;
        ] );
    ]
