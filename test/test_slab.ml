(* The wait-free slab allocator and off-heap arena
   (lib/reclaim/slab.ml): chain-level slab semantics, park/adopt
   hand-off, arena handle lifecycle and remote-free batching, the
   reclaim checker's slab/arena shadow-heap contract (seeded
   double-free and use-after-release mutants caught under pinned
   replay), the slab-backed stacks against their GC twins — including
   SEC's recycling crossing the store from consumers to producers — and
   the cross-domain CAS counts of the microbenchmark `sec_bench alloc`
   runs, pinned per phase. *)

module Slab = Sec_reclaim.Slab
module NSl = Sec_reclaim.Slab.Make (Sec_prim.Native)
module Chk = Sec_analysis.Reclaim_checker
module Topology = Sec_sim.Topology
module Sim = Sec_sim.Sim
module SP = Sim.Prim
module AB = Sec_harness.Alloc_bench

module type STACK = Sec_spec.Stack_intf.S

(* ------------------------------------------------------------------ *)
(* Slab store semantics (native substrate; one thread drives several
   tids, legal because no two tids ever run concurrently here). *)

let test_chain_round_trip () =
  let s = NSl.create ~chain_len:4 ~slab_chains:2 ~max_threads:2 () in
  Alcotest.(check int) "chain_len accessor" 4 (NSl.chain_len s);
  Alcotest.(check bool) "dry store misses" true (NSl.alloc_chain s ~tid:0 = None);
  let chain = (4, [ ref 1; ref 2; ref 3; ref 4 ]) in
  NSl.free_chain s ~tid:0 chain;
  (match NSl.alloc_chain s ~tid:0 with
  | Some (len, nodes) ->
      Alcotest.(check int) "length survives" 4 len;
      Alcotest.(check bool) "same chain comes back" true (nodes == snd chain)
  | None -> Alcotest.fail "the freed chain should be allocatable");
  let st = NSl.stats s in
  Alcotest.(check int) "one chain in" 1 st.Slab.chain_puts;
  Alcotest.(check int) "one chain out" 1 st.Slab.chain_gets;
  Alcotest.(check int) "one miss tallied" 1 st.Slab.fresh

let test_park_and_adopt () =
  Slab.Global.reset ();
  (* slab_chains = 2: the second free_chain fills tid 0's active slab
     and parks it on the shared partial stack. *)
  let s = NSl.create ~chain_len:2 ~slab_chains:2 ~max_threads:4 () in
  NSl.free_chain s ~tid:0 (2, [ ref 1; ref 2 ]);
  NSl.free_chain s ~tid:0 (2, [ ref 3; ref 4 ]);
  let st = NSl.stats s in
  Alcotest.(check int) "full slab parked" 1 st.Slab.parks;
  Alcotest.(check int) "park kept its nodes pooled" 4 st.Slab.pooled;
  Alcotest.(check int) "one slab on the partial stack" 1 st.Slab.parked_slabs;
  (* tid 3 never freed anything: its first alloc adopts the parked
     slab in ONE CAS and drains both chains from it. *)
  (match NSl.alloc_chain s ~tid:3 with
  | Some (len, _) -> Alcotest.(check int) "adopted chain length" 2 len
  | None -> Alcotest.fail "adoption should refill tid 3");
  (match NSl.alloc_chain s ~tid:3 with
  | Some _ -> ()
  | None -> Alcotest.fail "the adopted slab held a second chain");
  let st = NSl.stats s in
  Alcotest.(check int) "one adoption" 1 st.Slab.adopts;
  Alcotest.(check int) "store drained" 0 st.Slab.pooled;
  (* the Global mirror saw the same wait-free traffic: no retries. *)
  let g = Slab.Global.snapshot () in
  Alcotest.(check int) "global parks" 1 g.Slab.Global.parks;
  Alcotest.(check int) "global adopts" 1 g.Slab.Global.adopts;
  Alcotest.(check int) "no lost CAS in a sequential run" 0
    (Slab.Global.cas_retries g)

let test_create_validates () =
  Alcotest.check_raises "chain_len must be positive"
    (Invalid_argument "Slab.create: chain_len must be at least 1") (fun () ->
      ignore (NSl.create ~chain_len:0 ()))

(* ------------------------------------------------------------------ *)
(* Off-heap arena semantics (native substrate). *)

let test_arena_round_trip_and_reuse () =
  let a = NSl.Arena.create ~slab_slots:8 ~max_slabs:2 ~max_threads:2 () in
  let h = NSl.Arena.alloc a ~tid:0 in
  NSl.Arena.set_value a h 42;
  NSl.Arena.set_link a h (-1);
  Alcotest.(check int) "value survives" 42 (NSl.Arena.get_value a h);
  Alcotest.(check int) "live counts the slot" 1 (NSl.Arena.live a);
  NSl.Arena.free a ~tid:0 h;
  Alcotest.(check int) "free empties the arena" 0 (NSl.Arena.live a);
  let h' = NSl.Arena.alloc a ~tid:0 in
  Alcotest.(check int) "owner free list is LIFO: same slot again" h h';
  NSl.Arena.free a ~tid:0 h';
  let st = NSl.Arena.stats a in
  Alcotest.(check int) "one slab carved" 1 st.Slab.carved;
  Alcotest.(check int) "no remote traffic" 0 st.Slab.remote_frees

let test_arena_remote_batching () =
  Slab.Global.reset ();
  let a =
    NSl.Arena.create ~slab_slots:16 ~max_slabs:2 ~max_threads:2
      ~remote_batch:4 ()
  in
  (* tid 0 owns the slab it carves; tid 1 frees remotely. *)
  let handles = Array.init 10 (fun _ -> NSl.Arena.alloc a ~tid:0) in
  Array.iter (fun h -> NSl.Arena.free a ~tid:1 h) handles;
  let st = NSl.Arena.stats a in
  Alcotest.(check int) "every free was remote" 10 st.Slab.remote_frees;
  (* batch size 4: 10 frees splice two full batches, 2 slots linger in
     the outbox until the explicit flush. *)
  Alcotest.(check int) "two full batches spliced" 2 st.Slab.remote_batches;
  NSl.Arena.flush_remote a ~tid:1;
  let st = NSl.Arena.stats a in
  Alcotest.(check int) "flush publishes the tail batch" 3
    st.Slab.remote_batches;
  Alcotest.(check int) "nothing live once published" 0 (NSl.Arena.live a);
  (* adoption is lazy: the owner drains its private free list (16-slot
     slab minus the 10 handed over = 6 slots) before touching the
     inbox; the 7th allocation finds the list dry and adopts all 10
     remote slots in one exchange, instead of carving a second slab. *)
  let drained = Array.init 6 (fun _ -> NSl.Arena.alloc a ~tid:0) in
  Alcotest.(check int) "no adoption while the free list holds out" 0
    (NSl.Arena.stats a).Slab.adopted;
  let h = NSl.Arena.alloc a ~tid:0 in
  Alcotest.(check int) "adoption recovered the remote slots" 10
    (NSl.Arena.stats a).Slab.adopted;
  Alcotest.(check int) "still one slab carved" 1
    (NSl.Arena.stats a).Slab.carved;
  NSl.Arena.free a ~tid:0 h;
  Array.iter (fun h -> NSl.Arena.free a ~tid:0 h) drained;
  (* occupancy gauge: everything pooled again. *)
  let g = Slab.Global.snapshot () in
  Alcotest.(check int) "pooled equals capacity" g.Slab.Global.capacity
    g.Slab.Global.pooled

let test_arena_exhaustion_raises () =
  let a = NSl.Arena.create ~slab_slots:2 ~max_slabs:1 ~max_threads:1 () in
  ignore (NSl.Arena.alloc a ~tid:0);
  ignore (NSl.Arena.alloc a ~tid:0);
  let raised =
    try
      ignore (NSl.Arena.alloc a ~tid:0);
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "a full chunk refuses to carve" true raised

(* ------------------------------------------------------------------ *)
(* The reclaim checker's slab/arena shadow heap: the lifecycle rules
   the new report kinds enforce, fed directly. *)

let test_checker_clean_slab_lifecycle () =
  let t = Chk.create () in
  let id = Chk.on_slot_alloc t ~fiber:0 ~slab:7 ~slot:3 in
  Chk.on_publish t ~fiber:0 ~node:id;
  Chk.on_unlink t ~fiber:0 ~node:id;
  Chk.on_retire t ~fiber:0 ~node:id;
  Chk.on_slot_free t ~fiber:0 ~slab:7 ~slot:3;
  (* the slot is free again: a second life is a fresh shadow node *)
  let id' = Chk.on_slot_alloc t ~fiber:1 ~slab:7 ~slot:3 in
  Alcotest.(check bool) "reincarnation gets a fresh id" true (id' <> id);
  Chk.on_slot_free t ~fiber:1 ~slab:7 ~slot:3;
  Chk.on_slab_release t ~fiber:0 ~slab:7;
  Alcotest.(check int) "clean lifecycle, no reports" 0
    (List.length (Chk.reports t))

let test_checker_slab_double_free () =
  let t = Chk.create () in
  let _id = Chk.on_slot_alloc t ~fiber:0 ~slab:1 ~slot:0 in
  Chk.on_slot_free t ~fiber:0 ~slab:1 ~slot:0;
  Chk.on_slot_free t ~fiber:1 ~slab:1 ~slot:0;
  match Chk.reports t with
  | [ r ] ->
      Alcotest.(check string) "kind" "slab-double-free"
        (Chk.kind_to_string r.Chk.kind)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_checker_two_owners_reported () =
  let t = Chk.create () in
  let _a = Chk.on_slot_alloc t ~fiber:0 ~slab:2 ~slot:5 in
  let _b = Chk.on_slot_alloc t ~fiber:1 ~slab:2 ~slot:5 in
  match Chk.reports t with
  | [ r ] ->
      Alcotest.(check string) "kind" "alloc-from-live-slab"
        (Chk.kind_to_string r.Chk.kind)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_checker_alloc_after_release () =
  let t = Chk.create () in
  Chk.on_slab_release t ~fiber:0 ~slab:3;
  ignore (Chk.on_slot_alloc t ~fiber:1 ~slab:3 ~slot:0);
  match Chk.reports t with
  | [ r ] ->
      Alcotest.(check string) "kind" "alloc-from-live-slab"
        (Chk.kind_to_string r.Chk.kind)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_checker_use_after_arena_release () =
  let t = Chk.create () in
  let id = Chk.on_slot_alloc t ~fiber:0 ~slab:4 ~slot:1 in
  Chk.on_publish t ~fiber:0 ~node:id;
  (* releasing the slab forces every resident node to Reclaimed... *)
  Chk.on_slab_release t ~fiber:0 ~slab:4;
  (* ...so a stale handle dereference is a use-after-reclaim. *)
  Chk.on_enter t ~fiber:1;
  Chk.on_access t ~fiber:1 ~node:id;
  Chk.on_exit t ~fiber:1;
  let kinds = List.map (fun r -> Chk.kind_to_string r.Chk.kind) (Chk.reports t) in
  Alcotest.(check bool)
    (Printf.sprintf "use-after-reclaim reported (got: %s)"
       (String.concat ", " kinds))
    true
    (List.mem "use-after-reclaim" kinds)

(* ------------------------------------------------------------------ *)
(* The same two mutants seeded into real arena runs on the simulator,
   with the checker installed: the shadow heap must catch them under
   every pinned seed (the runs are deterministic, so catching them once
   per seed IS the pinned replay). *)

module SimSl = Slab.Make (SP)

let arena_mutant_kinds ~seed mutate =
  let chk = Chk.create () in
  let (_ : unit), _ =
    Sim.run ~seed ~jitter:3 ~reclaim_checker:chk ~topology:Topology.testbox
      (fun () ->
        let a =
          SimSl.Arena.create ~slab_slots:8 ~max_slabs:2 ~max_threads:4 ()
        in
        Sim.spawn (fun () ->
            let tid = Sim.fiber_id () in
            let h = SimSl.Arena.alloc a ~tid in
            SimSl.Arena.set_value a h 1;
            mutate a ~tid h);
        Sim.await_all ())
  in
  List.map (fun r -> Chk.kind_to_string r.Chk.kind) (Chk.reports chk)

let test_sim_double_free_mutant_caught () =
  List.iter
    (fun seed ->
      let kinds =
        arena_mutant_kinds ~seed (fun a ~tid h ->
            SimSl.Arena.free a ~tid h;
            SimSl.Arena.free a ~tid h)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d catches the double free (got: %s)" seed
           (String.concat ", " kinds))
        true
        (List.mem "slab-double-free" kinds))
    [ 1; 2; 3 ]

let test_sim_alloc_after_release_mutant_caught () =
  List.iter
    (fun seed ->
      let kinds =
        arena_mutant_kinds ~seed (fun a ~tid h ->
            SimSl.Arena.free a ~tid h;
            SimSl.Arena.release a ~tid;
            ignore (SimSl.Arena.alloc a ~tid))
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d catches alloc-after-release (got: %s)" seed
           (String.concat ", " kinds))
        true
        (List.mem "alloc-from-live-slab" kinds))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Lockstep differentials: the slab-backed stacks are observationally
   identical to their GC twins. The phased workload (mixed ops, then a
   deep drain, then a refill) forces the magazines past capacity so
   chains really cross the slab store. *)

module NT = Sec_stacks.Treiber.Make (Sec_prim.Native)
module NE = Sec_reclaim.Treiber_ebr.Make (Sec_prim.Native)
module NA = Sec_reclaim.Treiber_arena.Make (Sec_prim.Native)

let test_differential_lockstep () =
  Slab.Global.reset ();
  let t = NT.create ~max_threads:1 () in
  let e = NE.create ~max_threads:1 () in
  let state = ref 0x2545F491 in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let step op =
    match op with
    | `Push i ->
        NT.push t ~tid:0 i;
        NE.push e ~tid:0 i
    | `Pop ->
        let a = NT.pop t ~tid:0 and b = NE.pop e ~tid:0 in
        Alcotest.(check (option int)) "pop agrees" a b
    | `Peek ->
        let a = NT.peek t ~tid:0 and b = NE.peek e ~tid:0 in
        Alcotest.(check (option int)) "peek agrees" a b
  in
  for i = 1 to 4_000 do
    match rand 5 with
    | 0 | 1 | 2 -> step (`Push i)
    | 3 -> step `Pop
    | _ -> step `Peek
  done;
  (* deep drain: hundreds of recycles overflow the magazines... *)
  for _ = 1 to 5_000 do
    step `Pop
  done;
  (* ...and the refill drains them back through the slab store. *)
  for i = 1 to 400 do
    step (`Push i)
  done;
  for _ = 1 to 500 do
    step `Pop
  done;
  let g = Slab.Global.snapshot () in
  Alcotest.(check bool)
    (Printf.sprintf "chains crossed the slab store (puts %d, gets %d)"
       g.Slab.Global.chain_puts g.Slab.Global.chain_gets)
    true
    (g.Slab.Global.chain_puts > 0 && g.Slab.Global.chain_gets > 0)

(* The off-heap arena stack against plain Treiber (int payloads: the
   arena is monomorphic by design — no Obj, lint rule 3). *)
let test_differential_arena () =
  let t = NT.create ~max_threads:1 () in
  let a = NA.create ~max_threads:1 ~slab_slots:64 ~max_slabs:64 () in
  let state = ref 0x9E3779B9 in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = 1 to 6_000 do
    match rand 5 with
    | 0 | 1 | 2 ->
        NT.push t ~tid:0 i;
        NA.push a ~tid:0 i
    | 3 ->
        let x = NT.pop t ~tid:0 and y = NA.pop a ~tid:0 in
        Alcotest.(check (option int)) "pop agrees (OFH)" x y
    | _ ->
        let x = NT.peek t ~tid:0 and y = NA.peek a ~tid:0 in
        Alcotest.(check (option int)) "peek agrees (OFH)" x y
  done;
  let rec drain () =
    let x = NT.pop t ~tid:0 and y = NA.pop a ~tid:0 in
    Alcotest.(check (option int)) "drain agrees (OFH)" x y;
    if x <> None then drain ()
  in
  drain ();
  NA.flush a ~tid:0;
  Alcotest.(check bool) "arena saw real carving" true
    ((NA.arena_stats a).Slab.carved > 0)

(* SEC recycling its nodes through magazines over the slab store, as a
   plain stack face. One aggregator puts every fiber on one shard. *)
module SimSecMag = struct
  module M = Sec_core.Sec_stack.Make (SP)
  include M

  let config =
    Sec_core.Config.(with_recycling (with_aggregators 1 default))

  let create ?max_threads () = M.create_with ~config ?max_threads ()
end

(* Under the simulator's interleavings: recorded histories of SEC with
   recycled nodes stay linearizable against the LIFO spec — a node's
   second life never leaks its first life's value. *)
let test_sim_linearizable_slab () =
  let module I = Sec_spec.History.Instrument (SP) (SimSecMag) in
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
        Printf.eprintf "[SEC+MAG] lin check gave up (seed %d)\n%!" seed
    | Sec_spec.Lin_check.Not_linearizable ->
        Alcotest.failf "SEC+MAG: seed %d produced a non-linearizable history"
          seed
  done

(* Producer/consumer fibers over one stack: even tids only push, odd
   tids only pop. Every node is retired (and recycled) on a consumer's
   tid, so the producers' magazines refill only by adopting the slabs
   the consumers park. Returns every popped value (the consumers' and a
   final drain's) and the simulator's allocation count. *)
let producers_consumers (module S : STACK) ~fibers ~pushes =
  Sim.run ~seed:11 ~jitter:3 ~topology:Topology.testbox (fun () ->
      let s = S.create ~max_threads:fibers () in
      let popped = ref [] in
      for _ = 1 to fibers do
        Sim.spawn (fun () ->
            let tid = Sim.fiber_id () in
            if tid land 1 = 0 then
              for i = 1 to pushes do
                S.push s ~tid ((tid * 1_000_000) + i)
              done
            else
              for _ = 1 to pushes do
                match S.pop s ~tid with
                | Some v -> popped := v :: !popped
                | None -> ()
              done)
      done;
      Sim.await_all ();
      let rec drain () =
        match S.pop s ~tid:0 with
        | Some v ->
            popped := v :: !popped;
            drain ()
        | None -> ()
      in
      drain ();
      !popped)

(* Fewer allocations than plain Treiber on the same pinned workload,
   counted by the simulator's first-class allocation statistic: with
   every recycle on a consumer and every allocation on a producer, the
   only way a node gets a second life is through a parked slab. *)
module SimTrb = Sec_stacks.Treiber.Make (SP)
module SimTrbEbr = Sec_reclaim.Treiber_ebr.Make (SP)

let test_fewer_allocations_than_treiber () =
  let _, trb = producers_consumers (module SimTrb) ~fibers:4 ~pushes:600 in
  Slab.Global.reset ();
  let _, ebr = producers_consumers (module SimTrbEbr) ~fibers:4 ~pushes:600 in
  let g = Slab.Global.snapshot () in
  Alcotest.(check bool)
    (Printf.sprintf "consumers parked, producers adopted (%d parks, %d adopts)"
       g.Slab.Global.parks g.Slab.Global.adopts)
    true
    (g.Slab.Global.parks > 0 && g.Slab.Global.adopts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "TRB-EBR allocates less (TRB %d, TRB-EBR %d)"
       trb.Sim.allocs ebr.Sim.allocs)
    true
    (ebr.Sim.allocs < trb.Sim.allocs)

(* SEC's recycling through the slab store: with one shard, consumer
   pops recycle eliminated nodes and whole detached chains on their own
   tids until their magazines overflow and the slabs park; producers
   then adopt them. No value may be lost or served twice on the way. *)
let test_sec_recycling_crosses_slab_store () =
  let fibers = 4 and pushes = 600 in
  Slab.Global.reset ();
  let popped, _ = producers_consumers (module SimSecMag) ~fibers ~pushes in
  let g = Slab.Global.snapshot () in
  Alcotest.(check bool)
    (Printf.sprintf "consumers parked, producers adopted (%d parks, %d adopts)"
       g.Slab.Global.parks g.Slab.Global.adopts)
    true
    (g.Slab.Global.parks > 0 && g.Slab.Global.adopts > 0);
  let pushed =
    List.concat_map
      (fun tid -> List.init pushes (fun i -> (tid * 1_000_000) + i + 1))
      (List.filter (fun tid -> tid land 1 = 0) (List.init fibers Fun.id))
  in
  Alcotest.(check (list int))
    "every pushed value popped or drained exactly once"
    (List.sort compare pushed)
    (List.sort compare popped)

(* ------------------------------------------------------------------ *)
(* Cross-domain CAS counts of the deterministic simulated
   microbenchmark (the same one `sec_bench alloc` runs), pinned per
   phase: the local phase balances every domain's frees and allocations
   inside its own active slab and never touches the shared partial
   stack; the producer/consumer phase moves whole slabs. *)

let test_slab_cas_pinned () =
  List.iter
    (fun (phase, expected) ->
      let r =
        AB.run_sim ~threads:4 ~iters:50 ~burst:96 ~seed:1 ~mode:AB.Slab ~phase
          ()
      in
      Alcotest.(check int)
        (AB.phase_to_string phase ^ ": cross-domain CASes")
        expected r.AB.cross_cas)
    [ (AB.Local, 0); (AB.Remote, 89) ]

(* ------------------------------------------------------------------ *)
(* Crash/cancel refinement sweep over the slab-backed TRB-EBR: every
   default refinement property (including the crash/cancel ones) under
   DPOR and the pinned weighted-random seeds. *)

let test_refine_slab_entry () =
  let module Registry = Sec_harness.Registry in
  let module Refine = Sec_refine.Refine in
  List.iter
    (fun (prop, strat, v) ->
      match v with
      | Refine.Refines _ -> ()
      | v ->
          Alcotest.failf "TRB-EBR / %s / %s: %s" prop strat
            (Refine.verdict_to_string v))
    (Refine.check_entry ~max_schedules:300 ~runs:8 Registry.treiber_ebr)

let () =
  Alcotest.run "slab"
    [
      ( "slab store",
        [
          Alcotest.test_case "chain round trip" `Quick test_chain_round_trip;
          Alcotest.test_case "park and adopt" `Quick test_park_and_adopt;
          Alcotest.test_case "create validates" `Quick test_create_validates;
        ] );
      ( "arena",
        [
          Alcotest.test_case "round trip and slot reuse" `Quick
            test_arena_round_trip_and_reuse;
          Alcotest.test_case "remote-free batching" `Quick
            test_arena_remote_batching;
          Alcotest.test_case "exhaustion raises" `Quick
            test_arena_exhaustion_raises;
        ] );
      ( "checker contract",
        [
          Alcotest.test_case "clean lifecycle" `Quick
            test_checker_clean_slab_lifecycle;
          Alcotest.test_case "slab double free" `Quick
            test_checker_slab_double_free;
          Alcotest.test_case "two owners of one slot" `Quick
            test_checker_two_owners_reported;
          Alcotest.test_case "alloc after release" `Quick
            test_checker_alloc_after_release;
          Alcotest.test_case "use after arena release" `Quick
            test_checker_use_after_arena_release;
        ] );
      ( "seeded mutants (sim, pinned replay)",
        [
          Alcotest.test_case "double free caught" `Quick
            test_sim_double_free_mutant_caught;
          Alcotest.test_case "alloc after release caught" `Quick
            test_sim_alloc_after_release_mutant_caught;
        ] );
      ( "differential",
        [
          Alcotest.test_case "TRB vs TRB-EBR lockstep" `Quick
            test_differential_lockstep;
          Alcotest.test_case "TRB vs TRB-OFH lockstep" `Quick
            test_differential_arena;
          Alcotest.test_case "sim histories linearizable" `Quick
            test_sim_linearizable_slab;
          Alcotest.test_case "fewer allocations than Treiber" `Quick
            test_fewer_allocations_than_treiber;
          Alcotest.test_case "SEC recycling crosses the slab store" `Quick
            test_sec_recycling_crosses_slab_store;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "slab cross-domain CAS pinned per phase" `Quick
            test_slab_cas_pinned;
          Alcotest.test_case "refinement sweep (TRB-EBR)" `Slow
            test_refine_slab_entry;
        ] );
    ]
