(* The wait-free slab store below the magazines
   (lib/reclaim/slab.ml): chain-level slab semantics, park/adopt
   hand-off, the slab-backed stacks against their GC twins — including
   SEC's recycling crossing the store from consumers to producers — the
   cross-domain CAS count of a magazine microbenchmark, pinned per
   phase, and a refinement sweep over the slab-backed TRB-EBR. *)

module Slab = Sec_reclaim.Slab
module NSl = Sec_reclaim.Slab.Make (Sec_prim.Native)
module Topology = Sec_sim.Topology
module Sim = Sec_sim.Sim
module SP = Sim.Prim

module type STACK = Sec_spec.Stack_intf.S

(* ------------------------------------------------------------------ *)
(* Slab store semantics (native substrate; one thread drives several
   tids, legal because no two tids ever run concurrently here). *)

let test_chain_round_trip () =
  Slab.Global.reset ();
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
  let st = Slab.Global.snapshot () in
  Alcotest.(check int) "one chain in" 1 st.Slab.Global.chain_puts;
  Alcotest.(check int) "one chain out" 1 st.Slab.Global.chain_gets;
  Alcotest.(check int) "one miss tallied" 1 st.Slab.Global.fresh

let test_park_and_adopt () =
  Slab.Global.reset ();
  (* slab_chains = 2: the second free_chain fills tid 0's active slab
     and parks it on the shared partial stack. *)
  let s = NSl.create ~chain_len:2 ~slab_chains:2 ~max_threads:4 () in
  NSl.free_chain s ~tid:0 (2, [ ref 1; ref 2 ]);
  NSl.free_chain s ~tid:0 (2, [ ref 3; ref 4 ]);
  let st = Slab.Global.snapshot () in
  Alcotest.(check int) "full slab parked" 1 st.Slab.Global.parks;
  Alcotest.(check int) "park kept its nodes pooled" 4 st.Slab.Global.pooled;
  Alcotest.(check int) "one slab on the partial stack" 1
    (st.Slab.Global.parks - st.Slab.Global.adopts);
  (* tid 3 never freed anything: its first alloc adopts the parked
     slab in ONE CAS and drains both chains from it. *)
  (match NSl.alloc_chain s ~tid:3 with
  | Some (len, _) -> Alcotest.(check int) "adopted chain length" 2 len
  | None -> Alcotest.fail "adoption should refill tid 3");
  (match NSl.alloc_chain s ~tid:3 with
  | Some _ -> ()
  | None -> Alcotest.fail "the adopted slab held a second chain");
  let st = Slab.Global.snapshot () in
  Alcotest.(check int) "one adoption" 1 st.Slab.Global.adopts;
  Alcotest.(check int) "store drained" 0 st.Slab.Global.pooled;
  Alcotest.(check int) "no slab left parked" 0
    (st.Slab.Global.parks - st.Slab.Global.adopts);
  Alcotest.(check int) "no lost CAS in a sequential run" 0
    (Slab.Global.cas_retries st)

let test_create_validates () =
  Alcotest.check_raises "chain_len must be positive"
    (Invalid_argument "Slab.create: chain_len must be at least 1") (fun () ->
      ignore (NSl.create ~chain_len:0 ()))

(* ------------------------------------------------------------------ *)
(* Lockstep differentials: the slab-backed stacks are observationally
   identical to their GC twins. The phased workload (mixed ops, then a
   deep drain, then a refill) forces the magazines past capacity so
   chains really cross the slab store. *)

module NT = Sec_stacks.Treiber.Make (Sec_prim.Native)
module NE = Sec_reclaim.Treiber_ebr.Make (Sec_prim.Native)

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
(* Cross-domain CAS counts of a deterministic simulated magazine
   microbenchmark, pinned per phase. [iters] bursts of [burst] nodes
   exceed the magazine capacity, so every burst crosses into the slab
   store. The local phase balances every domain's frees and
   allocations inside its own active slab and never touches the shared
   partial stack; the producer/consumer phase moves whole slabs, one
   park or adopt attempt per slab. *)

module X = SP
module A = X.Atomic
module Backoff = Sec_prim.Backoff.Make (X)
module Mag = Sec_reclaim.Magazine.Make (X)

(* Every thread: [iters] bursts of [burst] alloc/free round-trips
   against its own magazine. Returns total round-trips. *)
let mag_local ~threads ~iters ~burst =
  let mag = Mag.create ~max_threads:threads () in
  let completed = Array.make threads 0 in
  for _ = 1 to threads do
    X.spawn (fun () ->
        let tid = X.thread_id () in
        let nodes = Array.make burst 0 in
        for _ = 1 to iters do
          for i = 0 to burst - 1 do
            nodes.(i) <-
              (match Mag.alloc mag ~tid with
              | Some n -> n
              | None ->
                  X.note_alloc ();
                  tid + i)
          done;
          for i = 0 to burst - 1 do
            Mag.recycle mag ~tid nodes.(i)
          done;
          completed.(tid) <- completed.(tid) + burst
        done)
  done;
  X.await_all ();
  Array.fold_left ( + ) 0 completed

(* Producer/consumer pairs handing whole batches through one exchange
   cell: tid 2p allocates, tid 2p+1 frees. Counted on the consumer. *)
let mag_remote ~threads ~iters ~burst =
  let pairs = threads / 2 in
  if pairs < 1 then
    invalid_arg "mag_remote: the remote phase needs >= 2 threads";
  let mag = Mag.create ~max_threads:threads () in
  let cells = Array.init pairs (fun _ -> A.make_padded []) in
  let completed = Array.make threads 0 in
  for _ = 1 to pairs do
    X.spawn (fun () ->
        (* producer *)
        let tid = X.thread_id () in
        let cell = cells.(tid / 2) in
        for _ = 1 to iters do
          let batch = ref [] in
          for i = 0 to burst - 1 do
            let n =
              match Mag.alloc mag ~tid with
              | Some n -> n
              | None ->
                  X.note_alloc ();
                  tid + i
            in
            batch := n :: !batch
          done;
          let backoff = Backoff.create () in
          while not (A.compare_and_set cell [] !batch) do
            Backoff.once backoff
          done
        done);
    X.spawn (fun () ->
        (* consumer *)
        let tid = X.thread_id () in
        let cell = cells.(tid / 2) in
        for _ = 1 to iters do
          let backoff = Backoff.create () in
          let rec take () =
            match A.exchange cell [] with
            | [] ->
                Backoff.once backoff;
                take ()
            | batch -> batch
          in
          List.iter (fun n -> Mag.recycle mag ~tid n) (take ());
          completed.(tid) <- completed.(tid) + burst
        done)
  done;
  X.await_all ();
  Array.fold_left ( + ) 0 completed

let slab_tallies ~phase =
  Sec_core.Sec_stats.alloc_reset ();
  let (_ : int), _ =
    Sim.run ~seed:1 ~jitter:2 ~topology:Topology.testbox (fun () ->
        phase ~threads:4 ~iters:50 ~burst:96)
  in
  Slab.Global.snapshot ()

let test_slab_cas_pinned () =
  List.iter
    (fun (name, phase, expected) ->
      Alcotest.(check int)
        (name ^ ": cross-domain CASes")
        expected
        (Slab.Global.cas_attempts (slab_tallies ~phase)))
    [ ("local", mag_local, 0); ("remote", mag_remote, 89) ]

(* The lost attempts among those CASes, on the same runs: a lost park
   keeps the slab local, a lost adopt degrades to fresh nodes. Every
   attempt is won or lost, so the winners are exactly the parks and
   adopts. *)
let test_slab_retries_pinned () =
  List.iter
    (fun (name, phase, expected) ->
      let g = slab_tallies ~phase in
      Alcotest.(check int)
        (name ^ ": lost CASes")
        expected (Slab.Global.cas_retries g);
      Alcotest.(check int)
        (name ^ ": won CASes are the parks and adopts")
        (g.Slab.Global.parks + g.Slab.Global.adopts)
        (Slab.Global.cas_attempts g - Slab.Global.cas_retries g))
    [ ("local", mag_local, 0); ("remote", mag_remote, 23) ]

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
      ( "differential",
        [
          Alcotest.test_case "TRB vs TRB-EBR lockstep" `Quick
            test_differential_lockstep;
          Alcotest.test_case "sim histories linearizable" `Quick
            test_sim_linearizable_slab;
          Alcotest.test_case "fewer allocations than Treiber" `Quick
            test_fewer_allocations_than_treiber;
          Alcotest.test_case "SEC recycling crosses the slab store" `Quick
            test_sec_recycling_crosses_slab_store;
        ] );
      ( "Global tallies (park + adopt CASes)",
        [
          Alcotest.test_case "lost CASes pinned per phase" `Quick
            test_slab_retries_pinned;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "slab cross-domain CAS pinned per phase" `Quick
            test_slab_cas_pinned;
          Alcotest.test_case "refinement sweep (TRB-EBR)" `Slow
            test_refine_slab_entry;
        ] );
    ]
