(* Tests for the discrete-event simulator: cost model, scheduling,
   determinism, virtual-time parallelism — and the concurrent stacks
   running inside it at thread counts this host cannot reach natively. *)

module Topology = Sec_sim.Topology
module Cache = Sec_sim.Cache_model
module Sim = Sec_sim.Sim
module SP = Sim.Prim

(* ------------------------------------------------------------------ *)
(* Cache model                                                          *)

let costs = Topology.default_costs

let test_cache_read_costs () =
  let c = Cache.create Topology.testbox in
  let line = Cache.new_line c ~core:7 ~socket:1 in
  (* The creator owns the line: its reads are L1 hits. *)
  let creator = Cache.access c ~core:7 ~socket:1 ~line ~now:100 Cache.Read in
  Alcotest.(check int) "creator reads own line" (100 + costs.Topology.l1_hit)
    creator;
  (* First read from the other socket: a remote transfer. *)
  let first = Cache.access c ~core:0 ~socket:0 ~line ~now:200 Cache.Read in
  Alcotest.(check int) "cross-socket first read"
    (200 + costs.Topology.remote_transfer)
    first;
  (* Re-read: now cached in our socket. *)
  let again = Cache.access c ~core:0 ~socket:0 ~line ~now:500 Cache.Read in
  Alcotest.(check int) "shared re-read" (500 + costs.Topology.shared_hit) again

let test_cache_write_invalidates () =
  let c = Cache.create Topology.testbox in
  let line = Cache.new_line c ~core:0 ~socket:0 in
  ignore (Cache.access c ~core:0 ~socket:0 ~line ~now:0 Cache.Read);
  ignore (Cache.access c ~core:4 ~socket:1 ~line ~now:0 Cache.Read);
  (* A write from socket 0 must pay to invalidate socket 1's copy. *)
  let w = Cache.access c ~core:0 ~socket:0 ~line ~now:1_000 Cache.Write in
  Alcotest.(check bool) "write pays invalidation" true
    (w
    >= 1_000 + costs.Topology.local_transfer
       + costs.Topology.invalidate_per_socket);
  (* Writer now owns the line exclusively. *)
  let own = Cache.access c ~core:0 ~socket:0 ~line ~now:2_000 Cache.Write in
  Alcotest.(check int) "exclusive rewrite" (2_000 + costs.Topology.l1_hit) own

let test_cache_rmw_premium () =
  let c = Cache.create Topology.testbox in
  let line = Cache.new_line c ~core:0 ~socket:0 in
  let owned_rmw = Cache.access c ~core:0 ~socket:0 ~line ~now:0 Cache.Rmw in
  Alcotest.(check int) "owned RMW = l1 + premium"
    (costs.Topology.l1_hit + costs.Topology.rmw_extra)
    owned_rmw

let test_cache_line_serializes () =
  (* Two RMW misses issued at the same instant must queue: the second
     finishes a full transfer after the first. This is the property that
     makes a hot CAS cell a sequential bottleneck. *)
  let c = Cache.create Topology.testbox in
  let line = Cache.new_line c ~core:9 ~socket:1 in
  let e1 = Cache.access c ~core:0 ~socket:0 ~line ~now:0 Cache.Rmw in
  let e2 = Cache.access c ~core:1 ~socket:0 ~line ~now:0 Cache.Rmw in
  let e3 = Cache.access c ~core:2 ~socket:0 ~line ~now:0 Cache.Rmw in
  Alcotest.(check bool) "second queues behind first" true (e2 >= e1 + 1);
  Alcotest.(check bool) "third queues behind second" true (e3 >= e2 + 1);
  (* A hit on an unrelated line does not queue. *)
  let line2 = Cache.new_line c ~core:0 ~socket:0 in
  let h = Cache.access c ~core:0 ~socket:0 ~line:line2 ~now:0 Cache.Read in
  Alcotest.(check int) "independent line is free" costs.Topology.l1_hit h

let test_cache_ping_pong_traffic () =
  (* Alternating RMWs from two sockets: every access is a transfer. *)
  let c = Cache.create Topology.testbox in
  let line = Cache.new_line c ~core:9 ~socket:1 in
  let now = ref 0 in
  for _ = 1 to 10 do
    now := Cache.access c ~core:0 ~socket:0 ~line ~now:!now Cache.Rmw;
    now := Cache.access c ~core:4 ~socket:1 ~line ~now:!now Cache.Rmw
  done;
  let t = Cache.traffic c in
  Alcotest.(check bool) "transfers counted" true (t.Cache.transfers >= 19);
  Alcotest.(check bool) "remote transfers counted" true
    (t.Cache.remote_transfers >= 18)

(* The model keeps no table of lines: once the cell owning a line is
   gone, so is the line, however long the model itself lives. Without
   this, a long simulation's memory grows with every cell it ever made. *)
let[@inline never] weak_fresh_line c =
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Cache.new_line c ~core:0 ~socket:0));
  w

let test_cache_line_collectable () =
  let c = Cache.create Topology.testbox in
  let w = weak_fresh_line c in
  Gc.full_major ();
  Alcotest.(check bool) "dead line collected" false (Weak.check w 0);
  (* The model is still alive here and keeps allocating. *)
  let line = Cache.new_line c ~core:0 ~socket:0 in
  Alcotest.(check int) "ids continue" 1 (Cache.line_id line)

let qcheck_cache_model_invariants =
  (* Random access sequences: end times never precede start times by less
     than an L1 hit, per-line busy times are monotone, traffic counters
     never decrease. *)
  QCheck.Test.make ~name:"cache model invariants" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (triple (int_range 0 7) (int_range 0 3) (int_range 0 2)))
    (fun accesses ->
      let c = Cache.create Topology.testbox in
      let locs = Array.init 4 (fun i -> Cache.new_line c ~core:i ~socket:(i / 2)) in
      let now = ref 0 in
      let prev_transfers = ref 0 in
      List.for_all
        (fun (core, loc_idx, k) ->
          let kind =
            match k with 0 -> Cache.Read | 1 -> Cache.Write | _ -> Cache.Rmw
          in
          let socket = core / 4 in
          let finish =
            Cache.access c ~core ~socket ~line:locs.(loc_idx) ~now:!now kind
          in
          let ok =
            finish >= !now + costs.Topology.l1_hit
            && (Cache.traffic c).Cache.transfers >= !prev_transfers
          in
          prev_transfers := (Cache.traffic c).Cache.transfers;
          now := finish;
          ok)
        accesses)

let test_smt_siblings_share_cache () =
  (* Two SMT siblings hammering one line finish much sooner than two
     threads on different sockets, because they share a core's cache. *)
  let makespan fid_a fid_b =
    let (), stats =
      Sim.run ~topology:Topology.emerald (fun () ->
          let shared = SP.Atomic.make 0 in
          let top = max fid_a fid_b in
          for fid = 0 to top do
            Sim.spawn (fun () ->
                if fid = fid_a || fid = fid_b then
                  for _ = 1 to 300 do
                    ignore (SP.Atomic.fetch_and_add shared 1)
                  done)
          done;
          Sim.await_all ())
    in
    stats.Sim.elapsed_cycles
  in
  (* Thread 28 is thread 0's SMT sibling; thread 14 is on socket 1. *)
  let siblings = makespan 0 28 and cross_socket = makespan 0 14 in
  Alcotest.(check bool)
    (Printf.sprintf "siblings %d < cross-socket %d cycles" siblings
       cross_socket)
    true
    (siblings * 2 < cross_socket)

(* ------------------------------------------------------------------ *)
(* Topology                                                             *)

let test_topology_placement () =
  Alcotest.(check int) "emerald size" 56 (Topology.max_threads Topology.emerald);
  Alcotest.(check int) "icelake size" 96 (Topology.max_threads Topology.icelake);
  Alcotest.(check int) "sapphire size" 192
    (Topology.max_threads Topology.sapphire);
  Alcotest.(check int) "socket of thread 0" 0
    (Topology.socket_of Topology.emerald 0);
  Alcotest.(check int) "socket of thread 13" 0
    (Topology.socket_of Topology.emerald 13);
  Alcotest.(check int) "socket of thread 14" 1
    (Topology.socket_of Topology.emerald 14);
  (* Thread 28 is the SMT sibling of thread 0: same core, same socket. *)
  Alcotest.(check int) "SMT sibling core" (Topology.core_of Topology.emerald 0)
    (Topology.core_of Topology.emerald 28);
  Alcotest.(check int) "SMT sibling socket" 0
    (Topology.socket_of Topology.emerald 28);
  Alcotest.check_raises "beyond capacity"
    (Invalid_argument "topology emerald supports 56 hardware threads")
    (fun () -> ignore (Topology.socket_of Topology.emerald 56))

let test_topology_by_name () =
  Alcotest.(check string) "lookup" "icelake" (Topology.by_name "icelake").Topology.name;
  Alcotest.check_raises "unknown" (Invalid_argument "unknown topology: mars")
    (fun () -> ignore (Topology.by_name "mars"))

(* ------------------------------------------------------------------ *)
(* Scheduler basics                                                     *)

let test_sim_counter_faa () =
  let n = 8 and per_fiber = 100 in
  let (total, stats) =
    Sim.run ~topology:Topology.testbox (fun () ->
        let c = SP.Atomic.make 0 in
        for _ = 1 to n do
          Sim.spawn (fun () ->
              for _ = 1 to per_fiber do
                ignore (SP.Atomic.fetch_and_add c 1)
              done)
        done;
        Sim.await_all ();
        SP.Atomic.get c)
  in
  Alcotest.(check int) "no lost increments" (n * per_fiber) total;
  Alcotest.(check int) "fibers" n stats.Sim.fibers;
  Alcotest.(check bool) "time advanced" true (stats.Sim.elapsed_cycles > 0)

let test_sim_determinism () =
  let run seed =
    Sim.run ~seed ~jitter:60 ~topology:Topology.testbox (fun () ->
        let c = SP.Atomic.make 0 in
        let log = ref [] in
        for _ = 1 to 4 do
          Sim.spawn (fun () ->
              for _ = 1 to 50 do
                let v = SP.Atomic.fetch_and_add c 1 in
                if v mod 17 = 0 then log := (Sim.fiber_id (), v) :: !log
              done)
        done;
        Sim.await_all ();
        !log)
  in
  let l1, s1 = run 11 and l2, s2 = run 11 in
  Alcotest.(check bool) "same seed, same interleaving" true (l1 = l2);
  Alcotest.(check int) "same seed, same makespan" s1.Sim.elapsed_cycles
    s2.Sim.elapsed_cycles;
  let l3, _ = run 12 in
  Alcotest.(check bool) "different seed, different interleaving" true (l1 <> l3)

let test_sim_parallelism_in_virtual_time () =
  (* Independent lines scale; a contended line serializes. *)
  let work contended =
    let (), stats =
      Sim.run ~topology:Topology.emerald (fun () ->
          let shared = SP.Atomic.make 0 in
          for _ = 1 to 8 do
            Sim.spawn (fun () ->
                let mine = if contended then shared else SP.Atomic.make 0 in
                for _ = 1 to 500 do
                  ignore (SP.Atomic.fetch_and_add mine 1)
                done)
          done;
          Sim.await_all ())
    in
    stats.Sim.elapsed_cycles
  in
  let independent = work false and contended = work true in
  Alcotest.(check bool)
    (Printf.sprintf "contention serializes (%d vs %d cycles)" contended
       independent)
    true
    (contended > 3 * independent)

let test_sim_numa_penalty () =
  (* The same contended workload costs more when fibers span sockets. *)
  let makespan fibers =
    let (), stats =
      Sim.run ~topology:Topology.emerald (fun () ->
          let shared = SP.Atomic.make 0 in
          for _ = 1 to fibers do
            Sim.spawn (fun () ->
                for _ = 1 to 300 do
                  ignore (SP.Atomic.fetch_and_add shared 1)
                done)
          done;
          Sim.await_all ());
    in
    (stats.Sim.elapsed_cycles, stats.Sim.traffic.Cache.remote_transfers)
  in
  let _, remote_single = makespan 8 in
  let _, remote_spanning = makespan 40 in
  Alcotest.(check int) "one socket: no remote traffic" 0 remote_single;
  Alcotest.(check bool) "two sockets: remote traffic" true (remote_spanning > 0)

let test_sim_spawn_limit () =
  Alcotest.check_raises "too many fibers"
    (Invalid_argument "topology testbox supports 8 hardware threads")
    (fun () ->
      ignore
        (Sim.run ~topology:Topology.testbox (fun () ->
             for _ = 1 to 9 do
               Sim.spawn (fun () -> ())
             done;
             Sim.await_all ())))

let test_sim_prim_outside_run () =
  Alcotest.check_raises "no installed dispatch" Sim.Not_in_simulation
    (fun () -> ignore (SP.Atomic.make 0))

(* A run whose main raises still restores the caller's dispatch: the
   next primitive outside any run fails loudly again. *)
let test_sim_dispatch_restored () =
  (match Sim.run ~topology:Topology.testbox (fun () -> failwith "main") with
  | _ -> Alcotest.fail "expected the run to raise"
  | exception Failure _ -> ());
  Alcotest.check_raises "outside any run again" Sim.Not_in_simulation
    (fun () -> ignore (SP.Atomic.make 0))

let test_sim_spawn_inherits_time () =
  (* A worker's clock starts at its spawner's time: work done by main
     before spawning is on the critical path. *)
  let first_worker_start, _ =
    Sim.run ~topology:Topology.testbox (fun () ->
        SP.relax 5_000;
        let seen = ref 0L in
        Sim.spawn (fun () -> seen := SP.now_ns ());
        Sim.await_all ();
        !seen)
  in
  Alcotest.(check bool) "worker starts after spawner's work" true
    (Int64.compare first_worker_start 5_000L >= 0)

let test_sim_await_without_workers () =
  let v, stats = Sim.run ~topology:Topology.testbox (fun () ->
      Sim.await_all ();
      99)
  in
  Alcotest.(check int) "await with no workers returns" 99 v;
  Alcotest.(check int) "no fibers" 0 stats.Sim.fibers

let test_sim_sequential_runs_independent () =
  (* Two runs back to back must not share state (fresh cache, fresh ids). *)
  let go () =
    Sim.run ~topology:Topology.testbox (fun () ->
        let c = SP.Atomic.make 0 in
        for _ = 1 to 4 do
          Sim.spawn (fun () -> SP.Atomic.incr c)
        done;
        Sim.await_all ();
        SP.Atomic.get c)
  in
  let a, sa = go () in
  let b, sb = go () in
  Alcotest.(check int) "same result" a b;
  Alcotest.(check int) "same makespan" sa.Sim.elapsed_cycles sb.Sim.elapsed_cycles

let test_sim_relax_advances_clock () =
  let t, _ =
    Sim.run ~topology:Topology.testbox (fun () ->
        let a = SP.now_ns () in
        SP.relax 1000;
        let b = SP.now_ns () in
        Int64.to_int (Int64.sub b a))
  in
  Alcotest.(check bool) "relax 1000 >= 1000 cycles" true (t >= 1000)

(* Read hits (testbox, jitter 0). A read the cache model serves from
   the core's own or its socket's copy changes no line state. When no
   write can land on the line before the hit completes, the fiber runs
   on without a switch; the next access first waits until its fiber is
   the earliest again. *)

(* Two fibers on socket 0 each spin [relax 10; get] on a line they
   created (an L1 hit, 2 cycles). Only the relax parks: one switch per
   probe, where a hit that also parked made it two. *)
let test_sim_hit_spin_one_switch () =
  let probes = 100 in
  let (), stats =
    Sim.run ~topology:Topology.testbox (fun () ->
        for _ = 1 to 2 do
          Sim.spawn (fun () ->
              let mine = SP.Atomic.make 0 in
              for _ = 1 to probes do
                SP.relax 10;
                ignore (SP.Atomic.get mine)
              done)
        done;
        Sim.await_all ())
  in
  Alcotest.(check int) "one switch per probe" (2 * probes) stats.Sim.switches;
  Alcotest.(check int) "two events per probe" (4 * probes) stats.Sim.events;
  Alcotest.(check int) "12 cycles per probe" (12 * probes)
    stats.Sim.elapsed_cycles

(* Fiber 0 (socket 0) hits its own line at t = 10, reaching t = 12, and
   writes [y] at once; fiber 2 (socket 1) reads [y] at t = 11. The hit
   skips its switch (no write can land on [x]), so the write must wait
   its turn: the read goes first, on the line as it was, so it is a
   plain remote transfer (11 + 180) that sees 0, and the write then
   queues behind it (191 + 60 + 40 to invalidate socket 1). Charged out
   of order, the write would have claimed the line first and the read
   would finish at 252 seeing 1. *)
let test_sim_access_after_hit_waits () =
  let (seen, done_at, write_done), stats =
    Sim.run ~topology:Topology.testbox (fun () ->
        let y = SP.Atomic.make 0 in
        let read = ref (-1, -1L) and wrote = ref (-1L) in
        Sim.spawn (fun () ->
            let x = SP.Atomic.make 0 in
            SP.relax 10;
            ignore (SP.Atomic.get x);
            SP.Atomic.set y 1;
            wrote := SP.now_ns ());
        Sim.spawn (fun () -> ());
        Sim.spawn (fun () ->
            SP.relax 11;
            let v = SP.Atomic.get y in
            read := (v, SP.now_ns ()));
        Sim.await_all ();
        let v, t = !read in
        (v, t, !wrote))
  in
  Alcotest.(check int) "read sees the old value" 0 seen;
  Alcotest.(check int64) "read completes at 11 + 180" 191L done_at;
  Alcotest.(check int64) "write queues behind it" 291L write_done;
  Alcotest.(check int) "the guard's park is a switch" 5 stats.Sim.switches;
  Alcotest.(check int) "a guard park is no event" 5 stats.Sim.events

(* A read miss still takes its value at completion. Fiber 0 writes [y]
   at t = 10 (a local transfer, done at 70); fiber 2 on the other socket
   starts a read at t = 20, which queues behind the write and moves the
   line across sockets (70 + 180). The write completed inside the
   read's window, so the read sees it. *)
let test_sim_read_miss_value_at_completion () =
  let seen, done_at =
    fst
      (Sim.run ~topology:Topology.testbox (fun () ->
           let y = SP.Atomic.make 0 in
           let read = ref (-1, -1L) in
           Sim.spawn (fun () ->
               SP.relax 10;
               SP.Atomic.set y 1);
           Sim.spawn (fun () -> ());
           Sim.spawn (fun () ->
               SP.relax 20;
               let v = SP.Atomic.get y in
               read := (v, SP.now_ns ()));
           Sim.await_all ();
           !read))
  in
  Alcotest.(check int) "miss sees the write" 1 seen;
  Alcotest.(check int64) "miss completes at 70 + 180" 250L done_at

(* Fibers 0 and 1 share socket 0 (cores 0 and 1). Fiber 0 writes [y]
   at t = 0, a local transfer that makes core 0 the owner at once but
   lands at 60. Fiber 1's read at t = 55 hits the socket's copy (12
   cycles) while that write is in flight, so it waits like a miss and
   sees the write. Read at its start, it would have seen 0. *)
let test_sim_hit_waits_for_write_in_flight () =
  let seen, done_at =
    fst
      (Sim.run ~topology:Topology.testbox (fun () ->
           let y = SP.Atomic.make 0 in
           let read = ref (-1, -1L) in
           Sim.spawn (fun () -> SP.Atomic.set y 1);
           Sim.spawn (fun () ->
               SP.relax 55;
               let v = SP.Atomic.get y in
               read := (v, SP.now_ns ()));
           Sim.await_all ();
           !read))
  in
  Alcotest.(check int) "hit sees the write in flight" 1 seen;
  Alcotest.(check int64) "hit completes at 55 + 12" 67L done_at

(* As above, but fiber 0 then relaxes [gap] cycles and writes [y]
   again as the owner, an L1 write of 2 cycles. Fiber 1 reads at t = 75
   and completes at 87. With [gap = 20] the owner's write lands at 82,
   inside the hit, so the hit waits and sees 2. With [gap = 200] the
   owner's next write lands at 262: the hit runs on and sees 1, and
   fiber 2 (socket 1, relaxing to 80) no longer costs fiber 1 a
   switch. *)
let test_sim_hit_sees_owner_write () =
  let run gap =
    Sim.run ~topology:Topology.testbox (fun () ->
        let y = SP.Atomic.make 0 in
        let read = ref (-1, -1L) in
        Sim.spawn (fun () ->
            SP.Atomic.set y 1;
            SP.relax gap;
            SP.Atomic.set y 2);
        Sim.spawn (fun () ->
            SP.relax 75;
            let v = SP.Atomic.get y in
            read := (v, SP.now_ns ()));
        Sim.spawn (fun () -> SP.relax 80);
        Sim.await_all ();
        !read)
  in
  let (seen, done_at), near = run 20 in
  Alcotest.(check int) "owner's write lands inside the hit" 2 seen;
  Alcotest.(check int64) "hit completes at 75 + 12" 87L done_at;
  let (seen, done_at), far = run 200 in
  Alcotest.(check int) "owner too far ahead: hit reads 1" 1 seen;
  Alcotest.(check int64) "and completes at 87" 87L done_at;
  Alcotest.(check int) "near: the hit parks" 6 near.Sim.switches;
  Alcotest.(check int) "far: it runs on" 4 far.Sim.switches

(* Minor words per scheduling event over a whole run of [fibers]
   workers, each looping [relax 1] at the benchmarks' jitter of 2. The
   count is deterministic; the run's fixed setup is amortised over
   enough events to stay below the bounds' slack. *)
let words_per_event ~fibers ~iters =
  let before = Gc.minor_words () in
  let (), stats =
    Sim.run ~seed:1 ~jitter:2 ~topology:Topology.emerald (fun () ->
        for _ = 1 to fibers do
          Sim.spawn (fun () ->
              for _ = 1 to iters do
                SP.relax 1
              done)
        done;
        Sim.await_all ())
  in
  (Gc.minor_words () -. before) /. float_of_int stats.Sim.events

(* A fiber alone never switches: its events allocate nothing, the
   jitter draw included. *)
let test_sim_solo_event_allocation () =
  let w = words_per_event ~fibers:1 ~iters:50_000 in
  if w >= 0.05 then Alcotest.failf "solo event: %.4f minor words/event" w

(* 56 fibers at equal clocks switch on every event: only the captured
   continuation (2 words) is left. *)
let test_sim_round_robin_allocation () =
  let w = words_per_event ~fibers:56 ~iters:2_000 in
  if w > 2.05 then
    Alcotest.failf "56-fiber round robin: %.4f minor words/event" w

(* ------------------------------------------------------------------ *)
(* Stacks inside the simulator, at paper-scale thread counts            *)

module type STACK = Sec_spec.Stack_intf.S

let sim_conservation (module S : STACK) ~threads ~ops () =
  let pushed_minus_popped, _ =
    Sim.run ~topology:Topology.emerald (fun () ->
        let s = S.create ~max_threads:threads () in
        let pushed = Array.make threads 0 and popped = Array.make threads 0 in
        for _ = 1 to threads do
          Sim.spawn (fun () ->
              let tid = Sim.fiber_id () in
              for i = 1 to ops do
                if SP.rand_int 2 = 0 then begin
                  S.push s ~tid ((tid * 1_000_000) + i);
                  pushed.(tid) <- pushed.(tid) + 1
                end
                else
                  match S.pop s ~tid with
                  | Some _ -> popped.(tid) <- popped.(tid) + 1
                  | None -> ()
              done)
        done;
        Sim.await_all ();
        (* Drain sequentially as a fresh fiber would; main can use tid 0. *)
        let rec drain n =
          match S.pop s ~tid:0 with Some _ -> drain (n + 1) | None -> n
        in
        let remaining = drain 0 in
        Array.fold_left ( + ) 0 pushed - Array.fold_left ( + ) 0 popped - remaining)
  in
  Alcotest.(check int) "pushed = popped + remaining" 0 pushed_minus_popped

module SimTreiber = Sec_stacks.Treiber.Make (SP) (Sec_reclaim.Reclaim.Gc)
module SimEb = Sec_stacks.Eb_stack.Make (SP)
module SimFc = Sec_stacks.Fc_stack.Make (SP)
module SimCc = Sec_stacks.Cc_stack.Make (SP)
module SimTs = Sec_stacks.Ts_stack.Make (SP) (Sec_reclaim.Reclaim.Gc)
module SimSec = Sec_core.Sec_stack.Make (SP)

let sim_linearizability (module S : STACK) ?(threads = 5) ?(ops = 8)
    ?(seeds = 8) () =
  let module I = Sec_spec.History.Instrument (SP) (S) in
  for seed = 1 to seeds do
    let events, _ =
      Sim.run ~seed ~jitter:40 ~topology:Topology.testbox (fun () ->
          let t = I.create ~max_threads:threads () in
          for _ = 1 to threads do
            Sim.spawn (fun () ->
                let tid = Sim.fiber_id () in
                for i = 1 to ops do
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
        Printf.eprintf "[%s] sim lin check gave up (seed %d)\n%!" S.name seed
    | Sec_spec.Lin_check.Not_linearizable ->
        Alcotest.failf "%s: seed %d produced a non-linearizable history" S.name
          seed
  done

(* ------------------------------------------------------------------ *)
(* Adversarial paths through the event loop: jitter determinism and
   heap key-packing range checks. The suspension adversary and the step
   budget belong to {!Explore}; test_progress and test_explore cover
   them. *)

(* Same seed + jitter -> identical schedule digest and event count;
   different jitter -> a different schedule (the digest must move).     *)
let jittered_digest ~seed ~jitter =
  let _, stats =
    Sim.run ~seed ~jitter ~topology:Topology.testbox (fun () ->
        let c = SP.Atomic.make 0 in
        for _ = 1 to 4 do
          Sim.spawn (fun () ->
              for _ = 1 to 25 do
                ignore (SP.Atomic.fetch_and_add c 1)
              done)
        done;
        Sim.await_all ())
  in
  (stats.Sim.schedule_digest, stats.Sim.events)

let test_jitter_determinism () =
  let d1 = jittered_digest ~seed:42 ~jitter:9 in
  let d2 = jittered_digest ~seed:42 ~jitter:9 in
  Alcotest.(check (pair int int)) "same seed+jitter replays" d1 d2;
  let d3 = jittered_digest ~seed:42 ~jitter:10 in
  Alcotest.(check bool) "jitter change perturbs schedule" true
    (fst d1 <> fst d3);
  Alcotest.(check bool) "digest non-negative" true (fst d1 >= 0)

(* Heap key packing rejects out-of-range fids and times instead of
   silently corrupting the schedule order.                              *)
let test_heap_pack_range () =
  let max_fid = (1 lsl Sim.Heap.fid_bits) - 1 - Sim.Heap.fid_bias in
  (* In-range keys pack and preserve (time, fid) ordering. *)
  Alcotest.(check bool) "time dominates" true
    (Sim.Heap.pack 5 max_fid < Sim.Heap.pack 6 0);
  Alcotest.(check bool) "fid breaks ties" true
    (Sim.Heap.pack 5 0 < Sim.Heap.pack 5 1);
  let rejects time fid =
    match Sim.Heap.pack time fid with
    | _ -> Alcotest.failf "pack %d %d accepted" time fid
    | exception Invalid_argument _ -> ()
  in
  rejects 0 (max_fid + 1);
  rejects 0 (-1 - Sim.Heap.fid_bias);
  rejects (1 lsl (63 - Sim.Heap.fid_bits)) 0;
  rejects (-1) 0

(* Differential test of the scheduler's ready heap against a sorted-list
   reference: seeded random push / pop / replace_min sequences, with keys
   drawn from small times (many ties broken by fid) and from the edges of
   the packing range — the largest fid and times just below
   2^(62 - fid_bits). After every step the heap's min must equal the
   reference's head.

   Then the shapes a sentinel-based child pick gets wrong first (the
   sift reads a missing right child as [max_int]): every heap of 1-3
   keys over a pool that repeats keys and holds the largest packed key,
   so a node has only a left child; [replace_min] at every size up to
   194 keys (sapphire's 192 fibers plus [fid_bias]); and the largest
   packed key, which equals [max_int], as a child and as the
   replacement. *)
let test_heap_differential () =
  let max_fid = (1 lsl Sim.Heap.fid_bits) - 1 - Sim.Heap.fid_bias in
  let max_time = (1 lsl (62 - Sim.Heap.fid_bits)) - 1 in
  let key st =
    let time =
      match Random.State.int st 3 with
      | 0 -> Random.State.int st 8
      | 1 -> max_time - Random.State.int st 8
      | _ -> Random.State.int st 1_000_000
    in
    let fid =
      match Random.State.int st 3 with
      | 0 -> max_fid - Random.State.int st 4
      | 1 -> Random.State.int st 4 - Sim.Heap.fid_bias
      | _ -> Random.State.int st 1000
    in
    Sim.Heap.pack time fid
  in
  let head = function [] -> -1 | k :: _ -> k in
  for seed = 1 to 50 do
    let st = Random.State.make [| seed |] in
    let h = Sim.Heap.create () in
    let reference = ref [] in
    for step = 1 to 400 do
      let k = key st in
      (match Random.State.int st 4 with
      | 0 | 1 ->
          Sim.Heap.push h k;
          reference := List.merge Int.compare [ k ] !reference
      | 2 ->
          let got = Sim.Heap.pop h in
          Alcotest.(check int)
            (Printf.sprintf "seed %d step %d pop" seed step)
            (head !reference) got;
          reference := (match !reference with [] -> [] | _ :: r -> r)
      | _ -> (
          match !reference with
          | m :: rest when k >= m ->
              let got = Sim.Heap.replace_min h k in
              Alcotest.(check int)
                (Printf.sprintf "seed %d step %d replace_min" seed step)
                m got;
              reference := List.merge Int.compare [ k ] rest
          | _ ->
              Sim.Heap.push h k;
              reference := List.merge Int.compare [ k ] !reference));
      Alcotest.(check int)
        (Printf.sprintf "seed %d step %d min_key" seed step)
        (head !reference) (Sim.Heap.min_key h)
    done;
    (* drain: the heap yields the reference in order, then -1 *)
    List.iter
      (fun k -> Alcotest.(check int) "drain" k (Sim.Heap.pop h))
      !reference;
    Alcotest.(check int) "empty pop" (-1) (Sim.Heap.pop h)
  done;
  let top = Sim.Heap.pack max_time max_fid in
  Alcotest.(check int) "largest packed key is max_int" max_int top;
  (* push [keys], apply each applicable [replace_min], then drain *)
  let check_shape keys replacements =
    let label = Printf.sprintf "%d keys" (List.length keys) in
    let h = Sim.Heap.create () in
    List.iter (Sim.Heap.push h) keys;
    let replace reference k =
      match reference with
      | m :: rest when k >= m ->
          Alcotest.(check int) label m (Sim.Heap.replace_min h k);
          List.merge Int.compare [ k ] rest
      | _ -> reference
    in
    List.fold_left replace (List.sort Int.compare keys) replacements
    |> List.iter (fun k -> Alcotest.(check int) label k (Sim.Heap.pop h));
    Alcotest.(check int) label (-1) (Sim.Heap.pop h)
  in
  let pool = [ 0; 1; Sim.Heap.pack 3 0; top - 1; top ] in
  let rec sequences n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun ks -> List.map (fun k -> k :: ks) pool)
        (sequences (n - 1))
  in
  List.iter
    (fun keys -> List.iter (fun k -> check_shape keys [ k ]) pool)
    (sequences 1 @ sequences 2 @ sequences 3);
  let st = Random.State.make [| 194 |] in
  let draw () = if Random.State.int st 4 = 0 then top else key st in
  for n = 1 to 194 do
    check_shape
      (List.init n (fun _ -> draw ()))
      (List.init (2 * n) (fun _ -> draw ()));
    check_shape (List.init n (fun i -> if i = n - 1 then top else i)) [ top ]
  done

let () =
  Alcotest.run "sim"
    [
      ( "cache model",
        [
          Alcotest.test_case "read costs" `Quick test_cache_read_costs;
          Alcotest.test_case "write invalidates" `Quick
            test_cache_write_invalidates;
          Alcotest.test_case "rmw premium" `Quick test_cache_rmw_premium;
          Alcotest.test_case "line serializes" `Quick
            test_cache_line_serializes;
          Alcotest.test_case "ping-pong traffic" `Quick
            test_cache_ping_pong_traffic;
          Alcotest.test_case "smt siblings share cache" `Quick
            test_smt_siblings_share_cache;
          Alcotest.test_case "dead line collectable" `Quick
            test_cache_line_collectable;
          QCheck_alcotest.to_alcotest qcheck_cache_model_invariants;
        ] );
      ( "topology",
        [
          Alcotest.test_case "placement" `Quick test_topology_placement;
          Alcotest.test_case "by name" `Quick test_topology_by_name;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "shared counter" `Quick test_sim_counter_faa;
          Alcotest.test_case "determinism" `Quick test_sim_determinism;
          Alcotest.test_case "virtual-time parallelism" `Quick
            test_sim_parallelism_in_virtual_time;
          Alcotest.test_case "numa penalty" `Quick test_sim_numa_penalty;
          Alcotest.test_case "spawn limit" `Quick test_sim_spawn_limit;
          Alcotest.test_case "prim outside run" `Quick test_sim_prim_outside_run;
          Alcotest.test_case "dispatch restored after raise" `Quick
            test_sim_dispatch_restored;
          Alcotest.test_case "relax advances clock" `Quick
            test_sim_relax_advances_clock;
          Alcotest.test_case "hit spin: one switch per probe" `Quick
            test_sim_hit_spin_one_switch;
          Alcotest.test_case "access after a hit waits its turn" `Quick
            test_sim_access_after_hit_waits;
          Alcotest.test_case "read miss takes its value at completion" `Quick
            test_sim_read_miss_value_at_completion;
          Alcotest.test_case "hit waits for a write in flight" `Quick
            test_sim_hit_waits_for_write_in_flight;
          Alcotest.test_case "hit sees an owner's write inside it" `Quick
            test_sim_hit_sees_owner_write;
          Alcotest.test_case "solo event allocates nothing" `Quick
            test_sim_solo_event_allocation;
          Alcotest.test_case "round robin allocates 2 words/event" `Quick
            test_sim_round_robin_allocation;
          Alcotest.test_case "spawn inherits time" `Quick
            test_sim_spawn_inherits_time;
          Alcotest.test_case "await without workers" `Quick
            test_sim_await_without_workers;
          Alcotest.test_case "sequential runs independent" `Quick
            test_sim_sequential_runs_independent;
        ] );
      ( "adversarial paths",
        [
          Alcotest.test_case "jitter determinism" `Quick
            test_jitter_determinism;
          Alcotest.test_case "heap pack range" `Quick test_heap_pack_range;
          Alcotest.test_case "heap differential" `Quick
            test_heap_differential;
        ] );
      ( "stacks at 40 fibers",
        [
          Alcotest.test_case "treiber conservation" `Quick
            (sim_conservation (module SimTreiber) ~threads:40 ~ops:100);
          Alcotest.test_case "eb conservation" `Quick
            (sim_conservation (module SimEb) ~threads:40 ~ops:100);
          Alcotest.test_case "fc conservation" `Quick
            (sim_conservation (module SimFc) ~threads:40 ~ops:100);
          Alcotest.test_case "cc conservation" `Quick
            (sim_conservation (module SimCc) ~threads:40 ~ops:100);
          Alcotest.test_case "tsi conservation" `Quick
            (sim_conservation (module SimTs) ~threads:40 ~ops:100);
          Alcotest.test_case "sec conservation" `Quick
            (sim_conservation (module SimSec) ~threads:40 ~ops:100);
        ] );
      ( "linearizability under schedule exploration",
        [
          Alcotest.test_case "treiber" `Slow
            (sim_linearizability (module SimTreiber));
          Alcotest.test_case "eb" `Slow (sim_linearizability (module SimEb));
          Alcotest.test_case "fc" `Slow (sim_linearizability (module SimFc));
          Alcotest.test_case "cc" `Slow (sim_linearizability (module SimCc));
          Alcotest.test_case "tsi" `Slow (sim_linearizability (module SimTs));
          Alcotest.test_case "sec" `Slow (sim_linearizability (module SimSec));
        ] );
    ]
