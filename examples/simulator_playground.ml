(* A tour of the discrete-event simulator as a library: run any concurrent
   code at a chosen machine scale, measure virtual time and coherence
   traffic, and reproduce a race deterministically from a seed.

     dune exec examples/simulator_playground.exe *)

module Sim = Sec_sim.Sim
module SP = Sim.Prim
module Topology = Sec_sim.Topology

(* 1. The contention cliff: the same fetch&add loop, private vs shared. *)
let contention_cliff () =
  print_endline "1. Contention: 24 fibers incrementing counters on emerald";
  let run shared_counter =
    let (), stats =
      Sim.run ~topology:Topology.emerald (fun () ->
          let shared = SP.Atomic.make 0 in
          for _ = 1 to 24 do
            Sim.spawn (fun () ->
                let c = if shared_counter then shared else SP.Atomic.make 0 in
                for _ = 1 to 1_000 do
                  ignore (SP.Atomic.fetch_and_add c 1)
                done)
          done;
          Sim.await_all ())
    in
    stats
  in
  let private_ = run false and shared = run true in
  Printf.printf "   private counters: %7d cycles, %5d transfers\n"
    private_.Sim.elapsed_cycles private_.Sim.traffic.Sec_sim.Cache_model.transfers;
  Printf.printf "   one shared cell:  %7d cycles, %5d transfers  (%.0fx slower)\n"
    shared.Sim.elapsed_cycles shared.Sim.traffic.Sec_sim.Cache_model.transfers
    (float_of_int shared.Sim.elapsed_cycles
    /. float_of_int private_.Sim.elapsed_cycles)

(* 2. Machines are data: the same stack workload on all three testbeds. *)
let machine_comparison () =
  print_endline "2. One workload, three machines (SEC, 100% updates, all HW threads)";
  List.iter
    (fun topo ->
      let threads = Topology.max_threads topo in
      let m, _ =
        Sec_harness.Sim_runner.run_with_stats
          Sec_harness.Registry.sec.Sec_harness.Registry.maker
          ~topology:topo ~threads ~duration_cycles:100_000
          ~mix:Sec_harness.Workload.update_heavy ()
      in
      let label = Format.asprintf "%a" Topology.pp topo in
      Printf.printf "   %-48s %6.1f Mops/s\n" label
        m.Sec_harness.Measurement.mops)
    [ Topology.emerald; Topology.icelake; Topology.sapphire ]

(* 3. Determinism: a seed names an interleaving, so a "race" reproduces. *)
let deterministic_replay () =
  print_endline "3. Deterministic replay: who wins the race, by seed";
  let winner seed =
    let w, _ =
      Sim.run ~seed ~jitter:50 ~topology:Topology.testbox (fun () ->
          let flag = SP.Atomic.make (-1) in
          for _ = 1 to 4 do
            Sim.spawn (fun () ->
                let me = Sim.fiber_id () in
                SP.relax (1 + SP.rand_int 100);
                ignore (SP.Atomic.compare_and_set flag (-1) me))
          done;
          Sim.await_all ();
          SP.Atomic.get flag)
    in
    w
  in
  List.iter
    (fun seed ->
      let a = winner seed and b = winner seed in
      assert (a = b);
      Printf.printf "   seed %d -> fiber %d wins (reproducibly)\n" seed a)
    [ 1; 2; 3; 4; 5 ]

let () =
  contention_cliff ();
  machine_comparison ();
  deterministic_replay ()
