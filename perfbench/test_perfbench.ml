(* The counting substrate wrapper must be invisible to the simulator: a
   registry structure run on [Counting.Make (Sim.Prim)] takes exactly
   the schedule of the same run on [Sim.Prim]. *)

module Plain = Sec_harness.Runner.Make (Sec_sim.Sim.Prim)
module Counted = Sec_harness.Runner.Make (Perfbench.Counting.Make (Sec_sim.Sim.Prim))

let run drive name =
  let entry = Sec_harness.Registry.find name in
  Sec_sim.Sim.run ~seed:7 ~jitter:2 ~topology:Sec_sim.Topology.emerald (fun () ->
      drive entry.Sec_harness.Registry.maker)

let plain maker =
  (snd
     (Plain.run_maker maker ~op_overhead:10 ~threads:8
        ~stop:(Plain.Timed 300_000) ~mix:Sec_harness.Workload.update_heavy ()))
    .Plain.counts

let counted maker =
  (snd
     (Counted.run_maker maker ~op_overhead:10 ~threads:8
        ~stop:(Counted.Timed 300_000) ~mix:Sec_harness.Workload.update_heavy ()))
    .Counted.counts

let same_schedule name () =
  let counts_p, sp = run plain name in
  Perfbench.Counting.reset ();
  let counts_c, sc = run counted name in
  let total c = Perfbench.Cells.total Perfbench.Counting.cells c in
  Alcotest.(check int) "schedule digest" sp.Sec_sim.Sim.schedule_digest
    sc.Sec_sim.Sim.schedule_digest;
  Alcotest.(check (array int)) "per-thread counts" counts_p counts_c;
  Alcotest.(check int) "note_alloc counted" sc.Sec_sim.Sim.allocs
    (total Perfbench.Counting.Ix.allocs);
  Alcotest.(check bool) "fetch&adds counted" true (total Perfbench.Counting.Ix.faa > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "counting wrapper",
        [
          Alcotest.test_case "SEC schedule unchanged" `Quick (same_schedule "SEC");
          Alcotest.test_case "SEC+MAG schedule unchanged" `Quick
            (same_schedule "SEC+MAG");
        ] );
    ]
