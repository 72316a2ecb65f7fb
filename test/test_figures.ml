(* Golden tests for the figure pipeline: the pinned-seed cells (one per
   machine profile) must reproduce the pre-refactor CSV bytes and
   per-job schedule digests checked in under test/goldens/, and the
   parallel sweep must be bit-identical to serial execution. The
   parallel leg calls {!Sweep.map} directly (not [run_figures], whose
   policy clamp would fold a 2-domain request back to 1 on a 1-core
   host), so it exercises a real multi-domain pool everywhere. *)

module E = Sec_harness.Experiments
module Sweep = Sec_harness.Sweep

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* cwd is test/ under `dune runtest`, the repo root under `dune exec`. *)
let goldens_dir =
  if Sys.file_exists "goldens" then "goldens"
  else Filename.concat "test" "goldens"

let golden name = read_file (Filename.concat goldens_dir name)
let cell_ids = [ "fig2/100%upd"; "fig5/100%upd"; "fig9/100%upd" ]
let csv_files = [ "fig2_100%upd.csv"; "fig5_100%upd.csv"; "fig9_100%upd.csv" ]

let opts dir =
  { E.scale = 0.05; csv_dir = dir; backend = `Sim; seed = 1 }

(* ------------------------------------------------------------------ *)
(* Serial figures run reproduces the checked-in goldens byte-for-byte. *)

let test_serial_golden () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "sec_test_figures_out"
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  E.run_figures (opts (Some dir)) ~jobs:1 ~only:cell_ids
    ~digest_path:(Filename.concat dir "digests.csv") ();
  List.iter
    (fun f ->
      let got = read_file (Filename.concat dir f) in
      let want = golden (Filename.remove_extension f ^ ".golden.csv") in
      Alcotest.(check string) (f ^ " bytes") want got)
    csv_files;
  let got = read_file (Filename.concat dir "digests.csv") in
  let want = golden "figures_digests.golden.csv" in
  Alcotest.(check string) "digest csv bytes" want got

(* ------------------------------------------------------------------ *)
(* The same cells fanned out over a forced 2-domain pool match the
   golden digests job-for-job.                                          *)

let golden_digests () =
  golden "figures_digests.golden.csv"
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"cell," l))
  |> List.map (fun l ->
         match String.split_on_char ',' l with
         | [ cell; job; digest ] -> (cell, int_of_string job, int_of_string digest)
         | _ -> Alcotest.failf "malformed digest line %S" l)

let cell_of id =
  let fig = List.hd (String.split_on_char '/' id) in
  match E.find fig with
  | Some e -> (
      match List.find_opt (fun c -> c.E.cell_id = id) (e.plan (opts None)) with
      | Some c -> c
      | None -> Alcotest.failf "experiment %s has no cell %s" fig id)
  | None -> Alcotest.failf "no experiment %s" fig

let test_parallel_digests () =
  let golden = golden_digests () in
  List.iter
    (fun id ->
      let c = cell_of id in
      let results = Sweep.map ~jobs:2 (fun job -> job ()) c.E.cell_jobs in
      let want = List.filter (fun (cell, _, _) -> cell = id) golden in
      Alcotest.(check int) (id ^ " job count") (List.length want)
        (Array.length results);
      List.iter
        (fun (_, j, d) ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s job %d digest" id j)
            (Some d)
            (E.digest_of results.(j)))
        want)
    cell_ids

(* ------------------------------------------------------------------ *)
(* A supporting experiment through the pool: the smoke cell's jobs over
   a forced 2-domain pool reproduce the @bench-smoke golden CSV.        *)

let smoke_golden =
  read_file
    (if Sys.file_exists "smoke.golden.csv" then "smoke.golden.csv"
     else Filename.concat "test" "smoke.golden.csv")

let test_smoke_pool () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "sec_test_figures_smoke"
  in
  let csv = Filename.concat dir "smoke.csv" in
  if Sys.file_exists csv then Sys.remove csv;
  ignore (E.run_cells ~jobs:2 (opts (Some dir)) [ cell_of "smoke/100%upd" ]);
  Alcotest.(check string) "smoke.csv bytes" smoke_golden (read_file csv)

(* ------------------------------------------------------------------ *)
(* Unknown --only filters are rejected up front, before any job runs.  *)

let test_unknown_filter () =
  match E.run_figures (opts None) ~jobs:1 ~only:[ "fig99" ] () with
  | () -> Alcotest.fail "unknown filter accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The REPORT.md scorer on synthetic cells: each section's lines and   *)
(* its verdict against the claim EXPERIMENTS.md records for the cell.  *)

let synthetic ~id ~fig =
  {
    E.cell_id = id;
    cell_fig = fig;
    cell_topology = "emerald";
    cell_title = "synthetic " ^ id;
    cell_file = "unused.csv";
    cell_jobs = [||];
    cell_render = (fun _ -> Alcotest.fail "synthetic cells do not render");
  }

let series rows = E.Series { columns = [ 1; 56 ]; rows }

let check_section name ~id ~fig out ~verdict ~lines =
  let text, got = E.report_section (synthetic ~id ~fig) out in
  Alcotest.(check (option bool)) (name ^ " verdict") verdict got;
  Alcotest.(check (list string)) (name ^ " lines")
    ([ Printf.sprintf "## %s (emerald)" id; ""; "synthetic " ^ id; "" ]
    @ lines @ [ ""; "" ])
    (String.split_on_char '\n' text)

let test_scorer_best_match () =
  check_section "best match" ~id:"fig2/100%upd" ~fig:"fig2"
    (series
       [ ("TSI", [| 2.; 5. |]); ("SEC", [| 1.; 9. |]); ("TRB", [| 3.; 1. |]) ])
    ~verdict:(Some true)
    ~lines:
      [
        "- At 56 threads: **SEC** leads with 9.00 Mops/s; runner-up TSI at \
         5.00 (1.80x behind); weakest TRB at 1.00.";
        "- EXPERIMENTS.md records **SEC** as the winner here — **MATCH**.";
      ]

let test_scorer_best_deviation () =
  check_section "best deviation" ~id:"fig5/100%upd" ~fig:"fig5"
    (series [ ("TSI", [| 2.; 4. |]); ("SEC", [| 1.; 6. |]) ])
    ~verdict:(Some false)
    ~lines:
      [
        "- At 56 threads: **SEC** leads with 6.00 Mops/s; runner-up TSI at \
         4.00 (1.50x behind); weakest TSI at 4.00.";
        "- EXPERIMENTS.md records **TSI** as the winner here — **DEVIATION** \
         (SEC leads).";
      ]

let test_scorer_worst_match () =
  check_section "worst match" ~id:"fig4/50%upd" ~fig:"fig4"
    (series
       [
         ("SEC", [| 1.; 8. |]);
         ("SEC_Agg1", [| 1.; 0.5 |]);
         ("SEC_Agg4", [| 1.; 2. |]);
       ])
    ~verdict:(Some true)
    ~lines:
      [
        "- At 56 threads: **SEC** leads with 8.00 Mops/s; runner-up SEC_Agg4 \
         at 2.00 (4.00x behind); weakest SEC_Agg1 at 0.50.";
        "- EXPERIMENTS.md records **SEC_Agg1** as the weakest line here — \
         **MATCH**.";
      ]

let test_scorer_elim_dominates () =
  check_section "keyed elim dominates" ~id:"table1" ~fig:"table1"
    (E.Keyed
       {
         key = "metric";
         columns = [ "100%upd"; "50%upd" ];
         rows =
           [
             ("Batching degree", [ "3.1"; "2.2" ]);
             ("%Elimination", [ "60.0"; "40.0" ]);
             ("%Combining", [ "30.0"; "n/a" ]);
           ];
       })
    ~verdict:(Some true)
    ~lines:
      [
        "- Elimination 50.0% vs combining 30.0% (averaged over mixes) — \
         EXPERIMENTS.md records elimination dominating — **MATCH**.";
      ]

let test_scorer_unclaimed () =
  check_section "no claim" ~id:"smoke/100%upd" ~fig:"smoke"
    (series [ ("SEC", [| 1.; 2. |]); ("TRB", [| 1.; 3. |]) ])
    ~verdict:None
    ~lines:
      [
        "- At 56 threads: **TRB** leads with 3.00 Mops/s; runner-up SEC at \
         2.00 (1.50x behind); weakest SEC at 2.00.";
      ]

let () =
  Alcotest.run "figures"
    [
      ( "golden cells",
        [
          Alcotest.test_case "serial run reproduces goldens" `Quick
            test_serial_golden;
          Alcotest.test_case "2-domain pool matches golden digests" `Quick
            test_parallel_digests;
          Alcotest.test_case "unknown --only rejected" `Quick
            test_unknown_filter;
          Alcotest.test_case "smoke through a 2-domain pool" `Quick
            test_smoke_pool;
        ] );
      ( "scorer",
        [
          Alcotest.test_case "best match" `Quick test_scorer_best_match;
          Alcotest.test_case "best deviation" `Quick test_scorer_best_deviation;
          Alcotest.test_case "worst match" `Quick test_scorer_worst_match;
          Alcotest.test_case "keyed elim dominates" `Quick
            test_scorer_elim_dominates;
          Alcotest.test_case "unclaimed cell" `Quick test_scorer_unclaimed;
        ] );
    ]
