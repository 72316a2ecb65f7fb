(* perfbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints context lines, then each metric as "name value unit", and as its
   last line one JSON object {correct, attempted, failed, metrics}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones. Exits 1 when the output check fails. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match Perfbench.Workloads.find !workload with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", "
             (List.map (fun s -> s.Perfbench.Workloads.name) Perfbench.Workloads.all));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let run =
    if !trace = 1 then Perfbench.Workloads.per_layer
    else Perfbench.Workloads.end_to_end
  in
  let r = run spec ~seed:!seed ~seconds:!seconds in
  let open Perfbench.Workloads in
  Printf.printf "workload %s  seed %d  seconds %d  trace %d\n" spec.name !seed
    !seconds !trace;
  List.iter (Printf.printf "  # %s\n") r.notes;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-38s %14.6g %s\n" name v unit)
    r.metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          r.metrics));
  if not r.correct then exit 1
