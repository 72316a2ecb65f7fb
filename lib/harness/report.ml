(* Plain-text series tables (threads across, algorithms down) — the
   textual equivalent of the paper's figures — plus CSV export. *)

let hrule width = String.make width '-'

(* [series ~title ~columns ~rows] prints a table whose columns are thread
   counts and whose cells are Mops/s. *)
let series ~title ~columns ~rows =
  let col_width = 8 in
  let name_width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 10 rows
  in
  let total = name_width + (List.length columns * col_width) + 2 in
  Printf.printf "\n%s\n%s\n" title (hrule total);
  Printf.printf "%-*s |" name_width "threads";
  List.iter (fun c -> Printf.printf "%*d" col_width c) columns;
  Printf.printf "\n%s\n" (hrule total);
  List.iter
    (fun (name, values) ->
      Printf.printf "%-*s |" name_width name;
      Array.iter (fun v -> Printf.printf "%*.2f" col_width v) values;
      print_newline ())
    rows;
  Printf.printf "%s\n%!" (hrule total)

(* Simple key/value table, for the batching-degree tables. *)
let keyed ~title ~columns ~rows =
  let col_width = 10 in
  let name_width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 16 rows
  in
  let total = name_width + (List.length columns * col_width) + 2 in
  Printf.printf "\n%s\n%s\n" title (hrule total);
  Printf.printf "%-*s |" name_width "";
  List.iter (fun c -> Printf.printf "%*s" col_width c) columns;
  Printf.printf "\n%s\n" (hrule total);
  List.iter
    (fun (name, values) ->
      Printf.printf "%-*s |" name_width name;
      List.iter (fun v -> Printf.printf "%*s" col_width v) values;
      print_newline ())
    rows;
  Printf.printf "%s\n%!" (hrule total)

(* Creates missing parents first; a directory another process created
   in the meantime is not an error. *)
let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* CSV with a header row; one file per figure/workload. *)
let csv ~dir ~file ~header ~rows =
  ensure_dir dir;
  let path = Filename.concat dir file in
  let oc = open_out path in
  output_string oc (String.concat "," header);
  output_char oc '\n';
  List.iter
    (fun row ->
      output_string oc (String.concat "," row);
      output_char oc '\n')
    rows;
  close_out oc;
  Printf.printf "  [csv] wrote %s\n%!" path

(* Markdown report writer (REPORT.md of `sec_bench figures`): each line
   is written verbatim, so callers own the formatting. *)
let markdown ~path ~lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  Printf.printf "  [report] wrote %s\n%!" path

(* CSV rows for a series table. *)
let csv_of_series ~dir ~file ~columns ~rows =
  let header = "algorithm" :: List.map string_of_int columns in
  let data =
    List.map
      (fun (name, values) ->
        name :: (Array.to_list values |> List.map (Printf.sprintf "%.4f")))
      rows
  in
  csv ~dir ~file ~header ~rows:data
