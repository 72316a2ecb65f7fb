(** Plain-text tables (the textual equivalent of the paper's figures) and
    CSV export. *)

(** [series ~title ~columns ~rows] prints a table of Mops/s values whose
    columns are thread counts. *)
val series :
  title:string -> columns:int list -> rows:(string * float array) list -> unit

(** Key/value table (used for the batching-degree tables). *)
val keyed :
  title:string -> columns:string list -> rows:(string * string list) list -> unit

(** [ensure_dir dir] creates [dir] and any missing parents. *)
val ensure_dir : string -> unit

(** [csv ~dir ~file ~header ~rows] writes a CSV file, creating [dir]
    (and its parents) if needed. *)
val csv :
  dir:string -> file:string -> header:string list -> rows:string list list -> unit

(** [markdown ~path ~lines] writes a markdown document, one entry of
    [lines] per line, verbatim. *)
val markdown : path:string -> lines:string list -> unit

(** CSV form of a {!series} table. *)
val csv_of_series :
  dir:string ->
  file:string ->
  columns:int list ->
  rows:(string * float array) list ->
  unit
