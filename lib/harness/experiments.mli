(** The experiment registry: one entry per figure and table of the paper's
    evaluation, plus the supporting runs (DESIGN.md §4 holds the index).
    Series cells run on {!Runner.BACKEND}s, so the paper's throughput
    figures run simulated (paper-scale) and native sweeps from one
    definition. *)

type backend_choice = [ `Sim | `Native | `Both ]

type opts = {
  scale : float;  (** duration multiplier (1.0 = default run length) *)
  csv_dir : string option;  (** write CSV series here if set *)
  backend : backend_choice;  (** which execution substrate(s) to sweep *)
  seed : int;  (** run seed; simulated results are deterministic per seed *)
}

val default_opts : opts

(** An experiment is a [plan]: its decomposition into [cell]s (one
    table, or one mix's series on one backend) whose jobs are independent
    runs, one data point each. {!run_one} executes a plan's jobs in order
    and {!run_figures} fans them out over a domain pool; both render the
    same cells, so their CSVs are byte-identical. *)
type t = { id : string; title : string; plan : opts -> cell list }

and cell = {
  cell_id : string;
      (** unique across {!all}, e.g. ["fig2/100%upd"] or
          ["fig2/100%upd_native"]; tables use the bare id *)
  cell_fig : string;  (** owning experiment id *)
  cell_topology : string;
  cell_title : string;
  cell_file : string;  (** CSV file name under [opts.csv_dir] *)
  cell_jobs : (unit -> job_result) array;
      (** independent runs, canonical (row-major) order *)
  cell_render : job_result array -> output;  (** pure *)
}

and job_result =
  | Mops of float * int option
      (** throughput point, schedule digest (none natively) *)
  | Degrees of (float * float * float) * int
      (** (batching degree, %elimination, %combining), schedule digest *)
  | Histogram of Latency.t  (** per-operation latencies *)

and output =
  | Series of { columns : int list; rows : (string * float array) list }
  | Keyed of {
      key : string;  (** CSV header of the row-name column *)
      columns : string list;
      rows : (string * string list) list;
    }

(** The schedule digest a job's simulation reported
    ([Sim.stats.schedule_digest]); [None] for native and latency jobs. *)
val digest_of : job_result -> int option

(** Simulated duration for one data point under [opts]. *)
val duration_cycles : opts -> int

(** Native wall-clock duration for one data point under [opts]. *)
val native_duration : opts -> float

(** Thread counts swept on a given machine profile. *)
val threads_for : Sec_sim.Topology.t -> int list

(** The backends selected by [opts.backend], simulating [topology]. *)
val backends_of :
  opts -> topology:Sec_sim.Topology.t -> (module Runner.BACKEND) list

(** [series_experiment ~id ~title ~topology ~entries ~series_title mixes]
    has one throughput cell per (backend, mix): [entries] down, thread
    counts ([threads], default the backend's sweep) across. [backends]
    defaults to one simulated backend for [topology]. CSVs are named
    [<file>_<mix>.csv] with [file] the id ('_' for '-'); an explicit
    [file] names [<file>.csv]. Either gets the backend's suffix. *)
val series_experiment :
  id:string ->
  title:string ->
  topology:Sec_sim.Topology.t ->
  ?backends:
    (opts -> topology:Sec_sim.Topology.t -> (module Runner.BACKEND) list) ->
  ?threads:int list ->
  ?file:string ->
  entries:Registry.entry list ->
  series_title:string ->
  Workload.mix list ->
  t

(** The paper's figures and tables: fig2..fig12, table1..table3. *)
val paper : t list

(** Ablations, the pool extension, latency percentiles, the seed spread
    and the pinned [smoke] run the @bench-smoke alias golden-diffs. *)
val supporting : t list

(** [paper @ supporting]. *)
val all : t list

val find : string -> t option
val ids : unit -> string list

(** [run_cells ?jobs opts cells] runs every cell's jobs over one
    [jobs]-domain pool (default 1; taken literally, as by {!Sweep.map}),
    then prints each cell's table and writes its CSV under
    [opts.csv_dir], in order. The output is the same for every [jobs].
    Returns each cell with its job results and rendered output. *)
val run_cells :
  ?jobs:int -> opts -> cell list -> (cell * job_result array * output) list

(** Print an experiment's header and run its plan serially. *)
val run_one : opts -> t -> unit

(** [report_section cell output] is [cell]'s REPORT.md section and its
    verdict against EXPERIMENTS.md's recorded claim for the cell:
    [Some true] for a match, [Some false] for a deviation, [None] when
    no claim covers it. A [Series] is scored at its last (top) thread
    count; a [Keyed] table by its averaged ["%Elimination"] and
    ["%Combining"] rows. *)
val report_section : cell -> output -> string * bool option

(** [run_figures opts ~jobs ()] regenerates the paper figure set: every
    plan's cells are decomposed into independent simulation jobs, fanned
    out over a [jobs]-domain {!Sweep} pool (clamped to the host's
    recommended domain count) and rendered in canonical order — stdout
    tables, CSVs (under [opts.csv_dir]), the optional [report_path]
    REPORT.md (curve shapes vs EXPERIMENTS.md's recorded claims) and the
    optional [digest_path] per-job schedule-digest CSV are bit-identical
    for every pool size, including [~jobs:1]. Only simulated cells are
    built, whatever [opts.backend] says. [?only] filters by experiment id
    ("fig2", "smoke") or cell id ("fig2/100%upd") and may name any
    experiment in {!all}; without it the cells of {!paper} run.
    [?topology] restricts to one machine's cells. Unknown filters raise
    [Invalid_argument] before any job runs. *)
val run_figures :
  opts ->
  jobs:int ->
  ?topology:string ->
  ?only:string list ->
  ?report_path:string ->
  ?digest_path:string ->
  unit ->
  unit
