(* Machine-readable benchmark baseline: one pinned simulated
   configuration, emitted as BENCH_sim.json and diffed against the
   checked-in copy by `dune build @bench-smoke` (and CI). Where the
   smoke CSV pins two algorithms' exact operation counts, this file
   covers every structure in the comparison and adds the allocation
   dimension: simulated allocations per run (the substrate's
   [note_alloc] tally) and the simulated cells it created
   ([Sim.stats.cells], one per [Atomic.make]: SEC's batch footprint) —
   and the simulator's own cost: the scheduling events and the context
   switches each row took ([Sim.stats.events], [Sim.stats.switches]),
   which set how long a simulated run takes on the wall clock.

   Every column is deterministic per seed, so the file regenerates byte
   for byte and regressions are exact: a row's throughput falling, or
   its allocations, events, switches or cells per operation rising,
   more than the threshold past the checked-in baseline fails the
   build. The event loop's wall-clock cost is measured elsewhere, by
   perfbench's alternating runs (`wall_mops`, `sim.events_per_s`).

   No JSON library ships in this environment, so the writer and the
   tiny recursive-descent reader below are hand-rolled; the reader
   accepts just the subset the writer produces (objects, arrays,
   strings, numbers, booleans, null). *)

type row = {
  algorithm : string;
  threads : int;
  ops : int;
  allocs : int;  (** [Sim.stats.allocs] *)
  events : int;  (** [Sim.stats.events] *)
  switches : int;  (** [Sim.stats.switches] *)
  cells : int;  (** [Sim.stats.cells] *)
  throughput : float;  (** ops per virtual cycle *)
}

type doc = {
  machine : string;
  seed : int;
  duration : float; (* virtual cycles *)
  rows : row list;
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)

(* Every registry entry: the lock and H-Synch baselines and the EBR
   structures ride along with the paper set, so their schedules and
   reclamation cost are recorded too ({!gating_algorithms} gates only
   the paper set). *)
let bench_entries = Registry.all

(* t = 8 fills testbox's eight hardware threads: four announcers per
   shard, so SEC's freeze wait runs and its cost shows in the events and
   switches columns. *)
let bench_threads = [ 1; 2; 4; 8 ]

(* A long window over a small prefill: [Sim.stats.allocs] counts the
   whole run, so the steady state must dominate the single-threaded
   prefill for the allocs column to reflect the hot path rather than
   the warm-up. *)
let bench_cycles = 200_000
let bench_prefill = 64

let sim_row entry ~topology ~threads ~mix ~seed =
  let m, stats =
    Sim_runner.run_with_stats entry.Registry.maker ~topology ~threads
      ~duration_cycles:bench_cycles ~mix ~prefill:bench_prefill ~seed ()
  in
  {
    algorithm = m.Measurement.algorithm;
    threads;
    ops = m.Measurement.ops;
    allocs = stats.Sec_sim.Sim.allocs;
    events = stats.Sec_sim.Sim.events;
    switches = stats.Sec_sim.Sim.switches;
    cells = stats.Sec_sim.Sim.cells;
    throughput = float_of_int m.Measurement.ops /. float_of_int bench_cycles;
  }

let collect ?(seed = 1) () =
  let topology = Sec_sim.Topology.testbox in
  let mix = Workload.by_name "100%upd" in
  {
    machine = topology.Sec_sim.Topology.name;
    seed;
    duration = float_of_int bench_cycles;
    rows =
      List.concat_map
        (fun entry ->
          List.map
            (fun threads -> sim_row entry ~topology ~threads ~mix ~seed)
            bench_threads)
        bench_entries;
  }

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Fixed decimal formatting keeps the checked-in file reproducible
   byte-for-byte across runs of the deterministic sim configuration. *)
let fl x = Printf.sprintf "%.8f" x

let to_string doc =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"machine\": \"%s\",\n" (escape doc.machine));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" doc.seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"duration\": %s,\n" (fl doc.duration));
  Buffer.add_string buf "  \"rows\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"algorithm\": \"%s\", \"threads\": %d, \"ops\": %d, \
            \"allocs\": %d, \"events\": %d, \"switches\": %d, \
            \"cells\": %d, \"throughput\": %s}"
           (escape r.algorithm) r.threads r.ops r.allocs r.events r.switches
           r.cells (fl r.throughput)))
    doc.rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write ~path doc =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string doc))

(* ------------------------------------------------------------------ *)
(* Reader (the writer's subset of JSON)                                *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_token () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          let simple c =
            Buffer.add_char buf c;
            advance ();
            loop ()
          in
          match peek () with
          | Some (('"' | '\\' | '/') as c) -> simple c
          | Some 'b' -> simple '\b'
          | Some 'f' -> simple '\012'
          | Some 'n' -> simple '\n'
          | Some 'r' -> simple '\r'
          | Some 't' -> simple '\t'
          | Some 'u' ->
              (* Only ASCII escapes are ever written; decode low code
                 points, reject the rest. *)
              advance ();
              let is_hex = function
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              let code =
                if !pos + 4 > n then None
                else
                  let digits = String.sub s !pos 4 in
                  (* [int_of_string] alone would also take '_' *)
                  if String.for_all is_hex digits then
                    int_of_string_opt ("0x" ^ digits)
                  else None
              in
              (match code with
              | None -> fail "bad \\u escape"
              | Some code when code > 0x7f -> fail "non-ASCII \\u escape"
              | Some code -> Buffer.add_char buf (Char.chr code));
              pos := !pos + 4;
              loop ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let number_token () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = string_token () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
    | Some '"' -> Str (string_token ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number_token ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing field " ^ key)))
  | _ -> raise (Parse_error ("not an object looking up " ^ key))

let to_float = function
  | Num f -> f
  | _ -> raise (Parse_error "expected number")

let to_int j = int_of_float (to_float j)

let to_str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected string")

(* Every column is required: a row missing one is a [Parse_error].
   Keys the reader does not know (an older file's "backend", "unit" or
   GC columns) are ignored. *)
let row_of_json j =
  {
    algorithm = to_str (member "algorithm" j);
    threads = to_int (member "threads" j);
    ops = to_int (member "ops" j);
    allocs = to_int (member "allocs" j);
    events = to_int (member "events" j);
    switches = to_int (member "switches" j);
    cells = to_int (member "cells" j);
    throughput = to_float (member "throughput" j);
  }

let of_string src =
  let j = parse src in
  {
    machine = to_str (member "machine" j);
    seed = to_int (member "seed" j);
    duration = to_float (member "duration" j);
    rows =
      (match member "rows" j with
      | Arr rows -> List.map row_of_json rows
      | _ -> raise (Parse_error "rows is not an array"));
  }

let read ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Regression check                                                    *)

type regression = {
  r_algorithm : string;
  r_threads : int;
  r_metric : string;
      (** "throughput" | "allocs/op" | "events/op" | "switches/op"
          | "cells/op" | "missing" *)
  baseline : float;
  current : float;
}

(* Only the paper-set structures gate the build: the acceptance bar for
   this layer is "no paper-set structure regresses". The other rows
   record the baselines' schedules; a change to one shows in the diff
   of the regenerated file. *)
let gating_algorithms =
  List.map (fun e -> e.Registry.name) Registry.paper_set

(* A gating row regresses when its throughput falls, or its
   allocations, scheduling events, context switches or cells per
   operation rise, more than [threshold] past the baseline's. All are
   deterministic per seed: more events or switches make every simulated
   run slower on the wall clock, more allocations or cells mean a
   heavier hot path or larger batches on the heap. The per-op epsilon
   absorbs one cold-start count against a zero baseline without
   letting a real per-op regression by. A gating row the current run
   lacks is reported as "missing" (current 0). *)
let check ?(threshold = 0.10) ~baseline ~current () =
  let reg (b : row) r_metric ~baseline ~current =
    [
      {
        r_algorithm = b.algorithm;
        r_threads = b.threads;
        r_metric;
        baseline;
        current;
      };
    ]
  in
  let per_op n (r : row) =
    if r.ops = 0 then 0. else float_of_int n /. float_of_int r.ops
  in
  let eps = 1e-3 in
  let per_op_reg metric count (b : row) (c : row) =
    let b_po = per_op (count b) b and c_po = per_op (count c) c in
    if c_po > ((1.0 +. threshold) *. b_po) +. eps then
      reg b metric ~baseline:b_po ~current:c_po
    else []
  in
  List.concat_map
    (fun (b : row) ->
      if not (List.mem b.algorithm gating_algorithms) then []
      else
        match
          List.find_opt
            (fun (c : row) ->
              c.algorithm = b.algorithm && c.threads = b.threads)
            current.rows
        with
        | None -> reg b "missing" ~baseline:b.throughput ~current:0.
        | Some c ->
            (if c.throughput < (1.0 -. threshold) *. b.throughput then
               reg b "throughput" ~baseline:b.throughput ~current:c.throughput
             else [])
            @ per_op_reg "allocs/op" (fun r -> r.allocs) b c
            @ per_op_reg "events/op" (fun r -> r.events) b c
            @ per_op_reg "switches/op" (fun r -> r.switches) b c
            @ per_op_reg "cells/op" (fun r -> r.cells) b c)
    baseline.rows
