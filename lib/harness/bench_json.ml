(* Machine-readable benchmark baseline: one pinned configuration per
   backend, emitted as BENCH_<backend>.json and diffed against a
   checked-in copy by `dune build @bench-smoke` (and CI). Where the
   smoke CSV pins two algorithms' exact operation counts, this file
   covers every structure in the comparison and adds the allocation
   dimension: simulated allocations per run (the substrate's
   [note_alloc] tally) — and the simulator's own cost: the scheduling
   events each sim row took ([Sim.stats.events]), which set how long a
   simulated run takes on the wall clock.

   The sim rows are deterministic per seed, so regressions are exact:
   a row's throughput falling, or its events per operation rising, more
   than the threshold past the checked-in baseline fails the build.
   Native rows exist for human eyes (`--backend native`); they are never
   compared automatically.

   No JSON library ships in this environment, so the writer and the
   tiny recursive-descent reader below are hand-rolled; the reader
   accepts just the subset the writer produces (objects, arrays,
   strings, numbers, booleans, null). *)

type row = {
  algorithm : string;
  threads : int;
  ops : int;
  allocs : int;  (** sim: [Sim.stats.allocs]; native: minor-heap bytes *)
  events : int;  (** sim: [Sim.stats.events]; native: 0 *)
  throughput : float;  (** ops per virtual cycle (sim) or per second *)
  (* Native rows only, zero in sim: GC counters. *)
  gc_minor_words : float;  (** native: minor words allocated; sim: 0 *)
  gc_major_colls : int;  (** native: major collections; sim: 0 *)
}

type doc = {
  backend : string; (* "sim" | "native" *)
  machine : string;
  unit_label : string; (* "ops/cycle" | "ops/s" *)
  seed : int;
  duration : float; (* virtual cycles (sim) or seconds (native) *)
  events_per_sec : float;
      (* wall-clock event-loop throughput of the pinned sim workload
         (best of several passes); 0.0 when absent (pre-event-loop-
         refactor baselines, and native docs). The only wall-clock
         number in the file: the deterministic rows stay byte-stable,
         this field varies run to run and is rounded to 3 significant
         digits to limit churn. *)
  events_spread : Variance.t option;
      (* the spread of the timed passes behind [events_per_sec], so a
         reader can tell a real change from timing noise; not written to
         the file (the baseline stays byte-stable), [None] when read back
         or when no events were measured. *)
  words_per_event : float option;
      (* minor-heap words the pinned sim workload allocates per event,
         the algorithms' own allocations included; printed, not written
         to the file, [None] as for [events_spread]. *)
  rows : row list;
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)

(* The EBR structures ride along in the baseline so their reclamation
   cost is itself recorded. *)
let bench_entries = Registry.paper_set @ Registry.reclaimed_set

let bench_threads = [ 1; 2; 4 ]

(* A long window over a small prefill: [Sim.stats.allocs] counts the
   whole run, so the steady state must dominate the single-threaded
   prefill for the allocs column to reflect the hot path rather than
   the warm-up. *)
let bench_cycles = 200_000
let bench_prefill = 64

let sim_row entry ~topology ~threads ~duration_cycles ~mix ~seed =
  let module R = Runner.Make (Sec_sim.Sim.Prim) in
  let (name, outcome), stats =
    Sec_sim.Sim.run ~seed ~jitter:2 ~topology (fun () ->
        R.run_maker entry.Registry.maker ~op_overhead:10 ~threads
          ~stop:(R.Timed duration_cycles) ~mix ~prefill:bench_prefill ())
  in
  let ops = R.total outcome in
  {
    algorithm = name;
    threads;
    ops;
    allocs = stats.Sec_sim.Sim.allocs;
    events = stats.Sec_sim.Sim.events;
    throughput = float_of_int ops /. float_of_int duration_cycles;
    gc_minor_words = 0.;
    gc_major_colls = 0;
  }

let native_row entry ~threads ~duration ~mix ~seed =
  let before = Gc.allocated_bytes () in
  let gc0 = Gc.quick_stat () in
  let m =
    Native_runner.run entry.Registry.maker ~threads ~duration ~mix
      ~prefill:bench_prefill ~seed ()
  in
  let allocated = Gc.allocated_bytes () -. before in
  let gc1 = Gc.quick_stat () in
  {
    algorithm = m.Measurement.algorithm;
    threads;
    ops = m.Measurement.ops;
    allocs = int_of_float allocated;
    events = 0;
    throughput = float_of_int m.Measurement.ops /. m.Measurement.elapsed;
    gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_major_colls = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* Event-loop throughput: wall-clock scheduling events per second over a
   pinned simulated workload — SEC (combining/elimination paths) and TRB
   (CAS loop) at 4 threads. The event count is deterministic per seed;
   only the elapsed time varies, so best-of-[reps] timing is the
   low-noise estimator; the spread of all [reps] passes comes back with
   it, and so do the minor words the warm-up pass allocated per event
   (deterministic per seed, like the event count). This is the number
   the event-loop refactor's ">= 2x events/sec" target is measured on
   (docs/PERF.md), and what the --against gate checks for wall-clock
   regressions. *)
let events_workload_entries () = [ Registry.sec; Registry.treiber ]

let measure_events_per_sec ?(reps = 12) () =
  let topology = Sec_sim.Topology.testbox in
  let mix = Workload.by_name "100%upd" in
  let module R = Runner.Make (Sec_sim.Sim.Prim) in
  let one () =
    List.fold_left
      (fun acc (entry : Registry.entry) ->
        let _, stats =
          Sec_sim.Sim.run ~seed:1 ~jitter:2 ~topology (fun () ->
              R.run_maker entry.Registry.maker ~op_overhead:10 ~threads:4
                ~stop:(R.Timed bench_cycles) ~mix ~prefill:bench_prefill ())
        in
        acc + stats.Sec_sim.Sim.events)
      0
      (events_workload_entries ())
  in
  let words0 = Gc.minor_words () in
  let events = float_of_int (one ()) (* warm-up pass, fixes the count *) in
  let words_per_event = (Gc.minor_words () -. words0) /. events in
  let rates =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (one ());
        events /. (Unix.gettimeofday () -. t0))
  in
  let raw = List.fold_left Float.max 0. rates in
  (* Round to 3 significant digits: regenerating the file on the same
     machine should not churn the field by timing noise smaller than the
     gate threshold. *)
  let best =
    if raw <= 0. then 0.
    else
      let mag = 10. ** Float.of_int (2 - int_of_float (Float.log10 raw)) in
      Float.round (raw *. mag) /. mag
  in
  (best, Variance.of_samples rates, words_per_event)

let collect_sim ?(seed = 1) () =
  let topology = Sec_sim.Topology.testbox in
  let mix = Workload.by_name "100%upd" in
  let rows =
    List.concat_map
      (fun entry ->
        List.map
          (fun threads ->
            sim_row entry ~topology ~threads ~duration_cycles:bench_cycles
              ~mix ~seed)
          bench_threads)
      bench_entries
  in
  let events_per_sec, events_spread, words_per_event =
    measure_events_per_sec ()
  in
  {
    backend = "sim";
    machine = topology.Sec_sim.Topology.name;
    unit_label = "ops/cycle";
    seed;
    duration = float_of_int bench_cycles;
    events_per_sec;
    events_spread = Some events_spread;
    words_per_event = Some words_per_event;
    rows;
  }

let collect_native ?(seed = 1) ?(duration = 0.05) () =
  let mix = Workload.by_name "100%upd" in
  let rows =
    List.concat_map
      (fun entry ->
        List.map
          (fun threads -> native_row entry ~threads ~duration ~mix ~seed)
          bench_threads)
      bench_entries
  in
  {
    backend = "native";
    machine = "host";
    unit_label = "ops/s";
    seed;
    duration;
    events_per_sec = 0.;
    events_spread = None;
    words_per_event = None;
    rows;
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
    (Printf.sprintf "  \"backend\": \"%s\",\n" (escape doc.backend));
  Buffer.add_string buf
    (Printf.sprintf "  \"machine\": \"%s\",\n" (escape doc.machine));
  Buffer.add_string buf
    (Printf.sprintf "  \"unit\": \"%s\",\n" (escape doc.unit_label));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" doc.seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"duration\": %s,\n" (fl doc.duration));
  if doc.events_per_sec > 0. then
    Buffer.add_string buf
      (Printf.sprintf "  \"events_per_sec\": %s,\n" (fl doc.events_per_sec));
  Buffer.add_string buf "  \"rows\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"algorithm\": \"%s\", \"threads\": %d, \"ops\": %d, \
            \"allocs\": %d, \"events\": %d, \"throughput\": %s, \
            \"gc_minor_words\": %s, \"gc_major_colls\": %d}"
           (escape r.algorithm) r.threads r.ops r.allocs r.events
           (fl r.throughput)
           (fl r.gc_minor_words) r.gc_major_colls))
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
          match peek () with
          | Some '"' ->
              Buffer.add_char buf '"';
              advance ();
              loop ()
          | Some '\\' ->
              Buffer.add_char buf '\\';
              advance ();
              loop ()
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              loop ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              loop ()
          | Some 'u' ->
              (* Only ASCII escapes are ever written; decode low code
                 points, reject the rest. *)
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              if code > 0x7f then fail "non-ASCII \\u escape";
              Buffer.add_char buf (Char.chr code);
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

(* The GC and events columns default to zero when absent, so baselines
   written by an older schema still parse (their gates simply do not
   apply). *)
let opt_float key j ~default =
  match j with
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> to_float v
      | None -> default)
  | _ -> default

let opt_int key j ~default = int_of_float (opt_float key j ~default:(float_of_int default))

let row_of_json j =
  {
    algorithm = to_str (member "algorithm" j);
    threads = to_int (member "threads" j);
    ops = to_int (member "ops" j);
    allocs = to_int (member "allocs" j);
    events = opt_int "events" j ~default:0;
    throughput = to_float (member "throughput" j);
    gc_minor_words = opt_float "gc_minor_words" j ~default:0.;
    gc_major_colls = opt_int "gc_major_colls" j ~default:0;
  }

let of_string src =
  let j = parse src in
  {
    backend = to_str (member "backend" j);
    machine = to_str (member "machine" j);
    unit_label = to_str (member "unit" j);
    seed = to_int (member "seed" j);
    duration = to_float (member "duration" j);
    (* Optional: absent in baselines predating the event-loop refactor,
       in which case no events/sec gate applies. *)
    events_per_sec =
      (match j with
      | Obj fields -> (
          match List.assoc_opt "events_per_sec" fields with
          | Some v -> to_float v
          | None -> 0.)
      | _ -> 0.);
    events_spread = None;
    words_per_event = None;
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
      (** "throughput" | "events/sec" | "allocs/op" | "events/op" *)
  baseline : float;
  current : float;
}

(* Only the paper-set structures gate the build: the EBR twins are
   newer and noisier, and the acceptance bar for this layer is "no
   paper-set structure regresses". *)
let gating_algorithms =
  List.map (fun e -> e.Registry.name) Registry.paper_set

(* The events/sec gate is wall-clock (unlike the deterministic
   throughput rows), so it is opt-in: it applies only when the caller
   passes an [events_threshold] and the baseline has the field (> 0).
   The tier-1 smoke check passes none — it gates deterministic columns
   only — while the CI step passes an explicit wide band. The
   pseudo-row is reported as algorithm "events/sec" at 0 threads. *)
(* [allocs_threshold] gates allocations per operation (sim rows are
   deterministic, so any growth is a real hot-path change): a current
   allocs/op more than the fraction above the baseline's fails.
   [threshold] also gates the scheduling events per operation of a row
   whose baseline records them (> 0): like throughput they are
   deterministic per seed, and more of them makes every simulated run
   slower on the wall clock. *)
let check ?(threshold = 0.10) ?events_threshold ?(allocs_threshold = 0.10)
    ~baseline ~current () =
  let events =
    match events_threshold with
    | Some events_threshold
      when baseline.events_per_sec > 0.
           && current.events_per_sec > 0.
           && current.events_per_sec
              < (1.0 -. events_threshold) *. baseline.events_per_sec ->
      [
        {
          r_algorithm = "events/sec";
          r_threads = 0;
          r_metric = "events/sec";
          baseline = baseline.events_per_sec;
          current = current.events_per_sec;
        };
      ]
    | _ -> []
  in
  let per_op n (r : row) =
    if r.ops = 0 then 0. else float_of_int n /. float_of_int r.ops
  in
  let apo (r : row) = per_op r.allocs r in
  let epo (r : row) = per_op r.events r in
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
        | None -> [] (* structure dropped: the build breaks elsewhere *)
        | Some c ->
            let throughput_reg =
              if c.throughput < (1.0 -. threshold) *. b.throughput then
                [
                  {
                    r_algorithm = b.algorithm;
                    r_threads = b.threads;
                    r_metric = "throughput";
                    baseline = b.throughput;
                    current = c.throughput;
                  };
                ]
              else []
            in
            let allocs_reg =
              (* epsilon absorbs one cold-start node against a zero
                 baseline without letting a real per-op regression by *)
              let eps = 1e-3 in
              if apo c > ((1.0 +. allocs_threshold) *. apo b) +. eps then
                [
                  {
                    r_algorithm = b.algorithm;
                    r_threads = b.threads;
                    r_metric = "allocs/op";
                    baseline = apo b;
                    current = apo c;
                  };
                ]
              else []
            in
            let events_reg =
              if b.events > 0 && epo c > (1.0 +. threshold) *. epo b then
                [
                  {
                    r_algorithm = b.algorithm;
                    r_threads = b.threads;
                    r_metric = "events/op";
                    baseline = epo b;
                    current = epo c;
                  };
                ]
              else []
            in
            throughput_reg @ allocs_reg @ events_reg)
    baseline.rows
  @ events
