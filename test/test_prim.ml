(* Unit tests for the execution substrate: padding, RNG, backoff, the
   native worker pool, per-thread tallies — including the risky parts
   (Obj-based padding and yielding from plain domains). *)

module P = Sec_prim.Native
module Backoff = Sec_prim.Backoff.Make (P)
module Tally = Sec_prim.Tally
module Rng = Sec_prim.Rng

let test_padding_atomic () =
  let a = P.Atomic.make_padded 41 in
  Alcotest.(check int) "get after make_padded" 41 (P.Atomic.get a);
  P.Atomic.set a 42;
  Alcotest.(check int) "set/get" 42 (P.Atomic.get a);
  Alcotest.(check int) "fetch_and_add returns old" 42 (P.Atomic.fetch_and_add a 8);
  Alcotest.(check int) "fetch_and_add adds" 50 (P.Atomic.get a);
  Alcotest.(check bool) "cas succeeds" true (P.Atomic.compare_and_set a 50 7);
  Alcotest.(check bool) "cas fails" false (P.Atomic.compare_and_set a 50 9);
  Alcotest.(check int) "exchange" 7 (P.Atomic.exchange a 3);
  Alcotest.(check int) "after exchange" 3 (P.Atomic.get a)

let test_padding_block () =
  (* Padded copies of records must behave like the original. *)
  let r = Sec_prim.Padding.copy_as_padded (ref 5) in
  incr r;
  Alcotest.(check int) "padded ref" 6 !r;
  (* Immediates pass through unchanged. *)
  Alcotest.(check int) "padded int" 9 (Sec_prim.Padding.copy_as_padded 9);
  (* Strings (no-scan tag) must be returned unchanged, not copied. *)
  let s = "hello" in
  Alcotest.(check bool) "no-scan passthrough" true
    (s == Sec_prim.Padding.copy_as_padded s)

(* The exact copy/passthrough decision tree of [copy_as_padded]: only
   small scannable blocks are copied; everything the copy loop could not
   handle faithfully must come back physically unchanged. *)

(* [mutable] forces a real heap record; all-float fields give it
   [Double_array_tag]. *)
type float_record = { mutable fx : float; fy : float }

let _touch r = r.fx <- 0.
type small_record = { sa : int; mutable sb : string }

let test_padding_float_record_passthrough () =
  (* All-float records get [Double_array_tag] (>= no_scan_tag): copying
     them field-by-field with [Obj.set_field] would be unsound, so they
     must pass through unchanged. *)
  let r = { fx = 1.5; fy = 2.5 } in
  Alcotest.(check bool) "float record is not copied" true
    (r == Sec_prim.Padding.copy_as_padded r);
  Alcotest.(check (float 0.)) "fields intact" 4.0 (r.fx +. r.fy);
  let fa = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "float array is not copied" true
    (fa == Sec_prim.Padding.copy_as_padded fa)

let test_padding_object_passthrough () =
  let o =
    object
      val mutable n = 0
      method bump = n <- n + 1
      method n = n
    end
  in
  Alcotest.(check bool) "objects are not copied" true
    (o == Sec_prim.Padding.copy_as_padded o);
  o#bump;
  Alcotest.(check int) "object still works" 1 o#n

let test_padding_large_block_passthrough () =
  (* Blocks already at or beyond the pad size are left alone. *)
  let big = Array.init 20 (fun i -> string_of_int i) in
  Alcotest.(check bool) "large block is not copied" true
    (big == Sec_prim.Padding.copy_as_padded big);
  let at_boundary = Array.make 16 "x" in
  Alcotest.(check bool) "exactly padded_words is not copied" true
    (at_boundary == Sec_prim.Padding.copy_as_padded at_boundary)

let test_padding_small_block_copied () =
  let r = { sa = 7; sb = "orig" } in
  let p = Sec_prim.Padding.copy_as_padded r in
  Alcotest.(check bool) "a fresh block" true (p != r);
  Alcotest.(check int) "field 0 preserved" 7 p.sa;
  Alcotest.(check string) "field 1 preserved" "orig" p.sb;
  Alcotest.(check int) "padded to padded_words"
    Sec_prim.Padding.padded_words
    (Obj.size (Obj.repr p));
  Alcotest.(check int) "tag preserved" (Obj.tag (Obj.repr r))
    (Obj.tag (Obj.repr p));
  (* The copy is independent of the original. *)
  p.sb <- "copy";
  Alcotest.(check string) "original unaffected" "orig" r.sb

let test_padding_gc_safety () =
  (* Padded blocks survive compaction/minor collections: allocate many,
     force GC, check contents. *)
  let cells = Array.init 1000 (fun i -> P.Atomic.make_padded i) in
  Gc.full_major ();
  Gc.compact ();
  Array.iteri
    (fun i a -> Alcotest.(check int) "cell survives GC" i (P.Atomic.get a))
    cells

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.next_int64 a)
      (Rng.next_int64 b)
  done

(* The first 16 outputs of every draw for one seed. Golden schedule
   digests depend on these values, so any change to the generator's
   representation must reproduce them. *)
let pin_seed = 0x5EC5EEDL

let first16 f =
  let r = Rng.create pin_seed in
  List.init 16 (fun _ -> f r)

let test_rng_pinned_outputs () =
  Alcotest.(check (list int64)) "next_int64"
    [ -2124168040899120195L; 1398991194607235161L; 4942111571167307667L;
      7302979619155123022L; 7853405654740559931L; -574854480122565609L;
      -4045955691084814689L; -3754692865898911394L; -3669751173488011423L;
      7109296963816170762L; 6149584981731303101L; -3280811926676017976L;
      -4674766730921796636L; 3372268310540991745L; -7629800481170556536L;
      -838475866102226025L ]
    (first16 Rng.next_int64);
  Alcotest.(check (list int)) "bits"
    [ 950098970; 81432005; 287668754; 425089361; 457128373; 1040280889;
      838236207; 855189934; 860134192; 413815547; 357952957; 882773435;
      801634587; 196291850; 629628984; 1024936105 ]
    (first16 Rng.bits);
  Alcotest.(check (list int)) "int 3"
    [ 0; 1; 0; 0; 1; 0; 1; 0; 2; 2; 1; 0; 0; 0; 0; 0 ]
    (first16 (fun r -> Rng.int r 3));
  Alcotest.(check (list int)) "int 8"
    [ 3; 5; 1; 4; 3; 1; 1; 5; 6; 0; 3; 4; 6; 0; 0; 1 ]
    (first16 (fun r -> Rng.int r 8));
  let child = Rng.split (Rng.create pin_seed) in
  Alcotest.(check (list int64)) "split child"
    [ 5316318264780100698L; 9114553824584624893L; 7602200087173707040L;
      -6113586468880939631L; -6118996800816388328L; 8007140018324080017L;
      -5803248852701520775L; -1488955622850102637L; -5434823422088764016L;
      1573586630300820620L; -3579276546473723491L; 2482549563838862221L;
      8371145715855750782L; 6714790486874971712L; 3665471155681936957L;
      273879730775050634L ]
    (List.init 16 (fun _ -> Rng.next_int64 child))

(* The simulator draws on every event, so a draw must not allocate:
   neither a boxed state nor a boxed intermediate. *)
let test_rng_draws_do_not_allocate () =
  let r = Rng.create pin_seed in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    acc := !acc + Rng.bits r + Rng.int r 8 + Rng.int r 3
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 100k draws" 0. words;
  Alcotest.(check bool) "draws were used" true (!acc > 0)

let test_rng_bounds () =
  let r = Rng.create 99L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  Alcotest.(check int) "bound 1 is always 0" 0 (Rng.int r 1)

let test_rng_uniformity () =
  (* Coarse chi-square-ish check: all 10 buckets within 20% of expected. *)
  let r = Rng.create 2024L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket %d skewed: %d" i c)
    buckets

let test_rng_split_independent () =
  let a = Rng.create 5L in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 50 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_backoff_growth () =
  let b = Backoff.create ~min_wait:2 ~max_wait:16 () in
  (* Just exercise it: growth is internal, but it must terminate fast. *)
  for _ = 1 to 20 do
    Backoff.once b
  done;
  Backoff.reset b;
  Backoff.once b

let test_spin_until () =
  let flag = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        P.relax 1000;
        Atomic.set flag true)
  in
  Backoff.spin_until (fun () -> Atomic.get flag);
  Domain.join d;
  Alcotest.(check bool) "flag set" true (Atomic.get flag)

let test_yield_from_domain () =
  (* [yield] must be callable from a freshly spawned domain that never
     created threads itself; spin loops rely on this on 1-core hosts. *)
  let d = Domain.spawn (fun () -> P.yield (); 17) in
  Alcotest.(check int) "yield in domain" 17 (Domain.join d)

(* ------------------------------------------------------------------ *)
(* The native executor's worker pool.                                  *)

(* The [Domain.self] id each worker of a 3-worker run ran on. *)
let worker_domains ~seed =
  let ids = Array.make 3 (-1) in
  P.with_exec ~seed (fun () ->
      for _ = 1 to 3 do
        P.spawn (fun () -> ids.(P.thread_id ()) <- (Domain.self () :> int))
      done;
      P.await_all ());
  ids

let test_pool_reuses_domains () =
  let first = worker_domains ~seed:1L in
  let second = worker_domains ~seed:2L in
  Array.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d ran in the first run" id)
        true
        (Array.mem id first))
    second

(* Each worker's [thread_id] followed by its first three
   [rand_int 1_000_000] draws, for seed 42, by spawn rank. The values were
   recorded from the executor that spawned fresh domains per run; the pool
   keeps its [Rng.split] derivation. *)
let test_pool_rng_derivation () =
  let seen = Array.make 3 [] in
  P.with_exec ~seed:42L (fun () ->
      for i = 0 to 2 do
        P.spawn (fun () ->
            let draws = List.init 3 (fun _ -> P.rand_int 1_000_000) in
            seen.(i) <- P.thread_id () :: draws)
      done;
      P.await_all ());
  Alcotest.(check (array (list int)))
    "id and draws per worker"
    [|
      [ 0; 366682; 592615; 887915 ];
      [ 1; 180948; 464099; 890219 ];
      [ 2; 87888; 402605; 835433 ];
    |]
    seen

exception Worker_failed of int

let test_pool_worker_raises () =
  let finished = Array.make 3 false in
  let work tid () =
    Unix.sleepf 0.01;
    finished.(tid) <- true
  in
  let raised =
    try
      P.with_exec ~seed:3L (fun () ->
          P.spawn (work 0);
          P.spawn (fun () -> raise (Worker_failed 1));
          P.spawn (work 2);
          P.await_all ();
          None)
    with Worker_failed tid -> Some tid
  in
  Alcotest.(check (option int)) "worker 1's exception" (Some 1) raised;
  Alcotest.(check bool) "worker 0 finished" true finished.(0);
  Alcotest.(check bool) "worker 2 finished" true finished.(2);
  (* Two raising workers: the first in spawn order wins, even when it
     raises last. *)
  let raised =
    try
      P.with_exec ~seed:4L (fun () ->
          P.spawn (fun () ->
              Unix.sleepf 0.01;
              raise (Worker_failed 0));
          P.spawn (fun () -> raise (Worker_failed 1));
          P.await_all ();
          None)
    with Worker_failed tid -> Some tid
  in
  Alcotest.(check (option int)) "first in spawn order" (Some 0) raised;
  let ran = Atomic.make 0 in
  P.with_exec ~seed:5L (fun () ->
      let d = P.deadline_after 0.001 in
      for _ = 1 to 3 do
        P.spawn (fun () ->
            while not (P.expired d) do
              P.cpu_relax ()
            done;
            Atomic.incr ran)
      done;
      P.await_all ();
      Alcotest.(check bool) "elapsed measured" true (P.elapsed d > 0.));
  Alcotest.(check int) "next run completes" 3 (Atomic.get ran)

let test_pool_await_in_worker () =
  let seen = ref None in
  P.with_exec ~seed:6L (fun () ->
      P.spawn (fun () ->
          seen :=
            Some
              (match P.await_all () with
              | () -> "returned"
              | exception Invalid_argument _ -> "invalid_arg"));
      P.await_all ());
  Alcotest.(check (option string)) "reentrant await_all" (Some "invalid_arg")
    !seen

(* Ids past [threads] wrap onto existing cells; nothing is lost while
   one thread drives them all. *)
let test_tally_sequential () =
  let c = Tally.create ~threads:4 in
  for tid = 0 to 9 do
    Tally.add c ~tid 3
  done;
  Tally.add c ~tid:1 (-5);
  Alcotest.(check int) "sum" 25 (Tally.sum c);
  Tally.reset c;
  Alcotest.(check int) "reset" 0 (Tally.sum c);
  Alcotest.check_raises "threads must be positive"
    (Invalid_argument "Tally.create: threads must be at least 1") (fun () ->
      ignore (Tally.create ~threads:0))

(* Each domain owns its id, so plain increments lose nothing; the join
   orders them before the sum. *)
let test_tally_parallel () =
  let per_thread = 10_000 and n = 4 in
  let c = Tally.create ~threads:n in
  let body tid () =
    for _ = 1 to per_thread do
      Tally.add c ~tid 1
    done
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (n * per_thread) (Tally.sum c)

let test_now_ns_monotonicish () =
  let a = P.now_ns () in
  P.relax 100;
  let b = P.now_ns () in
  Alcotest.(check bool) "clock does not go backwards" true (Int64.compare b a >= 0)

(* [now_ns] is CLOCK_MONOTONIC: consecutive reads never decrease, and its
   resolution is far below the microsecond of a wall clock. The bound is
   half a microsecond, not one: a microsecond clock read through a float
   of epoch seconds (ulp 2^-22 s) and scaled to ns can land two distinct
   reads 768 ns apart. *)
let test_now_ns_monotonic_fine () =
  let n = 10_000 in
  let reads = Array.make n 0L in
  for i = 0 to n - 1 do
    reads.(i) <- P.now_ns ()
  done;
  let finest = ref Int64.max_int in
  for i = 1 to n - 1 do
    let d = Int64.sub reads.(i) reads.(i - 1) in
    if Int64.compare d 0L < 0 then
      Alcotest.failf "read %d went backwards by %Ld ns" i (Int64.neg d);
    if Int64.compare d 0L > 0 && Int64.compare d !finest < 0 then finest := d
  done;
  Alcotest.(check bool)
    (Printf.sprintf "a distinct consecutive pair < 500 ns apart (finest %Ld)"
       !finest)
    true
    (Int64.compare !finest 500L < 0)

let qcheck_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng: int always in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      0 <= v && v < bound)

let qcheck_padding_roundtrip =
  QCheck.Test.make ~name:"padding: atomic round-trips any int" ~count:500
    QCheck.int
    (fun v -> P.Atomic.get (P.Atomic.make_padded v) = v)

let () =
  Alcotest.run "prim"
    [
      ( "padding",
        [
          Alcotest.test_case "padded atomic ops" `Quick test_padding_atomic;
          Alcotest.test_case "padded blocks" `Quick test_padding_block;
          Alcotest.test_case "float blocks pass through" `Quick
            test_padding_float_record_passthrough;
          Alcotest.test_case "objects pass through" `Quick
            test_padding_object_passthrough;
          Alcotest.test_case "large blocks pass through" `Quick
            test_padding_large_block_passthrough;
          Alcotest.test_case "small blocks copied" `Quick
            test_padding_small_block_copied;
          Alcotest.test_case "gc safety" `Quick test_padding_gc_safety;
          QCheck_alcotest.to_alcotest qcheck_padding_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "pinned outputs" `Quick test_rng_pinned_outputs;
          Alcotest.test_case "draws do not allocate" `Quick
            test_rng_draws_do_not_allocate;
          QCheck_alcotest.to_alcotest qcheck_rng_int_in_bounds;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "growth & reset" `Quick test_backoff_growth;
          Alcotest.test_case "spin_until sees flag" `Quick test_spin_until;
          Alcotest.test_case "yield from domain" `Quick test_yield_from_domain;
        ] );
      ( "native pool",
        [
          Alcotest.test_case "reuses domains" `Quick test_pool_reuses_domains;
          Alcotest.test_case "rng derivation" `Quick test_pool_rng_derivation;
          Alcotest.test_case "worker raises" `Quick test_pool_worker_raises;
          Alcotest.test_case "await in worker" `Quick test_pool_await_in_worker;
        ] );
      ( "per-tid tallies",
        [
          Alcotest.test_case "sequential" `Quick test_tally_sequential;
          Alcotest.test_case "parallel no lost updates" `Quick
            test_tally_parallel;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic-ish" `Quick test_now_ns_monotonicish;
          Alcotest.test_case "monotonic, sub-us" `Quick
            test_now_ns_monotonic_fine;
        ] );
    ]
