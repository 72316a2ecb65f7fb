(* Unit tests for the execution substrate: padding, RNG, backoff, barrier,
   per-thread tallies — including the risky parts (Obj-based padding and
   yielding from plain domains). *)

module P = Sec_prim.Native
module Backoff = Sec_prim.Backoff.Make (P)
module Barrier = Sec_prim.Barrier.Make (P)
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
  (* Thread.yield must be callable from a freshly spawned domain that never
     created threads itself; spin loops rely on this on 1-core hosts. *)
  let d = Domain.spawn (fun () -> P.yield (); 17) in
  Alcotest.(check int) "yield in domain" 17 (Domain.join d)

let test_barrier_phases () =
  let n = 4 in
  let bar = Barrier.create n in
  let log = Array.make n 0 in
  let phase = Atomic.make 0 in
  let body i () =
    for p = 1 to 5 do
      Barrier.wait bar;
      (* Everyone observes the same phase value inside a phase. *)
      if i = 0 then Atomic.set phase p;
      Barrier.wait bar;
      if Atomic.get phase = p then log.(i) <- log.(i) + 1
    done
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "thread %d phases" i) 5 c)
    log

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
          QCheck_alcotest.to_alcotest qcheck_rng_int_in_bounds;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "growth & reset" `Quick test_backoff_growth;
          Alcotest.test_case "spin_until sees flag" `Quick test_spin_until;
          Alcotest.test_case "yield from domain" `Quick test_yield_from_domain;
        ] );
      ( "barrier",
        [ Alcotest.test_case "multi-phase" `Quick test_barrier_phases ] );
      ( "per-tid tallies",
        [
          Alcotest.test_case "sequential" `Quick test_tally_sequential;
          Alcotest.test_case "parallel no lost updates" `Quick
            test_tally_parallel;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic-ish" `Quick test_now_ns_monotonicish ] );
    ]
