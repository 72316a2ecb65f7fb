(* Reusable conformance checks for STACK implementations, packaged as a
   library so downstream users can validate their own stacks the way this
   repository validates SEC and its competitors.

   The checks are substrate-polymorphic: they run on any
   {!Sec_prim.Prim_intf.EXEC} (real domains, or fibers inside the
   simulator), spawning workers with its [spawn]/[await_all] and drawing
   with its [rand_int], and drive any {!Stack_intf.S} through
   sequential-semantics, conservation and duplicate-detection checks.
   The caller supplies the run context: [Sec_prim.Native.with_exec ~seed]
   (which also makes the workers' draws reproducible) or
   [Sec_sim.Sim.run].

   For linearizability over a recorded history (rather than the invariant
   checks here), the benchmark harness's [Sec_harness.Runner] records a
   {!History} on either substrate via its history observer and feeds it to
   {!Lin_check} — see [test/test_runner_diff.ml] and docs/HARNESS.md. *)

type failure = { check : string; detail : string }

type report = { passed : int; failures : failure list }

let ok = { passed = 1; failures = [] }
let fail check detail = { passed = 0; failures = [ { check; detail } ] }

let merge a b =
  { passed = a.passed + b.passed; failures = a.failures @ b.failures }

module Make (X : Sec_prim.Prim_intf.EXEC) (S : Stack_intf.S) = struct
  (* ------------------------------------------------------------------ *)

  let sequential_semantics () =
    let s = S.create ~max_threads:1 () in
    let check name cond detail =
      if cond then ok else fail ("sequential: " ^ name) detail
    in
    let r1 = check "empty pop" (S.pop s ~tid:0 = None) "expected None" in
    S.push s ~tid:0 1;
    S.push s ~tid:0 2;
    let r2 = check "peek top" (S.peek s ~tid:0 = Some 2) "expected Some 2" in
    let r3 = check "lifo 2" (S.pop s ~tid:0 = Some 2) "expected Some 2" in
    let r4 = check "lifo 1" (S.pop s ~tid:0 = Some 1) "expected Some 1" in
    let r5 = check "empty again" (S.pop s ~tid:0 = None) "expected None" in
    List.fold_left merge r1 [ r2; r3; r4; r5 ]

  (* Concurrent conservation: tag values uniquely; nothing may be lost,
     duplicated or invented. *)
  let conservation ?(threads = 4) ?(ops = 500) () =
    let s = S.create ~max_threads:threads () in
    let pushed = Array.make threads 0 in
    let popped = Array.init threads (fun _ -> ref []) in
    for tid = 0 to threads - 1 do
      X.spawn (fun () ->
          for i = 1 to ops do
            if X.rand_int 2 = 0 then begin
              S.push s ~tid ((tid * 1_000_000) + i);
              pushed.(tid) <- pushed.(tid) + 1
            end
            else
              match S.pop s ~tid with
              | Some v -> popped.(tid) := v :: !(popped.(tid))
              | None -> ()
          done)
    done;
    X.await_all ();
    let rec drain acc =
      match S.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
    in
    let all_popped =
      drain [] @ List.concat_map (fun l -> !l) (Array.to_list popped)
    in
    let total_pushed = Array.fold_left ( + ) 0 pushed in
    let distinct = List.sort_uniq compare all_popped in
    if List.length distinct <> List.length all_popped then
      fail "conservation" "a value was popped twice"
    else if List.length all_popped <> total_pushed then
      fail "conservation"
        (Printf.sprintf "pushed %d values but recovered %d" total_pushed
           (List.length all_popped))
    else ok

  (* Pops never invent values. *)
  let no_phantom_values ?(threads = 2) ?(ops = 300) () =
    let s = S.create ~max_threads:threads () in
    let bad = ref 0 in
    for tid = 0 to threads - 1 do
      X.spawn (fun () ->
          for i = 1 to ops do
            S.push s ~tid ((tid * 1_000_000) + i);
            match S.pop s ~tid with
            | Some v -> if v < 0 || v mod 1_000_000 > ops then incr bad
            | None -> incr bad (* we just pushed: never empty *)
          done)
    done;
    X.await_all ();
    if !bad = 0 then ok
    else fail "no phantom values" (Printf.sprintf "%d anomalies" !bad)

  let all ?(threads = 4) ?(ops = 500) () =
    List.fold_left merge
      (sequential_semantics ())
      [ conservation ~threads ~ops (); no_phantom_values () ]
end
