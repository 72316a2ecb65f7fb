(* Parallel fan-out of independent simulation jobs across native
   domains, built on {!Sec_prim.Native}'s executor (spawn / await_all)
   rather than raw [Domain.spawn], so the fan-out runs on the harness's
   one persistent worker pool: the first [map] of a given width creates
   its domains, later ones reuse them.

   Jobs are claimed from a shared atomic index and every result is
   written to its own slot, so the output array is in canonical (input)
   order regardless of completion order: [map ~jobs:n f a] is
   bit-identical to [Array.map f a] for any [n] as long as [f] is a pure
   function of its argument — which simulator runs are, since each
   [Sim.run] owns a fresh cache model, heap and RNG, and the substrate's
   allocation tally is domain-local (and read as a per-run delta, so a
   reused domain counts exactly too). A worker never lets an exception
   escape, so one failing job does not stop its worker from claiming the
   rest; the first failing job's exception, in job order, is re-raised
   after the pool drains. *)

let recommended () = max 1 (Domain.recommended_domain_count ())

(* Clamp a requested pool size to [1 .. recommended_domain_count]:
   oversubscribing domains only adds scheduling noise, and a
   non-positive request means "serial". *)
let clamp_jobs n =
  let r = recommended () in
  if n < 1 then 1 else if n > r then r else n

let default_jobs () = recommended ()

(* [map] takes the pool size literally (floored at 1, capped at the job
   count): the policy clamp to the host's recommended domain count is
   the caller's ({!clamp_jobs}, applied by `sec_bench figures`), so
   tests can force a multi-domain pool even on a single-core host. *)
let map ~jobs f items =
  let n = Array.length items in
  let jobs = min (max 1 jobs) (max 1 n) in
  if jobs <= 1 || n <= 1 then Array.map f items
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Stdlib.Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Stdlib.Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f items.(i) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e);
          loop ()
        end
      in
      loop ()
    in
    for _ = 1 to jobs do
      Sec_prim.Native.spawn worker
    done;
    Sec_prim.Native.await_all ();
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false) results
  end
