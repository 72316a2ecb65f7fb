(* Generic flat-combining executor [Hendler, Incze, Shavit & Tzafrir 2010].

   Threads publish requests into per-thread slots; whoever acquires the
   global lock becomes the combiner and executes every pending request
   against the (sequential) protected object, writing results back into the
   slots. The classic implementation uses a dynamic publication list with
   aging; with a bounded, known set of threads a flat per-thread slot array
   is equivalent and simpler, so that is what we use (each slot in its own
   cache line).

   This module is the substrate for the "FC" stack of the paper's
   evaluation, and is reusable for any object with a sequential [apply]. *)

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)
  module Tally = Sec_prim.Tally

  type ('op, 'res) slot = Idle | Pending of 'op | Done of 'res

  type ('op, 'res) t = {
    lock : bool A.t;
    slots : ('op, 'res) slot A.t array;
    apply : 'op -> 'res;
    combines : Tally.t; (* requests executed by a combiner *)
    acquisitions : Tally.t; (* times the combiner lock was taken *)
  }

  let create ?(max_threads = 64) ~apply () =
    {
      lock = A.make_padded false;
      slots = Array.init max_threads (fun _ -> A.make_padded Idle);
      apply;
      combines = Tally.create ~threads:max_threads;
      acquisitions = Tally.create ~threads:max_threads;
    }

  (* Scanning twice lets requests that were published while the combiner
     was already scanning catch the same combining session. *)
  let combine t ~tid =
    Tally.add t.acquisitions ~tid 1;
    for _ = 1 to 2 do
      Array.iter
        (fun slot ->
          match A.get slot with
          | Pending op ->
              (A.set slot (Done (t.apply op))
              [@publication_ok
                "slot hand-off: while a slot is Pending only the lock \
                 holder writes it, and its owner writes it again only \
                 after reading Done"]);
              Tally.add t.combines ~tid 1
          | Idle | Done _ -> ())
        t.slots
    done

  let apply t ~tid op =
    let slot = t.slots.(tid) in
    A.set slot (Pending op);
    let rec await () =
      match A.get slot with
      | Done res ->
          (A.set slot Idle
          [@publication_ok "the combiner writes a slot only while Pending"]);
          res
      | Pending _ ->
          if not (A.exchange t.lock true) then begin
            combine t ~tid;
            A.set t.lock false;
            (* We combined after publishing, so our own request is done. *)
            await ()
          end
          else begin
            (* Wake when served, or when the lock frees so we can combine. *)
            Backoff.spin_until (fun () ->
                (match A.get slot with Done _ -> true | Idle | Pending _ -> false)
                || not (A.get t.lock));
            await ()
          end
      | Idle -> assert false (* only this thread resets to Idle *)
    in
    await ()

  (* Statistics for reports/tests, exact once the callers have joined. *)
  let combined_ops t = Tally.sum t.combines
  let lock_acquisitions t = Tally.sum t.acquisitions
end
