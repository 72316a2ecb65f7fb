(* The interval timestamped stack with real node reclamation ("TSI-EBR"):
   lib/stacks/ts_stack.ml reworked so that taken nodes are actually
   retired through {!Ebr} instead of lingering for the GC.

   Two disciplined deviations from the GC-backed version:

   - every operation (push, pop, peek) runs inside an EBR critical
     section, because scans traverse pool chains whose nodes a concurrent
     owner may retire;
   - unlinking is owner-only. The original lets *any* popper swing a pool
     head past a taken prefix (losing the CAS to the owner is harmless
     when nodes are immortal), but with reclamation that helper CAS could
     race the owner's trim and retire the same prefix twice. Here only
     the owner unlinks — on its next push — and retires exactly what it
     unlinked, so retire-once holds by construction.

   Nodes carry a shadow-heap id ([chk]) and notify the reclamation
   checker at each lifecycle step, like {!Reclaimed_stack}. Node-field
   reads outside a syntactic [Ebr.guard] extent carry
   [@unguarded_ok "reason"] — the static ebr-guard lint's annotation for
   helpers whose callers hold the guard (docs/ANALYSIS.md).

   Zero-allocation hot path: like {!Reclaimed_stack}, retired nodes are
   recycled through a per-domain {!Magazine} once their grace period
   expires, and push re-initialises a recycled node in place (interval
   reset to pending, [taken] cleared, [next] relinked) while it is
   still private to the owner. Only magazine misses construct nodes. *)

(* Same argument as the plain TS stack: losing the [taken] CAS means a
   peer popped the node, and pool scans never wait on a specific thread. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) : Sec_spec.Stack_intf.S = struct
  module A = P.Atomic
  module Ebr = Ebr.Make (P)
  module Mag = Magazine.Make (P)
  module Chk = Sec_analysis.Reclaim_checker

  (* Interval [ts_start, ts_end]; [max_int] until the pusher assigns it,
     which makes an in-flight node "youngest" (taken-immediately).
     [value]/[chk] are mutable for in-place re-initialisation of a
     recycled node (private to the pusher until the pool-head store). *)
  type 'a node = {
    mutable value : 'a;
        [@plain_ok
          "written only while the node is private to the pushing owner; \
           published by the pool-head store"]
    ts : (int64 * int64) A.t;
    taken : bool A.t;
    next : 'a node option A.t;
    mutable chk : int;
        [@plain_ok "see [value]"]
        (* reclamation-checker node id; 0 when untracked *)
  }

  type 'a t = {
    pools : 'a node option A.t array; (* pool head per thread, padded *)
    delay : int; (* relax units between the two clock reads *)
    ebr : Ebr.t;
    mag : 'a node Mag.t;
  }

  let name = "TSI-EBR"

  let pending = (Int64.max_int, Int64.max_int)

  (* Same interval tuning as lib/stacks/ts_stack.ml. *)
  let default_delay = 400

  let create ?(max_threads = 64) () =
    {
      pools = Array.init max_threads (fun _ -> A.make_padded None);
      delay = default_delay;
      ebr = Ebr.create ~max_threads ();
      mag = Mag.create ~max_threads ();
    }

  let push t ~tid value =
    Ebr.guard t.ebr ~tid (fun () ->
        (* Owner-only cleanup: unlink the prefix of taken nodes, then
           retire each. This is the only place a TSI-EBR node is
           unlinked, and the unlinking store to the pool head is private
           to [tid]. *)
        let rec skip acc = function
          | Some n when A.get n.taken -> skip (n :: acc) (A.get n.next)
          | head -> (acc, head)
        in
        let head = A.get t.pools.(tid) in
        let skipped, head' = skip [] head in
        if head != head' then begin
          A.set t.pools.(tid) head';
          List.iter
            (fun n ->
              Chk.note_unlink ~fiber:tid ~node:n.chk;
              (Ebr.retire t.ebr ~tid ~chk:n.chk (fun () ->
                   Mag.recycle t.mag ~tid n)
              [@retire_ok
                "owner-only unlink: the pool-head store above is private \
                 to tid, so each skipped node is retired exactly once"]))
            skipped
        end;
        let node =
          match Mag.alloc t.mag ~tid with
          | Some n ->
              (* Grace period over: no scanner can still hold [n], so the
                 re-initialising stores below are private until the
                 pool-head store publishes the node again. *)
              n.chk <- Chk.note_recycle ~fiber:tid ~node:n.chk;
              n.value <- value;
              A.set n.ts pending;
              A.set n.taken false;
              A.set n.next (A.get t.pools.(tid));
              n
          | None ->
              let chk = Chk.note_alloc ~fiber:tid in
              P.note_alloc ();
              ({
                 value;
                 (* Written once at publication, then only read by scanning
                    poppers; padding every per-push node would be a real
                    allocation-rate regression. *)
                 ts =
                   (A.make pending
                   [@unpadded_ok "written once, then read-only"]);
                 (* [taken] is the CAS-contended cell: pad it so a popper's
                    CAS does not invalidate readers of [ts]/[next] in the
                    same node. *)
                 taken = A.make_padded false;
                 next =
                   (A.make
                      (A.get t.pools.(tid))
                   [@unpadded_ok "written once at creation, then read-only"]);
                 chk;
               }
              [@fresh_ok "magazine miss: cold start or pop-starved run"])
        in
        (* Publish first, then timestamp: the interval must cover a moment
           at which the node was already visible. *)
        A.set t.pools.(tid) (Some node);
        Chk.note_publish ~fiber:tid ~node:node.chk;
        let a = P.now_ns () in
        if t.delay > 0 then P.relax t.delay;
        let b = P.now_ns () in
        A.set node.ts (a, b))

  (* First untaken node from the pool head — the pool's youngest. *)
  let rec youngest n =
    match n with
    | None -> None
    | Some n -> if A.get n.taken then youngest (A.get n.next) else Some n

  (* [n] is strictly younger than interval [(_, e)] if its interval starts
     after [e] ends. Overlapping intervals are unordered: either may win. *)
  let younger (s, _) (_, e') = Int64.compare s e' > 0

  type 'a scan_outcome =
    | Take_now of 'a node (* pushed during our operation: eliminate *)
    | Candidate of 'a node
    | Empty_if of 'a node option array (* heads seen; empty if unchanged *)

  (* Scan all pools starting at the caller's own index, so concurrent
     pops spread their first probes instead of stampeding pool 0. Reads
     only — see the header on owner-only unlinking. *)
  let scan t ~started ~from =
    let num_pools = Array.length t.pools in
    let heads = Array.make num_pools None in
    let best = ref None in
    let rec loop k =
      if k >= num_pools then
        match !best with
        | Some (n, _) -> Candidate n
        | None -> Empty_if heads
      else begin
        let i = (from + k) mod num_pools in
        let head = A.get t.pools.(i) in
        let young = youngest head in
        heads.(i) <- head;
        match young with
        | None -> loop (k + 1)
        | Some n ->
            let ts = A.get n.ts in
            let start_of_interval = fst ts in
            if Int64.compare start_of_interval started > 0 then Take_now n
            else begin
              (match !best with
              | Some (_, best_ts) when not (younger ts best_ts) -> ()
              | _ -> best := Some (n, ts));
              loop (k + 1)
            end
      end
    in
    loop 0

  let try_take n = A.compare_and_set n.taken false true

  let unchanged t heads =
    let ok = ref true in
    Array.iteri
      (fun i h ->
        if A.get t.pools.(i) != h || youngest h <> None then ok := false)
      heads;
    !ok

  let pop t ~tid =
    Ebr.guard t.ebr ~tid (fun () ->
        let started = P.now_ns () in
        let rec attempt () =
          match scan t ~started ~from:(tid mod Array.length t.pools) with
          | Take_now n | Candidate n ->
              Chk.note_access ~fiber:tid ~node:n.chk;
              if try_take n then Some n.value
              else begin
                P.relax 8;
                attempt ()
              end
          | Empty_if heads -> if unchanged t heads then None else attempt ()
        in
        attempt ())

  let peek t ~tid =
    Ebr.guard t.ebr ~tid (fun () ->
        let started = P.now_ns () in
        let rec attempt () =
          match scan t ~started ~from:(tid mod Array.length t.pools) with
          | Take_now n | Candidate n ->
              Chk.note_access ~fiber:tid ~node:n.chk;
              if A.get n.taken then attempt () else Some n.value
          | Empty_if heads -> if unchanged t heads then None else attempt ()
        in
        attempt ())
end
