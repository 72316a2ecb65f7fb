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

   Pop and peek pick candidates exactly as in lib/stacks/ts_stack.ml:
   one total order (interval start, then pool), and peek skips nodes
   whose interval is not yet stamped.

   Like {!Reclaimed_stack}, a retired node is dropped to the GC once its
   grace period expires, and every push allocates a fresh node. *)

(* Same argument as the plain TS stack: losing the [taken] CAS means a
   peer popped the node, and pool scans never wait on a specific thread. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) : Sec_spec.Stack_intf.S = struct
  module A = P.Atomic
  module Ebr = Ebr.Make (P)
  module Chk = Sec_analysis.Reclaim_checker

  (* Interval [ts_start, ts_end]; [max_int] until the pusher assigns it,
     which makes an in-flight node "youngest" (taken-immediately). *)
  type 'a node = {
    value : 'a;
    ts : (int64 * int64) A.t;
    taken : bool A.t;
    next : 'a node option A.t;
    chk : int; (* reclamation-checker node id; 0 when untracked *)
  }

  type 'a t = {
    pools : 'a node option A.t array; (* pool head per thread, padded *)
    delay : int; (* relax units between the two clock reads *)
    ebr : Ebr.t;
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
              (Ebr.retire t.ebr ~tid ~chk:n.chk ignore
              [@retire_ok
                "owner-only unlink: the pool-head store above is private \
                 to tid, so each skipped node is retired exactly once"]))
            skipped
        end;
        let chk = Chk.note_alloc ~fiber:tid in
        P.note_alloc ();
        let node =
          {
            value;
            (* Written once at publication, then only read by scanning
               poppers; padding every per-push node would be a real
               allocation-rate regression. *)
            ts = (A.make pending [@unpadded_ok "written once, then read-only"]);
            (* [taken] is the CAS-contended cell: pad it so a popper's CAS
               does not invalidate readers of [ts]/[next] in the same
               node. *)
            taken = A.make_padded false;
            next =
              (A.make
                 (A.get t.pools.(tid))
              [@unpadded_ok "written once at creation, then read-only"]);
            chk;
          }
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

  (* The order every pop and peek picks its candidate by: interval start,
     then pool index. A node strictly younger than another (its interval
     starts after the other's ends) also starts later, so this is a linear
     extension of the TS partial order and a pop still takes a maximal
     node. Overlapping intervals are unordered, and the published pop may
     take either; but once a peek has reported one of two unordered
     maxima, every later pop and peek must agree with it — so no choice
     may depend on the pool a scan happens to start from. *)
  let ranks_above ((s, _), i) ((s', _), i') =
    let c = Int64.compare s s' in
    c > 0 || (c = 0 && i > i')

  (* A published node whose interval is still [pending] belongs to a push
     that has not linearized yet: the pusher may stamp it after pushes
     that start later, so a peek that reported it could see it reappear
     *below* them. Pop may take such a node (the push linearizes just
     before the pop, which removes it), but peek must look past it. *)
  let is_pending (s, _) = Int64.equal s Int64.max_int

  (* An untaken node (or [None]) paired with its interval — or, when
     [stamped_only], the first untaken stamped node from it, the youngest
     a peek may report. One read of each interval, so a pop's scan
     performs exactly the accesses it always did. *)
  let rec with_interval ~stamped_only = function
    | None -> None
    | Some n ->
        let ts = A.get n.ts in
        if stamped_only && is_pending ts then
          with_interval ~stamped_only (youngest (A.get n.next))
        else Some (n, ts)

  type 'a scan_outcome =
    | Take_now of 'a node (* pushed during our operation: eliminate *)
    | Candidate of 'a node
    | Empty_if of 'a node option array (* heads seen; empty if unchanged *)

  (* Scan all pools starting at the caller's own index, so concurrent
     pops spread their first probes instead of stampeding pool 0. Reads
     only — see the header on owner-only unlinking. *)
  let scan t ~started ~from ~stamped_only =
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
        match with_interval ~stamped_only young with
        | None -> loop (k + 1)
        | Some (n, ts) ->
            if Int64.compare (fst ts) started > 0 then Take_now n
            else begin
              (match !best with
              | Some (_, best_key) when not (ranks_above (ts, i) best_key) ->
                  ()
              | _ -> best := Some (n, (ts, i)));
              loop (k + 1)
            end
      end
    in
    loop 0

  let try_take n = A.compare_and_set n.taken false true

  (* Emptiness confirmation: every pool head is as the scan saw it and
     holds nothing visible. For peek a pending node is not visible, so a
     pool holding only pending pushes reads as empty — the peek
     linearizes before those pushes instead of waiting for their stamps. *)
  let unchanged t heads ~stamped_only =
    let visible h =
      if stamped_only then
        Option.is_some (with_interval ~stamped_only (youngest h))
      else Option.is_some (youngest h)
    in
    let ok = ref true in
    Array.iteri
      (fun i h ->
        if A.get t.pools.(i) != h || visible h then ok := false)
      heads;
    !ok

  let pop t ~tid =
    Ebr.guard t.ebr ~tid (fun () ->
        let started = P.now_ns () in
        let from = tid mod Array.length t.pools in
        let rec attempt () =
          match scan t ~started ~from ~stamped_only:false with
          | Take_now n | Candidate n ->
              Chk.note_access ~fiber:tid ~node:n.chk;
              if try_take n then Some n.value
              else begin
                P.relax 8;
                attempt ()
              end
          | Empty_if heads ->
              if unchanged t heads ~stamped_only:false then None else attempt ()
        in
        attempt ())

  let peek t ~tid =
    Ebr.guard t.ebr ~tid (fun () ->
        let started = P.now_ns () in
        let from = tid mod Array.length t.pools in
        let rec attempt () =
          match scan t ~started ~from ~stamped_only:true with
          | Take_now n | Candidate n ->
              Chk.note_access ~fiber:tid ~node:n.chk;
              if A.get n.taken then attempt () else Some n.value
          | Empty_if heads ->
              if unchanged t heads ~stamped_only:true then None else attempt ()
        in
        attempt ())
end
