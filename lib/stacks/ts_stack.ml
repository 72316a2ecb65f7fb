(* Timestamped stack, interval variant [Dodds, Haas & Kirsch, POPL 2015]
   ("TSI"). Push inserts into a per-thread single-producer pool and then
   assigns the node an *interval* timestamp [a, b] obtained by reading the
   clock twice with a tunable delay in between; unordered (overlapping)
   intervals license linearizability-preserving reordering, so pushes never
   touch a shared hot spot. Pop scans all pools for the youngest visible
   node and claims it by CAS on the node's [taken] flag; a candidate whose
   interval began after the pop started was pushed concurrently and is
   taken immediately (built-in elimination). Emptiness requires a second
   scan observing every pool unchanged. Peek scans the same way but only
   reads, and never reports a node whose interval is not yet stamped.
   Pop and peek rank candidates by one total order (interval start, then
   pool), so a peek never names a different top than a later pop takes.

   The paper's x86 RDTSCP timestamp source is replaced by the substrate
   clock ({!Sec_prim.Prim_intf.S.now_ns}); see DESIGN.md. Pool cleanup is
   what the published algorithm does lazily: the owner unlinks taken nodes
   from the head on its next push. *)

(* Pushes touch only the pusher's own pool; a pop losing the [taken] CAS
   means a peer claimed the node. No wait names a specific thread. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) : Sec_spec.Stack_intf.S = struct
  module A = P.Atomic

  (* Interval [ts_start, ts_end]; [max_int] until the pusher assigns it,
     which makes an in-flight node "youngest" (taken-immediately). *)
  type 'a node = {
    value : 'a;
    ts : (int64 * int64) A.t;
    taken : bool A.t;
    next : 'a node option A.t;
  }

  type 'a t = {
    pools : 'a node option A.t array; (* pool head per thread, padded *)
    delay : int; (* relax units between the two clock reads *)
  }

  let name = "TSI"

  let pending = (Int64.max_int, Int64.max_int)

  (* The interval delay trades push latency for elimination: a wider
     interval overlaps more concurrent pops, which may then take the node
     immediately instead of scanning every pool. The TS paper tunes this
     per machine; 400 relax units reproduces its reported trade-off (fast
     pushes still ~6x a combining stack's, frequent pop elimination). *)
  let default_delay = 400

  let create ?(max_threads = 64) () =
    {
      pools = Array.init max_threads (fun _ -> A.make_padded None);
      delay = default_delay;
    }

  (* Owner-only: drop the prefix of taken nodes so scans stay short. *)
  let trim_head t tid =
    let rec skip = function
      | Some n when A.get n.taken -> skip (A.get n.next)
      | head -> head
    in
    let head = A.get t.pools.(tid) in
    let head' = skip head in
    if head != head' then
      A.set t.pools.(tid) head'
      [@publication_ok
        "owner-only trim: the only concurrent pools.(tid) writer is a \
         helper's pool_youngest CAS unlinking the same taken prefix; \
         overwriting it can only resurrect taken nodes the next scan \
         re-skips"]

  let push t ~tid value =
    trim_head t tid;
    P.note_alloc ();
    let node =
      {
        value;
        (* Written once at publication, then only read by scanning
           poppers; padding every per-push node would be a real
           allocation-rate regression. *)
        ts = (A.make pending [@unpadded_ok "written once, then read-only"]);
        (* [taken] is the CAS-contended cell: pad it so a popper's CAS
           does not invalidate readers of [ts]/[next] in the same node. *)
        taken = A.make_padded false;
        next =
          (A.make
             (A.get t.pools.(tid))
          [@unpadded_ok "written once at creation, then read-only"]);
      }
    in
    (* Publish first, then timestamp: the interval must cover a moment at
       which the node was already visible. *)
    (A.set t.pools.(tid) (Some node)
    [@publication_ok
      "single-writer publication: pools.(tid) is pushed only by its owner, \
       and losing a helper's concurrent unlink CAS merely resurrects a \
       taken prefix behind the new node (re-skipped on the next scan)"]);
    let a = P.now_ns () in
    if t.delay > 0 then P.relax t.delay;
    let b = P.now_ns () in
    A.set node.ts (a, b)

  (* First untaken node from the pool head — the pool's youngest. *)
  let rec youngest = function
    | None -> None
    | Some n -> if A.get n.taken then youngest (A.get n.next) else Some n

  (* Any thread may swing a pool head forward past a taken prefix (the TS
     paper's remove-time unlinking); losing the CAS to the owner's push is
     harmless — the next scan just skips the prefix again. Without this,
     pop-heavy workloads would rescan ever-growing chains of taken nodes. *)
  let pool_youngest t i =
    let head = A.get t.pools.(i) in
    let y = youngest head in
    if head != y then ignore (A.compare_and_set t.pools.(i) head y);
    (head, y)

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
     pops spread their first probes instead of stampeding pool 0. *)
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
        let head, young =
          if stamped_only then
            (* A peek only reads. [youngest] re-boxes the node it returns,
               so the helping CAS of [pool_youngest] replaces even an
               untaken head, and every rescan would then fail the
               [unchanged] test — a peek over a pool holding only a
               pending node would spin until the pusher stamps it. *)
            let head = A.get t.pools.(i) in
            (head, youngest head)
          else pool_youngest t i
        in
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
    let started = P.now_ns () in
    let from = tid mod Array.length t.pools in
    let rec attempt () =
      match scan t ~started ~from ~stamped_only:false with
      | Take_now n | Candidate n ->
          if try_take n then Some n.value
          else begin
            P.relax 8;
            attempt ()
          end
      | Empty_if heads ->
          if unchanged t heads ~stamped_only:false then None else attempt ()
    in
    attempt ()

  let peek t ~tid =
    let started = P.now_ns () in
    let from = tid mod Array.length t.pools in
    let rec attempt () =
      match scan t ~started ~from ~stamped_only:true with
      | Take_now n | Candidate n ->
          if A.get n.taken then attempt () else Some n.value
      | Empty_if heads ->
          if unchanged t heads ~stamped_only:true then None else attempt ()
    in
    attempt ()
end
