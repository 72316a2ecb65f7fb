(* The SEC batch engine — sharded elimination and combining (the paper's
   Algorithms 1 and 2, Figure 1), parameterised by the backing store.

   Threads are sharded over K aggregators by thread id. Each aggregator
   points to its currently active *batch*. A thread announces an operation
   by fetch&increment on the batch's push or pop counter; the returned
   sequence number names an elimination-array slot (pushes deposit their
   node there immediately). The first announcer of either type wins a
   test&set and becomes the batch's *freezer*: after a short backoff (to
   let the batch grow) it snapshots both counters into
   [push_at_freeze]/[pop_at_freeze] and installs a fresh batch in the
   aggregator, which releases every announcer:

   - announcers whose sequence number is not below the freeze snapshot do
     not belong to the batch and retry in a later batch;
   - the first min(pushes, pops) operations of each type eliminate
     pairwise through the elimination array;
   - the survivors are all of one type; the one with the lowest surviving
     sequence number becomes the *combiner* and applies them all to the
     backing store in one step ([Store.link] appends a pre-linked
     substack, [Store.detach] unlinks a chain of nodes), then raises
     [batch_applied]; waiting pops find their results by indexing into the
     detached substack ([get_value]).

   Only those two store steps differ between the structures built on the
   engine: {!Sec_stack} links into one shared top with a single CAS (the
   paper's stack), {!Sec_pool} into one backing stack per aggregator,
   stealing from the others when its own runs short.

   Linearization (paper, Section 5): eliminated pairs linearize together
   at the exchange; non-eliminated operations linearize at their
   combiner's store step, ordered by sequence number. *)

(* Batch lifecycle (checked statically by sec_lint rule 13): announcing
   (counter FAAs, elimination-slot deposits) and the freezer race on
   [freezer_decided] happen only while the batch is open; the freeze
   snapshot writes [pop_at_freeze] strictly before [push_at_freeze]
   (push's elimination test reads pops-at-freeze through the push
   counter, so the reverse order would under-eliminate); and only a
   fully snapped batch may be retired by installing its successor. *)
[@@@protocol
  "batch: open -rmw:push_count-> open; open -rmw:pop_count-> open; open \
   -write:elimination-> open; open -rmw:freezer_decided-> open; open \
   -write:pop_at_freeze-> snapped; snapped -write:push_at_freeze-> frozen; \
   frozen -write:batch-> open"]

type 'a node = {
  value : 'a;
  mutable next : 'a node option;
      [@plain_ok
        "linked while the node is still private to one combiner; published \
         wholesale by the combiner's release CAS in the store step"]
}

(* The backing store: the only part of a structure the engine does not
   own. [shard] is the aggregator the combiner's batch belongs to. *)
module type STORE = sig
  type 'a t

  (* Publish the combined substack [bottom .. top] (already linked through
     [next], [top] nearest the top of the store). *)
  val link : 'a t -> shard:int -> bottom:'a node -> top:'a node -> unit

  (* Unlink up to [wanted] nodes and return the chain the batch's
     combined pops read their values from ([None]: the store was empty).
     Only the first [wanted] nodes of the chain are ever read. *)
  val detach : 'a t -> shard:int -> wanted:int -> 'a node option
end

module Make (P : Sec_prim.Prim_intf.S) (Store : STORE) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)
  module Tally = Sec_prim.Tally

  type 'a batch = {
    push_count : int A.t;
    pop_count : int A.t;
    push_at_freeze : int A.t;
    pop_at_freeze : int A.t;
    elimination : 'a node option A.t array;
    freezer_decided : bool A.t;
    batch_applied : bool A.t;
    substack : 'a node option A.t;
        (* chain detached by a pop-side combiner, read by [get_value] *)
    expected : int;
        (* size (pushes + pops) of the batch this one replaced on the same
           aggregator ([max_threads] for the first, which no batch of a
           shard reaches at K >= 2): the freezer stops waiting once this
           many have announced *)
  }

  type 'a aggregator = { batch : 'a batch A.t }

  (* Plain per-thread tallies: counting costs no simulated cycle, so a
     run with [Config.collect_stats] takes the schedule of one without. *)
  type stats_counters = {
    batches : Tally.t;
    operations : Tally.t;
    eliminated : Tally.t;
    combined : Tally.t;
    excluded : Tally.t;
  }

  type 'a t = {
    store : 'a Store.t;
    aggregators : 'a aggregator array;
    capacity : int;
        (* elimination-array size: the shard's P = ceil(max_threads / K),
           the most threads [tid mod K] routes to one aggregator *)
    config : Config.t;
    stats : stats_counters option;
  }

  let make_batch capacity ~expected =
    {
      push_count = A.make_padded 0;
      pop_count = A.make_padded 0;
      push_at_freeze = A.make_padded (-1);
      pop_at_freeze = A.make_padded (-1);
      (* Each elimination slot belongs to a different announcing thread;
         adjacent unpadded slots would false-share under the paper's
         hottest path (announce/collect). *)
      elimination = Array.init capacity (fun _ -> A.make_padded None);
      freezer_decided = A.make_padded false;
      batch_applied = A.make_padded false;
      substack = A.make_padded None;
      expected;
    }

  (* [store k] builds the backing store for [k] aggregators. *)
  let create ~config ~max_threads store =
    (* Routing is [tid mod K] with every tid below [max_threads], so
       clamping K to the thread count is routing-equivalent (aggregators
       past it could never be reached) — it keeps harness runs at low
       thread counts working with a high configured K. [Config.validate]
       still rejects K < 1 and a negative [freeze_backoff]. *)
    let config =
      if config.Config.num_aggregators > max_threads then
        { config with Config.num_aggregators = max_threads }
      else config
    in
    Config.validate config;
    let k = config.Config.num_aggregators in
    (* Paper, Figure 1: [eliminationArray[P]], P the threads of one
       aggregator. A thread announces at most once per batch, so a batch
       holds at most P announcements unless more live threads than
       [max_threads] share the shard. *)
    let capacity = (max_threads + k - 1) / k in
    {
      store = store k;
      aggregators =
        Array.init k (fun _ ->
            {
              batch =
                A.make_padded (make_batch capacity ~expected:max_threads);
            });
      capacity;
      config;
      stats =
        (if config.Config.collect_stats then
           let tally () = Tally.create ~threads:max_threads in
           Some
             {
               batches = tally ();
               operations = tally ();
               eliminated = tally ();
               combined = tally ();
               excluded = tally ();
             }
         else None);
    }

  (* ------------------------------------------------------------------ *)
  (* Freezing (paper: FreezeBatch, lines 28–32)                          *)

  let record_batch_stats t ~tid ~pushes ~pops =
    match t.stats with
    | None -> ()
    | Some s ->
        let eliminated = 2 * Int.min pushes pops in
        Tally.add s.batches ~tid 1;
        Tally.add s.operations ~tid (pushes + pops);
        Tally.add s.eliminated ~tid eliminated;
        Tally.add s.combined ~tid (pushes + pops - eliminated)

  (* The freezer lingers so more operations join the batch, raising the
     elimination/combining degree (paper, Section 3.1). The wait is
     adaptive: poll the announcement counters and keep waiting while the
     batch is still growing, up to [freeze_backoff] relax units in total —
     so a lone thread freezes almost immediately while a busy aggregator
     gathers a full batch. It also stops as soon as the batch is as large
     as the one before it ([expected]): when every thread of the shard is
     already in, waiting longer cannot add anyone (cf. DECS, PAPERS.md:
     pay for elimination and combining in proportion to the contention
     met). Each extension window is polled every [poll_step] units, so
     the freeze comes the moment the batch fills. *)
  let poll_step = 64

  let freezer_backoff t batch =
    let budget = t.config.Config.freeze_backoff in
    if budget > 0 then begin
      (* Short initial probe: a lone thread freezes almost immediately.
         If anything else announced during it, keep extending in windows
         long enough to cover a contended cross-socket announce — or a
         thread whose fetch&increment queues behind a few others misses
         every batch's window and starves. *)
      let initial = Int.max 512 (budget / 32) in
      let extension = Int.max 1024 (budget / 8) in
      let announced () = A.get batch.push_count + A.get batch.pop_count in
      P.relax initial;
      let after_initial = announced () in
      if after_initial > 1 && after_initial < batch.expected then begin
        (* Others are arriving: let the batch grow. A window that runs
           out before the batch fills starts another only if the batch
           grew during it. *)
        let rec poll k =
          if k > 0 && announced () < batch.expected then begin
            P.relax poll_step;
            poll (k - 1)
          end
        in
        let rec wait spent seen =
          if spent < budget then begin
            poll (extension / poll_step);
            let now = announced () in
            if now > seen && now < batch.expected then
              wait (spent + extension) now
          end
        in
        wait initial after_initial
      end
    end

  let freeze_batch t ~tid aggregator batch =
    freezer_backoff t batch;
    (* When more threads than [capacity] announce into one batch (more
       live threads than [max_threads] in all), the counters race past
       it. Announcements at or past it own no elimination slot (the push
       path bails out before depositing), so the snapshot must exclude
       them; they retry in a later batch.
       [Batch_overflow] is the seeded mutant reintroducing the unclamped
       snapshot (Config.mutation — refinement-prong tests only). *)
    let clamp c =
      if t.config.Config.mutation = Config.Batch_overflow then c
      else Int.min c t.capacity
    in
    let pops = clamp (A.get batch.pop_count) in
    let pushes = clamp (A.get batch.push_count) in
    A.set batch.pop_at_freeze pops;
    A.set batch.push_at_freeze pushes;
    record_batch_stats t ~tid ~pushes ~pops;
    (* Installing the new batch is what releases the waiting announcers. *)
    A.set aggregator.batch (make_batch t.capacity ~expected:(pushes + pops))

  let count_excluded t ~tid =
    match t.stats with Some s -> Tally.add s.excluded ~tid 1 | None -> ()

  (* Announce via FAA, then either freeze (if we won the seq-0 test&set
     race) or wait until the freezer retires the batch. Returns true when
     the caller's operation belongs to [batch].

     A waiter for a freeze starts its probes [poll_step] apart: a freezer
     with a budget installs the next batch no sooner than its 512-unit
     probe and [poll_step]-grained checks allow, so the default 4, 8, 16,
     32-unit probes would read a pointer that cannot have changed yet.
     (Without a budget the freezer freezes at once; that ablation-only
     setting is chaotic from seed to seed either way, docs/PERF.md.) *)
  let await_freeze aggregator batch =
    Backoff.spin_while ~first:poll_step (fun () ->
        A.get aggregator.batch == batch)

  let announce_and_freeze t ~tid aggregator batch ~seq ~counter_at_freeze =
    if seq = 0 && not (A.exchange batch.freezer_decided true) then
      freeze_batch t ~tid aggregator batch
    else await_freeze aggregator batch;
    let included = seq < A.get counter_at_freeze in
    if not included then count_excluded t ~tid;
    included

  (* ------------------------------------------------------------------ *)
  (* Combining (paper: PushToStack lines 33–51, PopFromStack 80–94)      *)

  let node_of batch i =
    (* The announcer with sequence number [i] deposits its node right
       after its FAA; the combiner may momentarily have to wait for it.
       The common case, the node already there, costs one read. *)
    let slot = batch.elimination.(i) in
    match A.get slot with
    | Some n -> n
    | None -> (
        Backoff.spin_until (fun () ->
            match A.get slot with Some _ -> true | None -> false);
        match A.get slot with Some n -> n | None -> assert false)

  let combine_pushes t ~shard batch ~seq =
    let push_frozen = A.get batch.push_at_freeze in
    (* Link the surviving pushes [seq .. push_frozen) into a substack:
       higher sequence numbers end up nearer the top. *)
    let bottom = node_of batch seq in
    let top = ref bottom in
    for i = seq + 1 to push_frozen - 1 do
      let n = node_of batch i in
      n.next <- Some !top;
      top := n
    done;
    Store.link t.store ~shard ~bottom ~top:!top

  let combine_pops t ~shard batch ~seq =
    let wanted = A.get batch.pop_at_freeze - seq in
    A.set batch.substack (Store.detach t.store ~shard ~wanted)

  (* Paper: GetValue, lines 95–103; off the end of the chain is EMPTY. *)
  let get_value batch ~offset =
    let rec walk node k =
      match node with
      | None -> None
      | Some n -> if k = 0 then Some n.value else walk n.next (k - 1)
    in
    walk (A.get batch.substack) offset

  (* ------------------------------------------------------------------ *)
  (* Operations (paper: Algorithms 1 and 2)                              *)

  let push_op t ~tid value =
    let shard = tid mod Array.length t.aggregators in
    let aggregator = t.aggregators.(shard) in
    P.note_alloc ();
    let node = { value; next = None } in
    let rec try_batch () =
      let batch = A.get aggregator.batch in
      let seq = A.fetch_and_add batch.push_count 1 in
      if seq >= t.capacity then begin
        (* No elimination slot for us: more announcements landed in this
           batch than the shard was sized for (live threads exceed
           [max_threads]). The freeze snapshot clamps to [capacity], so we
           are excluded by construction — wait out the batch and retry. *)
        count_excluded t ~tid;
        await_freeze aggregator batch;
        try_batch ()
      end
      else begin
        A.set batch.elimination.(seq) (Some node);
        if
          announce_and_freeze t ~tid aggregator batch ~seq
            ~counter_at_freeze:batch.push_at_freeze
        then begin
          let pop_frozen = A.get batch.pop_at_freeze in
          if seq >= pop_frozen then
            (* Not eliminated; the smallest surviving push combines. *)
            if seq = pop_frozen then begin
              combine_pushes t ~shard batch ~seq;
              A.set batch.batch_applied true
            end
            else
              (* The default probe start, not [poll_step]: a combiner's
                 store step is short, and starting these waits at
                 [poll_step] too made pop-only runs slower. *)
              Backoff.spin_until (fun () -> A.get batch.batch_applied)
          (* else: a pop with our sequence number consumed our node. *)
        end
        else try_batch ()
      end
    in
    try_batch ()

  let pop_op t ~tid =
    let shard = tid mod Array.length t.aggregators in
    let aggregator = t.aggregators.(shard) in
    let rec try_batch () =
      let batch = A.get aggregator.batch in
      let seq = A.fetch_and_add batch.pop_count 1 in
      if
        announce_and_freeze t ~tid aggregator batch ~seq
          ~counter_at_freeze:batch.pop_at_freeze
      then begin
        let push_frozen = A.get batch.push_at_freeze in
        if seq < push_frozen then begin
          (* Eliminated: take the value deposited by the push that shares
             our sequence number. *)
          Some (node_of batch seq).value
        end
        else begin
          if seq = push_frozen then begin
            combine_pops t ~shard batch ~seq;
            A.set batch.batch_applied true
          end
          else
            (* Default probe start, as for the push waiters above. *)
            Backoff.spin_until (fun () -> A.get batch.batch_applied);
          get_value batch ~offset:(seq - push_frozen)
        end
      end
      else try_batch ()
    in
    try_batch ()

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                       *)

  let stats t =
    match t.stats with
    | None -> Sec_stats.empty
    | Some s ->
        {
          Sec_stats.batches = Tally.sum s.batches;
          operations = Tally.sum s.operations;
          eliminated = Tally.sum s.eliminated;
          combined = Tally.sum s.combined;
          excluded = Tally.sum s.excluded;
        }

  let config t = t.config
end
