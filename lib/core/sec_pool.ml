(* SEC-style concurrent pool — the paper's "of independent interest"
   claim made concrete (Sections 1 and 7: the sharded elimination and
   combining mechanisms apply to other structures, e.g. pools [13]).

   Same machinery as {!Sec_stack}: aggregators, counter-based freezing,
   batch-level elimination, one combiner per batch. The difference is the
   backing store: a pool does not promise LIFO across threads, so each
   aggregator keeps its *own* Treiber-style backing stack. A push-majority
   combiner appends its substack to its aggregator's local top; a
   pop-majority combiner detaches from the local top first and steals from
   the other aggregators' tops if it comes up short. There is no globally
   shared hot line at all.

   Semantics: a linearizable bag — [pop] returns a value that was pushed
   and not yet popped. Emptiness is best-effort, as is standard for pools:
   a [pop] may return [None] if every backing stack it examined was empty
   at the moment its combiner examined it. *)

(* Inherits the SEC combining protocol's class: announcers wait on their
   batch's combiner, so a suspended combiner stalls its shard. *)
[@@@progress "blocking"]
[@@@spec "pool"]

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)

  type 'a node = {
    value : 'a;
    mutable next : 'a node option;
        [@plain_ok
          "linked while the node is still private to one combiner; \
           published wholesale by the combiner's release CAS on the \
           backing stack's top"]
  }

  type 'a batch = {
    push_count : int A.t;
    pop_count : int A.t;
    push_at_freeze : int A.t;
    pop_at_freeze : int A.t;
    elimination : 'a node option A.t array;
    freezer_decided : bool A.t;
    batch_applied : bool A.t;
    substack : 'a node option A.t;
  }

  type 'a aggregator = {
    batch : 'a batch A.t;
    local_top : 'a node option A.t; (* this aggregator's backing stack *)
  }

  type 'a t = {
    aggregators : 'a aggregator array;
    capacity : int;
    freeze_backoff : int;
  }

  let name = "SEC-pool"

  let make_batch capacity =
    {
      push_count = A.make_padded 0;
      pop_count = A.make_padded 0;
      push_at_freeze = A.make_padded (-1);
      pop_at_freeze = A.make_padded (-1);
      (* Per-thread announcement slots: pad so neighbouring announcers do
         not false-share (same reasoning as Sec_stack.make_batch). *)
      elimination = Array.init capacity (fun _ -> A.make_padded None);
      freezer_decided = A.make_padded false;
      batch_applied = A.make_padded false;
      substack = A.make_padded None;
    }

  let create ?(aggregators = 2) ?(freeze_backoff = 512) ?(max_threads = 64) ()
      =
    if aggregators < 1 then invalid_arg "Sec_pool.create: aggregators >= 1";
    {
      aggregators =
        Array.init aggregators (fun _ ->
            {
              batch = A.make_padded (make_batch max_threads);
              local_top = A.make_padded None;
            });
      capacity = max_threads;
      freeze_backoff;
    }

  let aggregator_of t tid = t.aggregators.(tid mod Array.length t.aggregators)

  let freeze_batch t aggregator batch =
    if t.freeze_backoff > 0 then P.relax t.freeze_backoff;
    (* Clamp: announcements at or past [capacity] own no elimination slot
       (the push path bails out before depositing) and must be excluded;
       they retry in a later batch. Same hazard as {!Sec_stack}. *)
    A.set batch.pop_at_freeze (Int.min (A.get batch.pop_count) t.capacity);
    A.set batch.push_at_freeze (Int.min (A.get batch.push_count) t.capacity);
    A.set aggregator.batch (make_batch t.capacity)

  let announce_and_freeze t aggregator batch ~seq ~counter_at_freeze =
    if seq = 0 && not (A.exchange batch.freezer_decided true) then
      freeze_batch t aggregator batch
    else Backoff.spin_while (fun () -> A.get aggregator.batch == batch);
    seq < A.get counter_at_freeze

  let node_of batch i =
    Backoff.spin_until (fun () ->
        match A.get batch.elimination.(i) with Some _ -> true | None -> false);
    match A.get batch.elimination.(i) with
    | Some n -> n
    | None -> assert false

  (* ------------------------------------------------------------------ *)
  (* Combining                                                           *)

  let push_to_local aggregator batch ~seq =
    let push_frozen = A.get batch.push_at_freeze in
    let bottom = node_of batch seq in
    let top_of_substack = ref bottom in
    for i = seq + 1 to push_frozen - 1 do
      let n = node_of batch i in
      n.next <- Some !top_of_substack;
      top_of_substack := n
    done;
    let backoff = Backoff.create () in
    let rec attempt () =
      let current = A.get aggregator.local_top in
      bottom.next <- current;
      if not (A.compare_and_set aggregator.local_top current (Some !top_of_substack))
      then begin
        Backoff.once backoff;
        attempt ()
      end
    in
    attempt ()

  (* Detach up to [wanted] nodes from [source]; returns the detached
     segment (head, last, taken). As in SEC's PopFromStack, the detached
     segment's last node may still point into the live stack — the caller
     relinks it, which is safe because detached nodes are only ever read
     through the bounded [collect_value] walk. *)
  let detach_from source ~wanted =
    let backoff = Backoff.create () in
    let rec attempt () =
      match A.get source with
      | None -> None
      | Some head as current ->
          let rec walk node taken last =
            if taken = wanted then (last, taken)
            else
              match node with
              | None -> (last, taken)
              | Some n -> walk n.next (taken + 1) (Some n)
          in
          let last, taken = walk current 0 None in
          let remainder =
            match last with None -> None | Some l -> l.next
          in
          if A.compare_and_set source current remainder then
            Some (head, Option.get last, taken)
          else begin
            Backoff.once backoff;
            attempt ()
          end
    in
    attempt ()

  let pop_from_stores t aggregator batch ~seq =
    let pop_frozen = A.get batch.pop_at_freeze in
    let needed = pop_frozen - seq in
    (* Own store first, then the others (sharded stealing). *)
    let own = aggregator.local_top in
    let sources =
      own
      :: (Array.to_list t.aggregators
         |> List.filter_map (fun a ->
                if a.local_top == own then None else Some a.local_top))
    in
    let head = ref None in
    let tail = ref None in
    let have = ref 0 in
    List.iter
      (fun source ->
        if !have < needed then
          match detach_from source ~wanted:(needed - !have) with
          | None -> ()
          | Some (h, l, taken) ->
              (match !tail with
              | None -> head := Some h
              | Some t -> t.next <- Some h);
              tail := Some l;
              have := !have + taken)
      sources;
    (* Terminate the collected chain: the final segment's last node may
       still point into a live stack. *)
    (match !tail with None -> () | Some l -> l.next <- None);
    A.set batch.substack !head

  let collect_value batch ~offset =
    let rec walk node k =
      match node with
      | None -> None
      | Some n -> if k = 0 then Some n.value else walk n.next (k - 1)
    in
    walk (A.get batch.substack) offset

  (* ------------------------------------------------------------------ *)
  (* Operations                                                          *)

  let push t ~tid value =
    let aggregator = aggregator_of t tid in
    let node = { value; next = None } in
    let rec try_batch () =
      let batch = A.get aggregator.batch in
      let seq = A.fetch_and_add batch.push_count 1 in
      if seq >= t.capacity then begin
        (* More announcements than the pool was sized for landed in this
           batch; the freeze snapshot clamps to [capacity], so we are
           excluded by construction — wait out the batch and retry. *)
        Backoff.spin_while (fun () -> A.get aggregator.batch == batch);
        try_batch ()
      end
      else begin
        A.set batch.elimination.(seq) (Some node);
        if
          announce_and_freeze t aggregator batch ~seq
            ~counter_at_freeze:batch.push_at_freeze
        then begin
          let pop_frozen = A.get batch.pop_at_freeze in
          if seq >= pop_frozen then
            if seq = pop_frozen then begin
              push_to_local aggregator batch ~seq;
              A.set batch.batch_applied true
            end
            else Backoff.spin_until (fun () -> A.get batch.batch_applied)
        end
        else try_batch ()
      end
    in
    try_batch ()

  let pop t ~tid =
    let aggregator = aggregator_of t tid in
    let rec try_batch () =
      let batch = A.get aggregator.batch in
      let seq = A.fetch_and_add batch.pop_count 1 in
      if
        announce_and_freeze t aggregator batch ~seq
          ~counter_at_freeze:batch.pop_at_freeze
      then begin
        let push_frozen = A.get batch.push_at_freeze in
        if seq < push_frozen then Some (node_of batch seq).value
        else begin
          if seq = push_frozen then begin
            pop_from_stores t aggregator batch ~seq;
            A.set batch.batch_applied true
          end
          else Backoff.spin_until (fun () -> A.get batch.batch_applied);
          collect_value batch ~offset:(seq - push_frozen)
        end
      end
      else try_batch ()
    in
    try_batch ()

  (* Total nodes across the backing stores. O(n); single snapshot per
     store; tests and examples only. *)
  let size t =
    Array.fold_left
      (fun acc agg ->
        let rec count node n =
          match node with None -> n | Some x -> count x.next (n + 1)
        in
        acc + count (A.get agg.local_top) 0)
      0 t.aggregators
end
