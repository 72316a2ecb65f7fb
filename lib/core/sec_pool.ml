(* SEC-style concurrent pool — the paper's "of independent interest"
   claim made concrete (Sections 1 and 7: the sharded elimination and
   combining mechanisms apply to other structures, e.g. pools [13]).

   The batch engine of {!Batch} — aggregators, counter-based freezing,
   batch-level elimination, one combiner per batch — over a different
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

  (* One backing stack per aggregator, indexed by shard. *)
  module Local_tops = struct
    type 'a t = 'a Batch.node option A.t array

    let push_to_local tops ~shard ~bottom ~top =
      let local_top = tops.(shard) in
      let backoff = Backoff.create () in
      let rec attempt () =
        let current = A.get local_top in
        bottom.Batch.next <- current;
        if not (A.compare_and_set local_top current (Some top)) then begin
          Backoff.once backoff;
          attempt ()
        end
      in
      attempt ()

    (* Detach up to [wanted] nodes from [source]; returns the detached
       segment (head, last, taken). As in SEC's PopFromStack, the detached
       segment's last node may still point into the live stack — the
       caller relinks it, which is safe because detached nodes are only
       ever read through the engine's bounded [get_value] walk. *)
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
                | Some n -> walk n.Batch.next (taken + 1) (Some n)
            in
            let last, taken = walk current 0 None in
            let remainder =
              match last with None -> None | Some l -> l.Batch.next
            in
            if A.compare_and_set source current remainder then
              Some (head, Option.get last, taken)
            else begin
              Backoff.once backoff;
              attempt ()
            end
      in
      attempt ()

    (* Own store first, then the others (sharded stealing). *)
    let pop_from_stores tops ~shard ~wanted =
      let sources =
        tops.(shard)
        :: List.filteri (fun i _ -> i <> shard) (Array.to_list tops)
      in
      let head = ref None in
      let tail = ref None in
      let have = ref 0 in
      List.iter
        (fun source ->
          if !have < wanted then
            match detach_from source ~wanted:(wanted - !have) with
            | None -> ()
            | Some (h, l, taken) ->
                (match !tail with
                | None -> head := Some h
                | Some t -> t.Batch.next <- Some h);
                tail := Some l;
                have := !have + taken)
        sources;
      (* Terminate the collected chain: the final segment's last node may
         still point into a live stack. *)
      (match !tail with None -> () | Some l -> l.Batch.next <- None);
      !head

    let link = push_to_local
    let detach = pop_from_stores
  end

  module B = Batch.Make (P) (Local_tops)

  type 'a t = 'a B.t

  let name = "SEC-pool"

  let create ?(aggregators = 2) ?(max_threads = 64) () =
    B.create
      ~config:(Config.with_aggregators aggregators Config.default)
      ~max_threads
      (fun k -> Array.init k (fun _ -> A.make_padded None))

  let push t ~tid value = B.push_op t ~tid value
  let pop t ~tid = B.pop_op t ~tid

  (* Total nodes across the backing stores. O(n); single snapshot per
     store; tests and examples only. *)
  let size (t : _ t) =
    Array.fold_left
      (fun acc local_top ->
        let rec count node n =
          match node with None -> n | Some x -> count x.Batch.next (n + 1)
        in
        acc + count (A.get local_top) 0)
      0 t.store
end
