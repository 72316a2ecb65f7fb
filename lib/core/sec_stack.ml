(* SEC — Sharded Elimination and Combining stack (the paper's Algorithms 1
   and 2, Figure 1): the batch engine of {!Batch} over one shared
   Treiber-style stack. Announcing, freezing, elimination and the choice
   of each batch's combiner all live in the engine; this module supplies
   the two store steps a combiner runs — appending a pre-linked substack
   to [top] with a single CAS (paper: PushToStack, lines 44–50) and
   unlinking a chain of nodes from it (PopFromStack, lines 80–94) — plus
   [peek] and [depth]. *)

(* The combining protocol is blocking: an announcer whose batch's freezer
   (or combiner) is suspended spins on [batch_applied] forever. The
   sharded elimination fast path is nonetheless lock-free — a suspension
   on one aggregator cannot stall threads mapped to another shard — and
   test/test_progress.ml checks both facts mechanically. *)
[@@@progress "blocking"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic

  module Shared_top = struct
    type 'a t = {
      top : 'a Batch.node option A.t; (* Figure 1, stackTop *)
      pop_reorder : bool;
          (* [Pop_reorder] is the seeded mutant publishing the remaining
             stack instead of the detached chain (Config.mutation —
             refinement-prong tests only). *)
    }

    (* Combiners retry immediately: there are at most K of them, an
       entire batch of waiters stalls while one dawdles, and backing off
       after a failed CAS just surrenders the loser's place behind a
       stream of fresh combiners. *)
    let link s ~shard:_ ~bottom ~top =
      let rec attempt () =
        (let current_top = A.get s.top in
         bottom.Batch.next <- current_top;
         if not (A.compare_and_set s.top current_top (Some top)) then
           attempt ())
        [@await_ok
          "a failed CAS means another combiner landed its whole batch; at \
           most K combiners compete, so retrying bare is the right call"]
      in
      attempt ()

    let detach s ~shard:_ ~wanted =
      let rec attempt () =
        let current_top = A.get s.top in
        (* Walk down min(wanted, depth) nodes; the remainder of the batch
           will observe an empty stack. *)
        let rec walk node k =
          if k = 0 then node
          else
            match node with
            | None -> None
            | Some n -> walk n.Batch.next (k - 1)
        in
        let new_top = walk current_top wanted in
        (if A.compare_and_set s.top current_top new_top then
           if s.pop_reorder then new_top else current_top
         else attempt ())
        [@await_ok
          "a failed CAS means another combiner landed its whole batch; at \
           most K combiners compete, so retrying bare is the right call"]
      in
      attempt ()
  end

  module B = Batch.Make (P) (Shared_top)

  type 'a t = 'a B.t

  let name = "SEC"

  let create_with ~config ?(max_threads = 64) () =
    B.create ~config ~max_threads (fun _ ->
        {
          Shared_top.top = A.make_padded None;
          pop_reorder = config.Config.mutation = Config.Pop_reorder;
        })

  let create ?max_threads () = create_with ~config:Config.default ?max_threads ()
  let push t ~tid value = B.push_op t ~tid value
  let pop t ~tid = B.pop_op t ~tid

  (* With recycling off, a node reachable from [top] is immutable, so one
     read suffices. With recycling on, the node could be popped, recycled
     and re-initialised between our load of [top] and our read of
     [value] — so revalidate that [top] still holds the same option cell
     afterwards. Every push publishes a fresh [Some] box, so physical
     equality proves the stack did not move under us (and a node still at
     the top cannot have been recycled: recycling happens only after the
     node is unlinked). *)
  let peek (t : _ t) ~tid:_ =
    let top = t.store.top in
    let rec attempt () =
      match A.get top with
      | None -> None
      | Some n as cur ->
          let v = n.Batch.value in
          if (not t.recycle) || A.get top == cur then Some v
          else begin
            P.relax 1;
            attempt ()
          end
    in
    attempt ()

  let stats = B.stats
  let config = B.config
  let magazine_stats = B.magazine_stats
  let magazine_hit_rate = B.magazine_hit_rate
  let slab_stats = B.slab_stats

  (* Current depth of the shared stack; O(n), single snapshot of [top],
     for tests and examples only. *)
  let depth (t : _ t) =
    let rec count node acc =
      match node with None -> acc | Some n -> count n.Batch.next (acc + 1)
    in
    count (A.get t.store.top) 0
end
