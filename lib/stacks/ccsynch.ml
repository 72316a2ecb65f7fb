(* CC-Synch combining executor [Fatourou & Kallimanis, PPoPP 2012].

   Requests are announced by SWAPping a fresh node onto a global tail,
   which forms an implicit FIFO list. The thread whose node has
   [wait = false] is the combiner: it walks the list applying up to
   [combine_limit] requests, then hands the combiner role to the next
   announcer. Compared to flat combining there is no lock and no empty
   scanning — every traversed node carries a request.

   Node recycling follows the paper: a thread donates its local node as the
   new tail placeholder and adopts the node it obtained from the SWAP.

   [batch] wraps a combiner's serving pass and the hand-off write follows
   it: CC-Synch runs the pass as is, H-Synch ({!Hsynch}) under a lock. *)

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)
  module Tally = Sec_prim.Tally

  type ('op, 'res) node = {
    mutable req : 'op option;
        [@plain_ok
          "written by the owner before the release store to [next] that \
           publishes the node to the combiner"]
    mutable res : 'res option;
        [@plain_ok
          "written by the combiner before its release store to [wait]; the \
           owner reads it only after observing [wait = false]"]
    wait : bool A.t;
    completed : bool A.t;
    next : ('op, 'res) node option A.t;
  }

  type ('op, 'res) t = {
    tail : ('op, 'res) node A.t;
    local : ('op, 'res) node array; (* per-thread spare node *)
    apply : 'op -> 'res;
    combine_limit : int;
    batch : (unit -> ('op, 'res) node) -> ('op, 'res) node;
    combines : Tally.t; (* requests served by a combiner *)
    handoffs : Tally.t; (* times the combiner role was passed on *)
  }

  (* Nodes are recycled for the lifetime of the executor and [wait] is
     spun on by the owner while the combiner writes it: pad every cell so
     neighbouring nodes' traffic cannot false-share. *)
  let fresh_node () =
    {
      req = None;
      res = None;
      wait = A.make_padded false;
      completed = A.make_padded false;
      next = A.make_padded None;
    }

  let create ?(max_threads = 64) ?(combine_limit = 1024)
      ?(batch = fun serve -> serve ()) ~apply () =
    (* The initial tail is a dummy with [wait = false]: the first announcer
       becomes combiner immediately. *)
    {
      tail = A.make_padded (fresh_node ());
      local = Array.init max_threads (fun _ -> fresh_node ());
      apply;
      combine_limit;
      batch;
      combines = Tally.create ~threads:max_threads;
      handoffs = Tally.create ~threads:max_threads;
    }

  let apply t ~tid op =
    let next_node = t.local.(tid) in
    A.set next_node.next None;
    A.set next_node.wait true;
    A.set next_node.completed false;
    let cur = A.exchange t.tail next_node in
    cur.req <- Some op;
    t.local.(tid) <- cur;
    (* Publishing [next] makes [req] visible to the combiner. *)
    A.set cur.next (Some next_node);
    Backoff.spin_while (fun () -> A.get cur.wait);
    (* Unless someone combined for us, we are the combiner: serve from our
       own node onward, up to the tail placeholder or the limit. *)
    if not (A.get cur.completed) then begin
      let rec serve node served =
        match A.get node.next with
        | Some next_in_line when served < t.combine_limit ->
            (match node.req with
            | Some req -> node.res <- Some (t.apply req)
            | None -> assert false);
            A.set node.completed true;
            A.set node.wait false;
            Tally.add t.combines ~tid 1;
            serve next_in_line (served + 1)
        | Some _ | None -> node
      in
      let last = t.batch (fun () -> serve cur 0) in
      (* Hand the combiner role to the owner of the first unserved node. *)
      Tally.add t.handoffs ~tid 1;
      A.set last.wait false
    end;
    match cur.res with Some r -> r | None -> assert false

  (* Statistics for reports/tests, exact once the callers have joined. *)
  let combined_ops t = Tally.sum t.combines
  let handoffs t = Tally.sum t.handoffs
end
