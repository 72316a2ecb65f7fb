(* Blelloch–Wei-style concurrent fixed-size allocation: per-domain active
   slabs carved from larger chunks, with constant-time alloc and free and
   no cross-domain CAS on the common path ("Concurrent Fixed-Size
   Allocation and Free in Constant Time", PAPERS.md).

   This is the layer below {!Magazine}: each thread's magazine is its
   private L1 free-list, and this store is its only refill and overflow
   path. Magazines trade whole chains (one magazine, [chain_len] nodes);
   domains trade whole *slabs* ([slab_chains] chains), and the transfer
   protocol is wait-free:

   - [free_chain] pushes the chain onto the calling domain's *active
     slab* with plain field writes (owner-private, no atomics). Only
     when the slab is full does the domain attempt to park it on the
     shared partial-slab stack — with a SINGLE compare_and_set attempt.
     If the attempt loses, the slab simply stays active and the park is
     retried at the next boundary; nothing spins.
   - [alloc_chain] pops the active slab with plain writes. Only when it
     is dry does the domain attempt to adopt a parked slab — again one
     CAS attempt; losing means "behave as a miss" (the caller bump-
     allocates fresh nodes, which in OCaml is the minor heap doing the
     chunk carving for us). No operation ever loops on a shared atomic,
     so every path is wait-free, and the common paths touch no shared
     cache line at all.

   Cross-domain CAS accounting: at most one CAS attempt per
   [slab_chains] chains, and none while a domain's frees and allocations
   balance within its active slab. `sec_bench alloc` measures the tally
   (docs/PERF.md, "Allocator").

   Nodes are GC-heap values here ('a is the structure's node record);
   they migrate freely between slabs, so every free is owner-local by
   construction. The {!Arena} submodule is the off-heap variant: slots
   of a Bigarray with integer-handle indirection, where slots are pinned
   to the slab that carved them and remote frees are batched per-slab —
   see its header. *)

[@@@progress "lock_free"]

(* Process-wide tallies across every slab and arena instance, mirroring
   {!Magazine.Global}: the harness benchmarks structures through the
   opaque {!Sec_spec.Stack_intf.S} face, and these counters are how
   `sec_bench` reports slab traffic anyway. Cells are per-thread
   (written only by their owning thread; read after worker join) and
   [reset] brackets one measured run. [pooled]/[capacity] are signed
   deltas — a chain parked by one thread and adopted by another nets to
   zero across cells — summed by [snapshot] into a gauge. *)
module Global = struct
  type cell = {
    mutable parks : int;
        [@plain_ok "one cell per thread id; read only after worker join"]
    mutable park_fails : int; [@plain_ok "see [parks]"]
    mutable adopts : int; [@plain_ok "see [parks]"]
    mutable adopt_fails : int; [@plain_ok "see [parks]"]
    mutable chain_puts : int; [@plain_ok "see [parks]"]
    mutable chain_gets : int; [@plain_ok "see [parks]"]
    mutable fresh : int; [@plain_ok "see [parks]"]
    mutable remote_batches : int; [@plain_ok "see [parks]"]
    mutable remote_cas : int; [@plain_ok "see [parks]"]
    mutable remote_cas_retries : int; [@plain_ok "see [parks]"]
    mutable pooled : int; [@plain_ok "see [parks]"]
    mutable capacity : int; [@plain_ok "see [parks]"]
  }

  let fresh_cell () =
    {
      parks = 0;
      park_fails = 0;
      adopts = 0;
      adopt_fails = 0;
      chain_puts = 0;
      chain_gets = 0;
      fresh = 0;
      remote_batches = 0;
      remote_cas = 0;
      remote_cas_retries = 0;
      pooled = 0;
      capacity = 0;
    }

  (* Sized past any topology in lib/sim/topology.ml; ids are masked so a
     stray tid can never escape the array. *)
  let cells = Array.init 256 (fun _ -> fresh_cell ())
  let cell tid = cells.(tid land 255)

  type snapshot = {
    parks : int;  (** full slabs parked on the shared partial stack *)
    park_fails : int;  (** park CAS attempts that lost (slab kept local) *)
    adopts : int;  (** parked slabs adopted by a dry domain *)
    adopt_fails : int;  (** adopt CAS attempts that lost (treated as miss) *)
    chain_puts : int;  (** chains freed into slabs *)
    chain_gets : int;  (** chains taken out of slabs *)
    fresh : int;  (** misses: the caller had to construct fresh nodes *)
    remote_batches : int;  (** arena remote-free batches spliced *)
    remote_cas : int;  (** arena remote-splice CAS attempts *)
    remote_cas_retries : int;  (** arena remote-splice CAS retries *)
    pooled : int;  (** nodes currently held inside slabs (gauge) *)
    capacity : int;  (** node capacity of every slab created (gauge) *)
  }

  let reset () =
    Array.iter
      (fun (c : cell) ->
        c.parks <- 0;
        c.park_fails <- 0;
        c.adopts <- 0;
        c.adopt_fails <- 0;
        c.chain_puts <- 0;
        c.chain_gets <- 0;
        c.fresh <- 0;
        c.remote_batches <- 0;
        c.remote_cas <- 0;
        c.remote_cas_retries <- 0;
        c.pooled <- 0;
        c.capacity <- 0)
      cells

  let snapshot () =
    Array.fold_left
      (fun (acc : snapshot) (c : cell) ->
        {
          parks = acc.parks + c.parks;
          park_fails = acc.park_fails + c.park_fails;
          adopts = acc.adopts + c.adopts;
          adopt_fails = acc.adopt_fails + c.adopt_fails;
          chain_puts = acc.chain_puts + c.chain_puts;
          chain_gets = acc.chain_gets + c.chain_gets;
          fresh = acc.fresh + c.fresh;
          remote_batches = acc.remote_batches + c.remote_batches;
          remote_cas = acc.remote_cas + c.remote_cas;
          remote_cas_retries = acc.remote_cas_retries + c.remote_cas_retries;
          pooled = acc.pooled + c.pooled;
          capacity = acc.capacity + c.capacity;
        })
      {
        parks = 0;
        park_fails = 0;
        adopts = 0;
        adopt_fails = 0;
        chain_puts = 0;
        chain_gets = 0;
        fresh = 0;
        remote_batches = 0;
        remote_cas = 0;
        remote_cas_retries = 0;
        pooled = 0;
        capacity = 0;
      }
      cells

  (* Every cross-domain CAS the slab layer issued: park and adopt
     attempts (successes and losses) plus arena remote splices. The
     number `sec_bench alloc` reports per phase. *)
  let cas_attempts (s : snapshot) =
    s.parks + s.park_fails + s.adopts + s.adopt_fails + s.remote_cas

  let cas_retries (s : snapshot) =
    s.park_fails + s.adopt_fails + s.remote_cas_retries

  let occupancy (s : snapshot) =
    if s.capacity <= 0 then 0.0
    else float_of_int s.pooled /. float_of_int s.capacity
end

(* Distinguishes arena (and slab) instances in the reclaim checker's
   shadow heap: each {!Arena.create} takes a block of slab uids. Plain
   ref: arenas are created during single-threaded set-up, before workers
   run (the same assumption every [create] in this library makes). *)
let next_slab_uid = ref 1

let take_slab_uids n =
  let base = !next_slab_uid in
  next_slab_uid := base + n;
  base

(* Outside {!Make} so every instantiation shares one nominal type (and
   interfaces can name them without fixing the substrate), mirroring
   {!Magazine.stats}. *)
type stats = {
  parks : int;
  park_fails : int;
  adopts : int;
  adopt_fails : int;
  chain_puts : int;
  chain_gets : int;
  fresh : int;
  pooled : int;  (** nodes currently inside this instance's slabs *)
  parked_slabs : int;
}

type arena_stats = {
  carved : int;  (** slabs bump-carved from the chunk *)
  live : int;  (** slots currently allocated *)
  remote_frees : int;
  remote_batches : int;
  adopted : int;  (** slots recovered from remote inboxes *)
}

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)
  module Chk = Sec_analysis.Reclaim_checker

  (* One slab: a bounded bundle of whole chains. Owner-private while
     active (plain fields), immutable-in-practice while parked: the
     parking store-release is the CAS on [partial], and the adopting
     domain's CAS acquires it — the usual publication idiom. *)
  type 'a slab = {
    mutable chains : (int * 'a list) list;
        [@plain_ok
          "owner-private while active; ownership is transferred wholesale \
           by the single CAS on the shared partial-slab stack"]
    mutable n_chains : int; [@plain_ok "see [chains]"]
    mutable pooled : int; [@plain_ok "see [chains]"]
  }

  (* Per-domain state: only [tid] touches its dstate (the contract
     {!Magazine} and EBR already impose). *)
  type 'a dstate = {
    mutable active : 'a slab;
        [@plain_ok "the whole dstate record is private to its owning thread"]
    (* per-thread tallies, folded by [stats] *)
    mutable s_parks : int; [@plain_ok "thread-private, see [active]"]
    mutable s_park_fails : int; [@plain_ok "thread-private, see [active]"]
    mutable s_adopts : int; [@plain_ok "thread-private, see [active]"]
    mutable s_adopt_fails : int; [@plain_ok "thread-private, see [active]"]
    mutable s_chain_puts : int; [@plain_ok "thread-private, see [active]"]
    mutable s_chain_gets : int; [@plain_ok "thread-private, see [active]"]
    mutable s_fresh : int; [@plain_ok "thread-private, see [active]"]
  }

  type 'a t = {
    dstates : 'a dstate array;
    chain_len : int; (* nodes per chain = the magazine capacity above *)
    slab_chains : int; (* chains per slab *)
    partial : 'a slab list A.t; (* parked (full) slabs *)
  }

  (* [nodes] = slab_chains * chain_len: the Global capacity gauge is in
     node units, matching [pooled], so occupancy is a plain ratio. *)
  let fresh_slab ~nodes tid =
    let c = Global.cell tid in
    c.Global.capacity <- c.Global.capacity + nodes;
    { chains = []; n_chains = 0; pooled = 0 }

  let default_chain_len = 64
  let default_slab_chains = 4

  let create ?(chain_len = default_chain_len)
      ?(slab_chains = default_slab_chains) ?(max_threads = 64) () =
    if chain_len < 1 then
      invalid_arg "Slab.create: chain_len must be at least 1";
    if slab_chains < 1 then
      invalid_arg "Slab.create: slab_chains must be at least 1";
    let nodes = chain_len * slab_chains in
    {
      dstates =
        Array.init max_threads (fun tid ->
            {
              active = fresh_slab ~nodes tid;
              s_parks = 0;
              s_park_fails = 0;
              s_adopts = 0;
              s_adopt_fails = 0;
              s_chain_puts = 0;
              s_chain_gets = 0;
              s_fresh = 0;
            });
      chain_len;
      slab_chains;
      partial = A.make_padded [];
    }

  let chain_len t = t.chain_len

  (* Park the full active slab: ONE CAS attempt. Losing is fine — the
     slab stays active (temporarily above its nominal bound) and the
     next boundary crossing tries again. Never loops: wait-free. *)
  let try_park t d ~tid =
    let c = Global.cell tid in
    let cur = A.get t.partial in
    if A.compare_and_set t.partial cur (d.active :: cur) then begin
      d.s_parks <- d.s_parks + 1;
      c.Global.parks <- c.Global.parks + 1;
      d.active <- fresh_slab ~nodes:(t.chain_len * t.slab_chains) tid
    end
    else begin
      d.s_park_fails <- d.s_park_fails + 1;
      c.Global.park_fails <- c.Global.park_fails + 1
    end

  (* Adopt a parked slab: ONE CAS attempt. Losing (or an empty partial
     stack) means the caller treats it as a miss and constructs fresh
     nodes — allocation pressure instead of waiting. Never loops. *)
  let try_adopt t d ~tid =
    let c = Global.cell tid in
    match A.get t.partial with
    | [] -> false
    | (s :: rest) as cur ->
        if A.compare_and_set t.partial cur rest then begin
          d.s_adopts <- d.s_adopts + 1;
          c.Global.adopts <- c.Global.adopts + 1;
          (* The active slab is dry (that is why we are here); replace
             it wholesale with the adopted one. *)
          d.active <- s;
          true
        end
        else begin
          d.s_adopt_fails <- d.s_adopt_fails + 1;
          c.Global.adopt_fails <- c.Global.adopt_fails + 1;
          false
        end

  (* [free_chain t ~tid (len, chain)] — O(1): the chain is consed as a
     unit, never walked. Plain owner-private writes; at most one CAS
     when the slab fills. *)
  let free_chain t ~tid ((len, _) as chain) =
    let d = t.dstates.(tid) in
    let c = Global.cell tid in
    d.active.chains <- chain :: d.active.chains;
    d.active.n_chains <- d.active.n_chains + 1;
    d.active.pooled <- d.active.pooled + len;
    d.s_chain_puts <- d.s_chain_puts + 1;
    c.Global.chain_puts <- c.Global.chain_puts + 1;
    c.Global.pooled <- c.Global.pooled + len;
    if d.active.n_chains >= t.slab_chains then try_park t d ~tid

  (* [alloc_chain t ~tid] — O(1) plain pop; at most one CAS when dry.
     [None] means the caller must construct a fresh chain (bump
     allocation: the minor heap is the chunk). *)
  let alloc_chain t ~tid =
    let d = t.dstates.(tid) in
    let c = Global.cell tid in
    let take () =
      match d.active.chains with
      | ((len, _) as chain) :: rest ->
          d.active.chains <- rest;
          d.active.n_chains <- d.active.n_chains - 1;
          d.active.pooled <- d.active.pooled - len;
          d.s_chain_gets <- d.s_chain_gets + 1;
          c.Global.chain_gets <- c.Global.chain_gets + 1;
          c.Global.pooled <- c.Global.pooled - len;
          Some chain
      | [] -> None
    in
    match take () with
    | Some _ as got -> got
    | None ->
        if try_adopt t d ~tid then take ()
        else begin
          d.s_fresh <- d.s_fresh + 1;
          c.Global.fresh <- c.Global.fresh + 1;
          None
        end

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                     *)

  type nonrec stats = stats = {
    parks : int;
    park_fails : int;
    adopts : int;
    adopt_fails : int;
    chain_puts : int;
    chain_gets : int;
    fresh : int;
    pooled : int;
    parked_slabs : int;
  }

  let stats t =
    let parked = A.get t.partial in
    let pooled_parked =
      List.fold_left (fun acc (s : _ slab) -> acc + s.pooled) 0 parked
    in
    Array.fold_left
      (fun (acc : stats) (d : _ dstate) ->
        {
          acc with
          parks = acc.parks + d.s_parks;
          park_fails = acc.park_fails + d.s_park_fails;
          adopts = acc.adopts + d.s_adopts;
          adopt_fails = acc.adopt_fails + d.s_adopt_fails;
          chain_puts = acc.chain_puts + d.s_chain_puts;
          chain_gets = acc.chain_gets + d.s_chain_gets;
          fresh = acc.fresh + d.s_fresh;
          pooled = acc.pooled + d.active.pooled;
        })
      {
        parks = 0;
        park_fails = 0;
        adopts = 0;
        adopt_fails = 0;
        chain_puts = 0;
        chain_gets = 0;
        fresh = 0;
        pooled = pooled_parked;
        parked_slabs = List.length parked;
      }
      t.dstates

  (* ================================================================ *)
  (* Off-heap arena: fixed-size int slots in a Bigarray, integer-handle
     indirection, per-slab batched remote frees.

     Layout: [max_slabs * slab_slots] slots, each two off-heap words —
     a value and a link. The link threads the per-domain private
     free-list while the slot is free (and remote-free batches in
     flight); a structure built over the arena (see
     {!Treiber_arena.Make}) uses it as the node's next-handle while the
     slot is live. -1 is the nil handle throughout.

     Ownership: a slab belongs to the domain that carved it (bump-
     carved from the chunk by one wait-free fetch_and_add on
     [next_slab]). Frees by the owner push the private free-list with
     plain stores. Frees by any other domain are *batched per-slab* in
     a small direct-mapped outbox and spliced into the owning slab's
     remote inbox with one CAS per batch: one distributed CAS per
     [remote_batch] frees instead of one shared cell per free.
     The owner adopts a whole inbox with a single [exchange] (wait-free)
     when its free-list runs dry.

     The payload is a bare int — OCaml's uniform representation puts
     any other payload behind a heap pointer the GC must trace, and
     rule 3 confines [Obj] tricks to lib/prim/padding.ml, so the honest
     off-heap arena is monomorphic (docs/PERF.md, "Allocator").

     The reclaim checker's shadow heap follows slot lifecycles through
     [note_slot_alloc]/[note_slot_free]/[note_slab_release]: handing
     out a live slot or allocating from a released arena reports
     [Alloc_from_live_slab]; freeing a free slot reports
     [Slab_double_free] (docs/ANALYSIS.md). *)

  module Arena = struct
    type outbox = {
      mutable o_slab : int;
          [@plain_ok "outboxes are per-domain, touched only by their owner"]
      mutable o_head : int; [@plain_ok "see [o_slab]"]
      mutable o_tail : int; [@plain_ok "see [o_slab]"]
      mutable o_n : int; [@plain_ok "see [o_slab]"]
    }

    type adstate = {
      mutable free_head : int;
          [@plain_ok
            "per-domain free-list head; remote traffic goes through the \
             per-slab inbox atomics"]
      mutable owned : int list; [@plain_ok "thread-private, see [free_head]"]
      outboxes : outbox array; (* direct-mapped by slab index *)
      (* per-thread tallies *)
      mutable a_carved : int; [@plain_ok "thread-private, see [free_head]"]
      mutable a_remote_frees : int;
          [@plain_ok "thread-private, see [free_head]"]
      mutable a_remote_batches : int;
          [@plain_ok "thread-private, see [free_head]"]
      mutable a_adopted : int; [@plain_ok "thread-private, see [free_head]"]
    }

    type t = {
      values : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      links : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      chk : int array; (* shadow-heap ids of live slots; 0 = untracked *)
      owner : int array;
          (* writing domain of each slab: stored by the carver before any
             handle from the slab escapes (handles escape only through the
             structure's atomics, which order the plain store) *)
      remote : int A.t array; (* per-slab remote-free inbox head, -1 empty *)
      adstates : adstate array;
      next_slab : int A.t; (* bump pointer over the chunk, in slabs *)
      slab_slots : int;
      max_slabs : int;
      remote_batch : int;
      uid_base : int; (* checker slab ids: uid_base + slab index *)
      mutable released : bool;
          [@plain_ok
            "set once at end-of-life on the releasing thread; concurrent \
             operations against a released arena are exactly the bug the \
             reclaim checker reports"]
    }

    let nil = -1
    let default_slab_slots = 256
    let default_max_slabs = 256
    let default_remote_batch = 64
    let outbox_ways = 8

    let create ?(slab_slots = default_slab_slots)
        ?(max_slabs = default_max_slabs) ?(max_threads = 64)
        ?(remote_batch = default_remote_batch) () =
      if slab_slots < 1 then
        invalid_arg "Slab.Arena.create: slab_slots must be at least 1";
      if max_slabs < 1 then
        invalid_arg "Slab.Arena.create: max_slabs must be at least 1";
      if remote_batch < 1 then
        invalid_arg "Slab.Arena.create: remote_batch must be at least 1";
      let slots = slab_slots * max_slabs in
      {
        values = Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots;
        links = Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots;
        chk = Array.make slots 0;
        owner = Array.make max_slabs (-1);
        remote = Array.init max_slabs (fun _ -> A.make_padded nil);
        adstates =
          Array.init max_threads (fun _ ->
              {
                free_head = nil;
                owned = [];
                outboxes =
                  Array.init outbox_ways (fun _ ->
                      { o_slab = -1; o_head = nil; o_tail = nil; o_n = 0 });
                a_carved = 0;
                a_remote_frees = 0;
                a_remote_batches = 0;
                a_adopted = 0;
              });
        next_slab = A.make_padded 0;
        slab_slots;
        max_slabs;
        remote_batch;
        uid_base = take_slab_uids max_slabs;
        released = false;
      }

    let slab_slots t = t.slab_slots
    let slab_of t h = h / t.slab_slots
    let uid_of t h = t.uid_base + slab_of t h
    let get_value t h = Bigarray.Array1.get t.values h
    let set_value t h v = Bigarray.Array1.set t.values h v
    let get_link t h = Bigarray.Array1.get t.links h
    let set_link t h l = Bigarray.Array1.set t.links h l
    let chk_id t h = t.chk.(h)

    (* Carve one fresh slab out of the chunk: a single wait-free
       fetch_and_add claims it; the slots are threaded onto the private
       free-list with plain stores (nothing from the slab has escaped
       yet). *)
    let carve t ~tid d =
      let s = A.fetch_and_add t.next_slab 1 in
      if s >= t.max_slabs then
        failwith
          (Printf.sprintf
             "Slab.Arena: chunk exhausted (%d slabs of %d slots): size the \
              arena past the structure's live-node bound"
             t.max_slabs t.slab_slots);
      t.owner.(s) <- tid;
      d.owned <- s :: d.owned;
      d.a_carved <- d.a_carved + 1;
      let base = s * t.slab_slots in
      for i = 0 to t.slab_slots - 1 do
        set_link t (base + i)
          (if i = t.slab_slots - 1 then d.free_head else base + i + 1)
      done;
      d.free_head <- base

    (* Adopt every batched remote free parked on this domain's slabs:
       one wait-free [exchange] per owned slab, splicing each inbox list
       onto the private free-list. Called only when the free-list is
       dry, so the walk to each batch's tail is amortised O(1) per
       recovered slot. *)
    let adopt_remote t ~tid:_ d =
      List.iter
        (fun s ->
          let head = A.exchange t.remote.(s) nil in
          if head <> nil then begin
            (* One walk finds the tail and sizes the batch. The slots
               were already counted pooled when their freer spliced the
               batch in ([flush_outbox]); adoption only moves them to
               this domain's private list, so no gauge update here. *)
            let rec walk h n =
              if get_link t h = nil then (h, n + 1)
              else walk (get_link t h) (n + 1)
            in
            let last, n = walk head 0 in
            set_link t last d.free_head;
            d.free_head <- head;
            d.a_adopted <- d.a_adopted + n
          end)
        d.owned

    let alloc t ~tid =
      let d = t.adstates.(tid) in
      let c = Global.cell tid in
      if d.free_head = nil then begin
        adopt_remote t ~tid d;
        if d.free_head = nil then begin
          carve t ~tid d;
          c.Global.capacity <- c.Global.capacity + t.slab_slots;
          c.Global.pooled <- c.Global.pooled + t.slab_slots
        end
      end;
      let h = d.free_head in
      d.free_head <- get_link t h;
      c.Global.pooled <- c.Global.pooled - 1;
      set_link t h nil;
      t.chk.(h) <-
        Chk.note_slot_alloc ~fiber:tid ~slab:(uid_of t h)
          ~slot:(h mod t.slab_slots);
      h

    (* Splice one outbox batch into its slab's remote inbox. The only
       retry loop in the arena — and it runs once per [remote_batch]
       frees, against a per-slab cell rather than one global cell, so
       contention (and the retry tally) stays what `sec_bench alloc`
       measures. *)
    let flush_outbox t ~tid (o : outbox) =
      if o.o_n > 0 then begin
        let d = t.adstates.(tid) in
        let c = Global.cell tid in
        let inbox = t.remote.(o.o_slab) in
        let backoff = Backoff.create () in
        let rec attempt () =
          let cur = A.get inbox in
          set_link t o.o_tail cur;
          c.Global.remote_cas <- c.Global.remote_cas + 1;
          if A.compare_and_set inbox cur o.o_head then ()
          else begin
            c.Global.remote_cas_retries <- c.Global.remote_cas_retries + 1;
            Backoff.once backoff;
            attempt ()
          end
        in
        attempt ();
        d.a_remote_batches <- d.a_remote_batches + 1;
        c.Global.remote_batches <- c.Global.remote_batches + 1;
        c.Global.pooled <- c.Global.pooled + o.o_n;
        o.o_slab <- -1;
        o.o_head <- nil;
        o.o_tail <- nil;
        o.o_n <- 0
      end

    let free t ~tid h =
      Chk.note_slot_free ~fiber:tid ~slab:(uid_of t h)
        ~slot:(h mod t.slab_slots);
      t.chk.(h) <- 0;
      let d = t.adstates.(tid) in
      let c = Global.cell tid in
      let s = slab_of t h in
      if t.owner.(s) = tid then begin
        (* Owner-local: plain stores, no shared cache line touched. *)
        set_link t h d.free_head;
        d.free_head <- h;
        c.Global.pooled <- c.Global.pooled + 1
      end
      else begin
        (* Remote: batch in the per-slab outbox; one CAS per batch. *)
        let o = d.outboxes.(s land (outbox_ways - 1)) in
        if o.o_n > 0 && o.o_slab <> s then flush_outbox t ~tid o;
        set_link t h o.o_head;
        if o.o_n = 0 then begin
          o.o_slab <- s;
          o.o_tail <- h
        end;
        o.o_head <- h;
        o.o_n <- o.o_n + 1;
        d.a_remote_frees <- d.a_remote_frees + 1;
        if o.o_n >= t.remote_batch then flush_outbox t ~tid o
      end

    (* Drain this domain's outboxes (end of run, or before a blocking
       wait): remote frees must not linger unpublished. *)
    let flush_remote t ~tid =
      Array.iter (flush_outbox t ~tid) t.adstates.(tid).outboxes

    (* End the arena's life: every live handle becomes dangling, which
       the shadow heap models by reporting subsequent allocation
       ([Alloc_from_live_slab]) and flagging accesses through stale chk
       ids ([Use_after_reclaim]). *)
    let release t ~tid =
      flush_remote t ~tid;
      let carved = A.get t.next_slab in
      for s = 0 to min carved t.max_slabs - 1 do
        Chk.note_slab_release ~fiber:tid ~slab:(t.uid_base + s)
      done;
      t.released <- true

    let released t = t.released
    let carved_slots t = min (A.get t.next_slab) t.max_slabs * t.slab_slots

    let live t =
      let pooled =
        Array.fold_left
          (fun acc (d : adstate) ->
            let rec count h acc =
              if h = nil then acc else count (get_link t h) (acc + 1)
            in
            let outboxed =
              Array.fold_left (fun a (o : outbox) -> a + o.o_n) 0 d.outboxes
            in
            count d.free_head acc + outboxed)
          0 t.adstates
      in
      let remote =
        Array.fold_left
          (fun acc inbox ->
            let rec count h acc =
              if h = nil then acc else count (get_link t h) (acc + 1)
            in
            count (A.get inbox) acc)
          0 t.remote
      in
      carved_slots t - pooled - remote

    let occupancy t =
      let cap = carved_slots t in
      if cap = 0 then 0.0 else float_of_int (live t) /. float_of_int cap

    type stats = arena_stats = {
      carved : int;
      live : int;
      remote_frees : int;
      remote_batches : int;
      adopted : int;
    }

    let stats t =
      Array.fold_left
        (fun (acc : stats) (d : adstate) ->
          {
            acc with
            carved = acc.carved + d.a_carved;
            remote_frees = acc.remote_frees + d.a_remote_frees;
            remote_batches = acc.remote_batches + d.a_remote_batches;
            adopted = acc.adopted + d.a_adopted;
          })
        {
          carved = 0;
          live = live t;
          remote_frees = 0;
          remote_batches = 0;
          adopted = 0;
        }
        t.adstates
  end
end
