(* Deterministic discrete-event simulator of a NUMA multicore.

   Each simulated hardware thread is a fiber with its own virtual clock.
   Every *atomic* access first waits until its fiber is the earliest,
   then charges cycles from the {!Cache_model}. An access re-schedules
   after its charge, so its value takes effect at its completion. A
   read hit changes no line state, so when no write can land on the
   line before it completes, the fiber runs on without the switch: the
   value it reads then is the one at completion. The fiber with the
   smallest virtual time always runs next, so shared-memory conflicts
   are resolved in virtual-time order, and the makespan of a run is
   [max] over fiber end times — exactly a parallel discrete-event
   simulation.

   Determinism: a fixed seed yields an identical schedule, identical final
   state and identical statistics. The optional [jitter] parameter adds
   seeded random delays to accesses, which perturbs interleavings — the
   test suite sweeps seeds to explore schedules. [stats.schedule_digest]
   folds every rescheduling decision, so "identical schedule" is a
   checkable claim, not an assumption.

   Flat core: per-fiber state (clock, core, socket, RNG, parked
   continuation, unstarted body) lives in struct-of-arrays indexed by
   [fid + Heap.fid_bias], and the ready queue is a keys-only binary heap
   of packed [(time, fid)] ints — the fiber index rides in the key's low
   bits, so scheduling touches no boxed payloads at all. Primitives
   reach the loop only through the {!Sim_effects.dispatch} record
   installed for the run: direct functions that charge the access
   inline and perform the private [Switch] effect only when an earlier
   fiber must actually run.

   IMPORTANT implementation invariant: every handler branch, [schedule]
   and [retc] must end in a TAIL call ([continue]/[schedule]/[run_fiber]);
   this is what keeps the stack flat across millions of context switches. *)

open Sim_effects

exception Deadlock
exception Not_in_simulation = Sim_effects.Not_in_simulation

(* ------------------------------------------------------------------ *)
(* Binary min-heap of runnable fibers, keyed by (time, fid) so that      *)
(* scheduling is deterministic.                                          *)

module Heap = struct
  (* The (time, fid) key packed into one unboxed int —
     [time * 2^fid_bits + (fid + fid_bias)]. The key *is* the whole
     entry: its low bits identify the fiber's slot in the scheduler's
     flat arrays, so the heap is a bare int array — a push allocates
     nothing, ordering is a single integer test (the packing is
     order-isomorphic to the lexicographic pair) and sifts move a hole
     instead of swapping, one key move per level, with the smaller child
     picked without a branch (see [sift_down]). Exact while
     [0 <= fid + fid_bias < 2^fid_bits] and [time < 2^(62 - fid_bits)]
     — two million fibers and ~10^12 virtual cycles, both far past any
     simulated run; [pack] rejects anything outside. *)
  let fid_bits = 21
  let fid_bias = 2 (* the main pseudo-fiber runs as fid -2 *)
  let slot_mask = (1 lsl fid_bits) - 1

  let[@inline] pack time fid =
    let f = fid + fid_bias in
    if f lsr fid_bits <> 0 || time lsr (62 - fid_bits) <> 0 then
      invalid_arg "Sim.Heap: time or fiber id exceeds the packing range";
    (time lsl fid_bits) lor f

  (* Per-event repack of an already-validated fiber's clock: the fid was
     range-checked when the fiber was spawned, and the virtual clock
     cannot reach 2^41 cycles within any feasible event budget, so the
     scheduler's inner loop skips the two range tests. *)
  let[@inline] pack_unchecked time fid = (time lsl fid_bits) lor (fid + fid_bias)

  type t = { mutable keys : int array; mutable size : int }

  let create () = { keys = [||]; size = 0 }

  (* Indices below [size] are always in bounds — [size] only grows inside
     [push] right after the capacity check — so the sift loops use
     unchecked accesses; this heap sits on the per-event hot path. *)
  let push t key =
    if t.size = Array.length t.keys then begin
      let keys = Array.make (Int.max 16 (2 * t.size)) 0 in
      Array.blit t.keys 0 keys 0 t.size;
      t.keys <- keys
    end;
    (* sift the new hole up, then write once *)
    let a = t.keys in
    let i = ref t.size in
    t.size <- t.size + 1;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let parent = (!i - 1) / 2 in
      if key < Array.unsafe_get a parent then begin
        Array.unsafe_set a !i (Array.unsafe_get a parent);
        i := parent
      end
      else sifting := false
    done;
    Array.unsafe_set a !i key

  (* The packed key of the earliest entry; -1 when empty (every real key
     is non-negative, so no option box on the per-access fast path). *)
  let[@inline] min_key t =
    if t.size = 0 then -1 else Array.unsafe_get t.keys 0

  (* Sift a root-shaped hole down past children smaller than [key], then
     drop [key] in — shared by [pop] (re-inserting the detached last
     element) and [replace_min]. Which sibling is smaller is a coin
     flip at every level, so a branch there would mispredict once per
     level; instead [m = (vr - vl) asr 62], all ones exactly when
     [vr < vl] (keys lie in [0, max_int], so no overflow), selects the
     right child's value and index. A tie keeps the left, as a
     branching sift does, and a missing right child reads as [max_int].
     The [int] annotations must stay: without them this function
     generalises to ['a array], every [<] becomes a polymorphic
     [caml_lessthan] C call, and [@inline] copies that generic body
     into every caller. *)
  let[@inline] sift_down (a : int array) n (key : int) =
    let i = ref 0 in
    let l = ref 1 in
    while !l < n do
      let vl : int = Array.unsafe_get a !l in
      let vr : int =
        if !l + 1 < n then Array.unsafe_get a (!l + 1) else max_int
      in
      let d = vr - vl in
      let m = d asr 62 in
      let v = vl + (d land m) in
      if v < key then begin
        let c = !l + (m land 1) in
        Array.unsafe_set a !i v;
        i := c;
        l := (2 * c) + 1
      end
      else l := n
    done;
    Array.unsafe_set a !i key

  let pop t =
    if t.size = 0 then -1
    else begin
      let a = t.keys in
      let top = Array.unsafe_get a 0 in
      t.size <- t.size - 1;
      let n = t.size in
      if n > 0 then sift_down a n (Array.unsafe_get a n);
      top
    end

  (* [push] + [pop] fused: replace the root with [key] and return the old
     root. Only valid when the heap is non-empty and [key] is >= the
     current min — exactly the situation of a fiber parking itself in
     favour of an earlier one, which is the common case on contended
     workloads (one sift instead of two). *)
  let replace_min t key =
    let a = t.keys in
    let top = Array.unsafe_get a 0 in
    sift_down a t.size key;
    top
end

(* ------------------------------------------------------------------ *)

(* Scheduling effects private to this loop. [Switch] is performed by the
   dispatch fast path only when an earlier fiber must run; [Await] parks
   the joiner. Both are constant constructors, so performing them
   allocates no payload, and their handler results are preallocated in
   [ctx]. *)
type _ Effect.t += Switch : unit Effect.t | Await : unit Effect.t

type handler_fn = ((unit, unit) Effect.Deep.continuation -> unit) option

type ctx = {
  topo : Topology.t;
  cache : Cache_model.t;
  (* For [hit_settled]: fibers [c], [c + phys_cores], ... share core
     [c]; a write from any other core is a transfer of at least
     [local_transfer] cycles; [jitter_span] bounds one draw of
     [jitter_extra]. *)
  phys_cores : int;
  local_transfer : int;
  jitter_span : int;
  heap : Heap.t;
  jitter : int;
  sched_rng : Sec_prim.Rng.t;
  (* Flat per-fiber state, indexed by slot = fid + Heap.fid_bias; the
     main pseudo-fiber (fid -2) is slot 0. One array per field instead
     of an array of records: the hot fields ([f_time], [f_core],
     [f_socket]) pack densely and nothing is boxed per fiber. *)
  f_time : int array;
  f_core : int array;
  f_socket : int array;
  f_rng : Sec_prim.Rng.t array;
  f_kont : (unit, unit) Effect.Deep.continuation array;
      (* parked continuation of a switched-out fiber. Unboxed (no option):
         [resume] consults [f_body] first, so a slot's continuation is
         only ever read after that fiber actually parked and wrote one.
         Unused slots hold a shared dead placeholder, and a resumed slot
         is left stale rather than cleared — fiber ids are never reused
         within a run and a *resumed* one-shot continuation pins nothing,
         so the extra write would buy nothing. *)
  f_body : (unit -> unit) option array; (* not-yet-started fiber bodies *)
  mutable current : int; (* slot of the fiber executing right now *)
  mutable next_core : int;
  mutable live_workers : int;
  mutable joiner : int; (* slot parked in [await_all], or -1 *)
  mutable joiner_k : (unit, unit) Effect.Deep.continuation option;
  mutable max_end_time : int;
  mutable events : int;
  mutable switches : int; (* parks: [Switch] performed, guard included *)
  (* A read hit skipped its switch, so the current fiber may be ahead of
     the earliest: the next access runs the ordering guard. *)
  mutable ran_on : bool;
  (* FNV-style fold over every (new_time, fid) rescheduling decision, in
     order. Two runs with equal digests took the same schedule, so the
     digest is a compact golden for "the refactor did not change one
     scheduling decision" — far stronger than comparing final stats. *)
  mutable digest : int;
  (* Packed (time, fid) key of the current fiber, written by [advance]
     whenever the ready heap is non-empty — so [park] reuses it instead
     of re-packing. Only meaningful immediately after [advance] returns
     [true]. *)
  mutable self_key : int;
  (* Cached [Heap.min_key ctx.heap], maintained at every heap mutation:
     [advance] consults it once per event, and a field read beats the
     heap's record/array chain there. -1 when the heap is empty. *)
  mutable heap_min : int;
  alloc_base : int; (* domain-local {!Sim_effects.alloc_tally} at run start *)
  (* Preallocated [effc] results for the private effects, so even the
     switch slow path allocates nothing per perform. Set right after the
     record is built — they close over it. *)
  mutable switch_h : handler_fn;
  mutable await_h : handler_fn;
}

type stats = {
  elapsed_cycles : int;  (** makespan: latest fiber end time *)
  events : int;  (** scheduling events (atomic accesses etc.) *)
  switches : int;  (** context switches: parks, the ordering guard's too *)
  traffic : Cache_model.traffic;
  fibers : int;
  allocs : int;  (** fresh hot-path allocations ([P.note_alloc] calls) *)
  cells : int;  (** cache lines created: simulated [Atomic.make]s *)
  schedule_digest : int;  (** order-sensitive hash of every (time, fid) reschedule *)
}

let[@inline] digest_mix d time fid =
  (d * 0x100000001B3) lxor ((time lsl 7) + fid + 2)

let[@inline] fid_of slot = slot - Heap.fid_bias

(* Heavy-tailed jitter: small perturbations alone cannot reorder fibers
   that queue on a busy line (the service gap absorbs them), so
   occasionally insert a delay long enough to swap turns. Out of line so
   the jitter-free [advance] body stays small. *)
let[@inline never] jitter_extra ctx =
  let extra = Sec_prim.Rng.int ctx.sched_rng (ctx.jitter + 1) in
  if Sec_prim.Rng.int ctx.sched_rng 8 = 0 then
    extra + Sec_prim.Rng.int ctx.sched_rng ((8 * ctx.jitter) + 1)
  else extra

(* Advance the current fiber's clock to [new_time] (plus seeded jitter),
   account the scheduling event, and report whether an earlier fiber is
   now due — the one decision point every scheduling primitive funnels
   through, so digest and event count stay uniform. *)
let[@inline] advance ctx new_time =
  let slot = ctx.current in
  let new_time =
    if ctx.jitter > 0 then new_time + jitter_extra ctx else new_time
  in
  Array.unsafe_set ctx.f_time slot new_time;
  ctx.events <- ctx.events + 1;
  ctx.digest <- digest_mix ctx.digest new_time (fid_of slot);
  let mk = ctx.heap_min in
  mk >= 0
  &&
  let self = Heap.pack_unchecked new_time (fid_of slot) in
  ctx.self_key <- self;
  mk < self

let[@inline] access_time ctx line kind =
  let slot = ctx.current in
  Cache_model.access ctx.cache
    ~core:(Array.unsafe_get ctx.f_core slot)
    ~socket:(Array.unsafe_get ctx.f_socket slot)
    ~line
    ~now:(Array.unsafe_get ctx.f_time slot)
    kind

let do_spawn ctx body =
  let fid = ctx.next_core in
  ctx.next_core <- fid + 1;
  let core = Topology.core_of ctx.topo fid in (* raises past the limit *)
  let socket = Topology.socket_of ctx.topo fid in
  let slot = fid + Heap.fid_bias in
  ctx.f_core.(slot) <- core;
  ctx.f_socket.(slot) <- socket;
  ctx.f_time.(slot) <- ctx.f_time.(ctx.current);
  ctx.f_rng.(slot) <- Sec_prim.Rng.split ctx.sched_rng;
  ctx.f_body.(slot) <- Some body;
  ctx.live_workers <- ctx.live_workers + 1;
  Heap.push ctx.heap (Heap.pack ctx.f_time.(slot) fid);
  ctx.heap_min <- Heap.min_key ctx.heap

(* Hand control to the fiber named by [key]'s low bits: start its
   not-yet-run body, or resume its parked continuation. The body check
   comes first so the continuation slot needs no option box — [None]
   here means the fiber has parked before and [f_kont] holds it. *)
let rec resume ctx key =
  let slot = key land Heap.slot_mask in
  ctx.current <- slot;
  match Array.unsafe_get ctx.f_body slot with
  | None -> Effect.Deep.continue (Array.unsafe_get ctx.f_kont slot) ()
  | Some body ->
      Array.unsafe_set ctx.f_body slot None;
      run_fiber ctx body

and schedule ctx =
  let key = Heap.pop ctx.heap in
  ctx.heap_min <- Heap.min_key ctx.heap;
  if key >= 0 then resume ctx key
  else
    match ctx.joiner_k with
    | Some k when ctx.live_workers = 0 ->
        let slot = ctx.joiner in
        ctx.joiner_k <- None;
        ctx.joiner <- -1;
        ctx.f_time.(slot) <- Int.max ctx.f_time.(slot) ctx.max_end_time;
        ctx.current <- slot;
        Effect.Deep.continue k ()
    | Some _ -> raise Deadlock
    | None -> () (* fully drained: unwind to [run] *)

(* Park the current fiber and hand control to the globally earliest one.
   Only reached when [advance] just returned [true], so [ctx.self_key]
   holds the parker's packed key, the heap is non-empty and its min is
   strictly earlier — exactly the precondition of [Heap.replace_min]. *)
and park ctx k =
  Array.unsafe_set ctx.f_kont ctx.current k;
  ctx.switches <- ctx.switches + 1;
  let key = Heap.replace_min ctx.heap ctx.self_key in
  ctx.heap_min <- Heap.min_key ctx.heap;
  resume ctx key

and on_return ctx =
  let slot = ctx.current in
  ctx.max_end_time <- Int.max ctx.max_end_time ctx.f_time.(slot);
  if slot <> 0 then ctx.live_workers <- ctx.live_workers - 1;
  schedule ctx

and run_fiber ctx body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> on_return ctx);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Switch -> (ctx.switch_h : ((a, _) continuation -> _) option)
          | Await -> (ctx.await_h : ((a, _) continuation -> _) option)
          | _ -> None)
    }

(* Whether every fiber on core [fid mod phys_cores] from [fid] on, the
   current one aside, is parked past [until]. Such a fiber has no write
   in flight that lands by then (it parks at its write's landing) and
   cannot start one before. *)
let rec core_quiet ctx fid ~until =
  fid >= ctx.next_core
  ||
  let slot = fid + Heap.fid_bias in
  (slot = ctx.current || Array.unsafe_get ctx.f_time slot > until)
  && core_quiet ctx (fid + ctx.phys_cores) ~until

(* Whether a read that starts at [now] and completes at [until] is a
   hit sure to read the value it would read at [until]. A read shorter
   than [local_transfer] moved no line, so it was a hit. A write lands
   on the line either as a transfer, which occupies it ([busy_until],
   plus the writer's jitter) and takes longer than the hit, or as an L1
   write by a fiber on the owner core. So: no transfer may be in
   flight, and every fiber on the owner core must be parked past
   [until]. The main pseudo-fiber (core -2) writes nothing while it
   waits in [await_all]. The one case this cannot see: a fiber that
   takes the line over during the hit, whose SMT sibling then writes it
   as an L1 hit before [until]. *)
let hit_settled ctx line ~now ~until =
  until - now < ctx.local_transfer
  && Cache_model.busy_until line + ctx.jitter_span < now
  &&
  let owner = Cache_model.owner line in
  if owner >= 0 then core_quiet ctx owner ~until
  else
    owner = -1 || ctx.current = 0 || ctx.joiner = 0
    || Array.unsafe_get ctx.f_time 0 > until

(* The direct-call implementations {!Sim_effects.Prim} dispatches to for
   the duration of a run. A non-scheduling primitive is a plain read; a
   scheduling one charges its cycles inline and performs an effect only
   when control must actually move. *)
let dispatch_of ctx =
  {
    d_new_loc =
      (fun () ->
        Cache_model.new_line ctx.cache ~core:ctx.f_core.(ctx.current)
          ~socket:ctx.f_socket.(ctx.current));
    d_access =
      (fun line kind ->
        let slot = ctx.current in
        (* Ordering guard: an access is charged only once its fiber is
           the earliest. Every other primitive parks after advancing, so
           only a read hit that skipped its switch can leave the fiber
           ahead. *)
        if ctx.ran_on then begin
          ctx.ran_on <- false;
          let mk = ctx.heap_min in
          if mk >= 0 then begin
            let self =
              Heap.pack_unchecked
                (Array.unsafe_get ctx.f_time slot)
                (fid_of slot)
            in
            if mk < self then begin
              ctx.self_key <- self;
              Effect.perform Switch
            end
          end
        end;
        let now = Array.unsafe_get ctx.f_time slot in
        if advance ctx (access_time ctx line kind) then
          (* A read hit mutates no line state. When no write can land on
             the line before it completes, its value now is its value
             then, so it skips the switch: the clock advances and the
             next access's guard restores the order. *)
          match kind with
          | Cache_model.Read
            when hit_settled ctx line ~now
                   ~until:(Array.unsafe_get ctx.f_time slot) ->
              ctx.ran_on <- true
          | _ -> Effect.perform Switch);
    d_relax =
      (fun n ->
        if advance ctx (Array.unsafe_get ctx.f_time ctx.current + Int.max 1 n)
        then Effect.perform Switch);
    d_yield =
      (fun () ->
        if
          advance ctx
            (Array.unsafe_get ctx.f_time ctx.current
            + ctx.topo.Topology.costs.yield_quantum)
        then Effect.perform Switch);
    d_now = (fun () -> Int64.of_int (Array.unsafe_get ctx.f_time ctx.current));
    d_now_int = (fun () -> Array.unsafe_get ctx.f_time ctx.current);
    d_rand_int =
      (fun n -> Sec_prim.Rng.int (Array.unsafe_get ctx.f_rng ctx.current) n);
    d_rand_bits =
      (fun () -> Sec_prim.Rng.bits (Array.unsafe_get ctx.f_rng ctx.current));
    d_spawn = (fun body -> do_spawn ctx body);
    d_await_all =
      (fun () -> if ctx.live_workers > 0 then Effect.perform Await);
    d_fiber_id = (fun () -> fid_of ctx.current);
    d_num_workers = (fun () -> ctx.next_core);
  }

(* ------------------------------------------------------------------ *)
(* Public API                                                           *)

(* A dead one-shot continuation to fill [f_kont]'s never-read slots:
   captured from a throwaway fiber that performs [Switch] once. It is
   never resumed, so the placeholder costs one tiny fiber per run. *)
let dead_kont () =
  let cell = ref None in
  Effect.Deep.match_with
    (fun () -> Effect.perform Switch)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Switch ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  cell := Some (k : (unit, unit) Effect.Deep.continuation))
          | _ -> None);
    };
  match !cell with Some k -> k | None -> assert false

let run ?(seed = 42) ?(jitter = 0) ~topology f =
  let nslots = Topology.max_threads topology + Heap.fid_bias in
  let main_rng = Sec_prim.Rng.create (Int64.of_int (seed + 1)) in
  let ctx =
    {
      topo = topology;
      cache = Cache_model.create topology;
      phys_cores = Topology.physical_cores topology;
      local_transfer = topology.Topology.costs.Topology.local_transfer;
      jitter_span = 9 * jitter;
      heap = Heap.create ();
      jitter;
      sched_rng = Sec_prim.Rng.create (Int64.of_int seed);
      f_time = Array.make nslots 0;
      f_core = Array.make nslots 0;
      f_socket = Array.make nslots 0;
      f_rng = Array.make nslots main_rng;
      f_kont = Array.make nslots (dead_kont ());
      f_body = Array.make nslots None;
      current = 0;
      next_core = 0;
      live_workers = 0;
      joiner = -1;
      joiner_k = None;
      max_end_time = 0;
      events = 0;
      switches = 0;
      ran_on = false;
      digest = 0;
      self_key = 0;
      heap_min = -1;
      alloc_base = !(Sim_effects.alloc_tally ());
      switch_h = None;
      await_h = None;
    }
  in
  ctx.f_core.(0) <- -2 (* the main pseudo-fiber's off-grid core *);
  ctx.switch_h <- Some (fun k -> park ctx k);
  ctx.await_h <-
    Some
      (fun k ->
        ctx.joiner <- ctx.current;
        ctx.joiner_k <- Some k;
        schedule ctx);
  let result = ref None in
  let saved = Sim_effects.install (dispatch_of ctx) in
  Fun.protect
    ~finally:(fun () -> Sim_effects.restore saved)
    (fun () -> run_fiber ctx (fun () -> result := Some (f ())));
  match !result with
  | None -> raise Deadlock
  | Some r ->
      ( r,
        {
          elapsed_cycles = ctx.max_end_time;
          events = ctx.events;
          switches = ctx.switches;
          traffic = Cache_model.traffic ctx.cache;
          fibers = ctx.next_core;
          allocs = !(Sim_effects.alloc_tally ()) - ctx.alloc_base;
          cells = Cache_model.lines ctx.cache;
          schedule_digest = ctx.digest land max_int;
        } )

(* Routed through the dispatch like every primitive: inside a run they
   reach whichever scheduler installed it ({!Explore} rejects [spawn] and
   [await_all]); outside any run they raise [Not_in_simulation]. *)
let spawn body = (Sim_effects.dispatch ()).d_spawn body
let await_all () = (Sim_effects.dispatch ()).d_await_all ()
let fiber_id () = (Sim_effects.dispatch ()).d_fiber_id ()

(* ------------------------------------------------------------------ *)

(* The simulated substrate (re-exported from {!Sim_effects} so algorithm
   code can keep writing [Sec_sim.Sim.Prim]). *)
module Prim = Sim_effects.Prim
