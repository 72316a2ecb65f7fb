(* Named constructors for every tested algorithm, as substrate-polymorphic
   MAKER functors, so the same entry drives the native runner and the
   simulator. Each entry also declares its progress class, which
   [test/test_progress.ml] checks against the suspension classifier's
   mechanical verdict ({!Sec_sim.Explore.classify}). *)

module type MAKER = Sec_spec.Stack_intf.MAKER

type progress_class = Sec_sim.Explore.progress_class = Blocking | Lock_free

(* The sequential specification an entry's concurrent histories must
   refine (checked by the refinement prong, lib/analysis/refine):
   [Stack_sem] is strict LIFO linearizability against [Lin_check];
   [Pool_sem] relaxes order away — every pop returns some value pushed
   (or prefilled) and not yet consumed, pops may report empty only
   consistently with real time. The pool deliberately trades the former
   for the latter. Each declaration matches the module's [@@@spec] lint
   declaration (rule 9, spec-class). *)
type semantics = Stack_sem | Pool_sem

type entry = {
  name : string;
  maker : (module MAKER);
  progress : progress_class;
      (* the class the algorithm's protocol actually provides, matching
         the module's [@@@progress] lint declaration; for SEC this is the
         class of the *combining protocol* (announcers in one batch wait
         on their freezer/combiner), even though operations that land
         alone on a shard — the sharded/elimination fast path — survive
         any single suspension (see test_progress.ml) *)
  spec : semantics;
      (* the sequential spec the structure refines, matching the module's
         [@@@spec] lint declaration; drives which default properties the
         refinement prong applies (test/test_refine.ml, sec_bench check) *)
}

let semantics_to_string = function
  | Stack_sem -> "stack"
  | Pool_sem -> "pool"

(* SEC under a fixed configuration, with a display label. *)
module Sec_configured (C : sig
  val label : string
  val config : Sec_core.Config.t
end)
(P : Sec_prim.Prim_intf.S) : Sec_spec.Stack_intf.S = struct
  module M = Sec_core.Sec_stack.Make (P)

  type 'a t = 'a M.t

  let name = C.label
  let create ?max_threads () = M.create_with ~config:C.config ?max_threads ()
  let push = M.push
  let pop = M.pop
  let peek = M.peek
end

let sec_configured ~label ~config =
  let module C = struct
    let label = label
    let config = config
  end in
  {
    name = label;
    maker = (module Sec_configured (C) : MAKER);
    progress = Blocking;
    spec = Stack_sem;
  }

let sec_with ?(freeze_backoff = Sec_core.Config.default.freeze_backoff)
    ~aggregators ~label () =
  sec_configured ~label
    ~config:
      {
        Sec_core.Config.default with
        Sec_core.Config.num_aggregators = aggregators;
        freeze_backoff;
      }

let sec = sec_with ~aggregators:2 ~label:"SEC" ()

let treiber =
  {
    name = "TRB";
    maker = (module Sec_stacks.Treiber.Make : MAKER);
    progress = Lock_free;
    spec = Stack_sem;
  }

let eb =
  {
    name = "EB";
    maker = (module Sec_stacks.Eb_stack.Make : MAKER);
    progress = Lock_free;
    spec = Stack_sem;
  }

let fc =
  {
    name = "FC";
    maker = (module Sec_stacks.Fc_stack.Make : MAKER);
    progress = Blocking;
    spec = Stack_sem;
  }

let cc =
  {
    name = "CC";
    maker = (module Sec_stacks.Cc_stack.Make : MAKER);
    progress = Blocking;
    spec = Stack_sem;
  }

let tsi =
  {
    name = "TSI";
    maker = (module Sec_stacks.Ts_stack.Make : MAKER);
    progress = Lock_free;
    spec = Stack_sem;
  }

let lock =
  {
    name = "LCK";
    maker = (module Sec_stacks.Lock_stack.Make : MAKER);
    progress = Blocking;
    spec = Stack_sem;
  }

let hsynch =
  {
    name = "HS";
    maker = (module Sec_stacks.H_stack.Make : MAKER);
    progress = Blocking;
    spec = Stack_sem;
  }

let treiber_ebr =
  {
    name = "TRB-EBR";
    maker = (module Sec_reclaim.Treiber_ebr.Make : MAKER);
    progress = Lock_free;
    spec = Stack_sem;
  }

let tsi_ebr =
  {
    name = "TSI-EBR";
    maker = (module Sec_reclaim.Ts_stack_ebr.Make : MAKER);
    progress = Lock_free;
    spec = Stack_sem;
  }

(* The six algorithms of the paper's comparison (Figure 2). *)
let paper_set = [ sec; treiber; eb; fc; cc; tsi ]

(* Variants that pay for real (epoch-based) node reclamation, like the
   C++ artifact does — benchmark these against their GC-backed twins to
   expose the protocol cost (Section 4 methodology). *)
let reclaimed_set = [ treiber_ebr; tsi_ebr ]

(* Extensions beyond the paper: spinlock baseline, hierarchical
   (NUMA-aware) combining and the EBR-reclaimed variants. *)
let all = paper_set @ [ lock; hsynch ] @ reclaimed_set

(* SEC_Agg1 .. SEC_Agg5, the self-comparison of Figure 4. *)
let sec_aggregator_sweep =
  List.map
    (fun k -> sec_with ~aggregators:k ~label:(Printf.sprintf "SEC_Agg%d" k) ())
    [ 1; 2; 3; 4; 5 ]

(* The SEC-style pool behind the common stack interface ([peek] is always
   [None] — pools do not expose it), declared [Pool_sem]: its histories
   refine a bag, not a LIFO. *)
let pool_with ~aggregators ~label =
  let module M (P : Sec_prim.Prim_intf.S) = struct
    module Pool = Sec_core.Sec_pool.Make (P)

    type 'a t = 'a Pool.t

    let name = label
    let create ?max_threads () = Pool.create ~aggregators ?max_threads ()
    let push = Pool.push
    let pop = Pool.pop
    let peek _ ~tid:_ = None
  end in
  {
    name = label;
    maker = (module M : MAKER);
    progress = Blocking (* SEC's combining protocol, same as [sec] *);
    spec = Pool_sem;
  }

(* Kept out of [all] so the stack-only benchmark sets and the progress
   suite are unchanged; the refinement prong picks it up through
   [refine_set]. *)
let pool = pool_with ~aggregators:2 ~label:"SEC-POOL"

(* Everything the refinement prong checks by default. *)
let refine_set = all @ [ pool ]

(* Seeded correctness mutants (Config.mutation): SEC with a historical or
   plausible bug reintroduced, as known-bad targets for the refinement
   prong's detection and shrinking tests. One aggregator, so every
   operation funnels into the same batch and the bugs are reachable with
   two or three fibers. Never part of [all] or [find]. *)
let mutants =
  [
    sec_configured ~label:"SEC!OVF"
      ~config:
        Sec_core.Config.(
          with_mutation Batch_overflow (with_aggregators 1 default));
    sec_configured ~label:"SEC!POP"
      ~config:
        Sec_core.Config.(
          with_mutation Pop_reorder (with_aggregators 1 default));
  ]

(* "SEC+MAG" names plain SEC. It stays only because perfbench's
   [native-mixed] workload still looks SEC up by that name, until
   ROADMAP's benchmark item removes it. *)
let find = function
  | "SEC+MAG" -> sec
  | name -> (
      match List.find_opt (fun e -> e.name = name) (all @ sec_aggregator_sweep) with
      | Some e -> e
      | None -> invalid_arg ("unknown algorithm: " ^ name))
