(* The lock and combining baselines: a sequential stack
   ({!Sec_spec.Seq_stack}) behind an executor that applies one operation
   at a time to it; every operation, peek included, goes through the
   executor. FC (flat combining, {!Fc}) and CC (CC-Synch, {!Ccsynch}) are
   the paper's combining competitors. HS (H-Synch: CC-Synch per cluster
   under a global lock, {!Hsynch}) and LCK (a TTAS lock, {!Ttas}) are
   extension baselines that calibrate what combining and SEC buy. *)

(* Blocking: suspend the lock holder, or a combiner mid-batch, and every
   operation it serialises waits forever. The suspension classifier
   confirms this mechanically (docs/ANALYSIS.md, "Progress prong"). *)
[@@@progress "blocking"]
[@@@spec "stack"]

(* The four baselines differ only in how [apply] serialises concurrent
   callers. [name] is the registry name of the stack it protects. *)
module type EXECUTOR = sig
  type ('op, 'res) t

  val name : string
  val create : max_threads:int -> apply:('op -> 'res) -> ('op, 'res) t
  val apply : ('op, 'res) t -> tid:int -> 'op -> 'res
end

module Make (P : Sec_prim.Prim_intf.S) (E : EXECUTOR) :
  Sec_spec.Stack_intf.S = struct
  type 'a op = Push of 'a | Pop | Peek
  type 'a t = ('a op, 'a option) E.t

  let name = E.name

  let create ?(max_threads = 64) () =
    let items = Sec_spec.Seq_stack.create () in
    E.create ~max_threads ~apply:(function
      | Push v ->
          Sec_spec.Seq_stack.push items v;
          None
      | Pop -> Sec_spec.Seq_stack.pop items
      | Peek -> Sec_spec.Seq_stack.peek items)

  let push t ~tid v =
    (* The executor conses onto the sequential stack on our behalf. *)
    P.note_alloc ();
    ignore (E.apply t ~tid (Push v))

  let pop t ~tid = E.apply t ~tid Pop
  let peek t ~tid = E.apply t ~tid Peek
end

(* The instances spell out [create] and [apply] so that the lint's call
   graph reaches each executor's wait from its own instance. *)
module Fc (P : Sec_prim.Prim_intf.S) = Make (P) (struct
  module Fc = Fc.Make (P)
  type ('op, 'res) t = ('op, 'res) Fc.t
  let name = "FC"
  let create ~max_threads ~apply = Fc.create ~max_threads ~apply ()
  let apply t ~tid op = Fc.apply t ~tid op
end)

module Cc (P : Sec_prim.Prim_intf.S) = Make (P) (struct
  module Ccsynch = Ccsynch.Make (P)
  type ('op, 'res) t = ('op, 'res) Ccsynch.t
  let name = "CC"
  let create ~max_threads ~apply = Ccsynch.create ~max_threads ~apply ()
  let apply t ~tid op = Ccsynch.apply t ~tid op
end)

module Hs (P : Sec_prim.Prim_intf.S) = Make (P) (struct
  module Hsynch = Hsynch.Make (P)
  type ('op, 'res) t = ('op, 'res) Hsynch.t
  let name = "HS"
  let create ~max_threads ~apply = Hsynch.create ~max_threads ~apply ()
  let apply t ~tid op = Hsynch.apply t ~tid op
end)

(* LCK: callers apply their own operation under the lock. *)
module Lck (P : Sec_prim.Prim_intf.S) = Make (P) (struct
  module Ttas = Ttas.Make (P)
  type ('op, 'res) t = { lock : Ttas.t; apply : 'op -> 'res }
  let name = "LCK"
  let create ~max_threads:_ ~apply = { lock = Ttas.create (); apply }
  let apply t ~tid:_ op =
    Ttas.with_lock ~yield_after:4 t.lock (fun () -> t.apply op)
end)
