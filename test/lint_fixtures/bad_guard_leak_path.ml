(* guard-balance: hand-rolled enter/exit pairs that fail to balance on
   some CFG path. [peek_exn] leaks the pinned epoch when the scrutinee
   raises (the exception edge skips the exit); [unpin_twice] exits at
   depth zero; [maybe_leak]'s branches disagree on the depth at the
   return. The [n.value] read in [peek_exn] sits between the enter and
   the exit on every path that reaches it, so the rule-4 query accepts
   it — no ebr-guard marker. *)

module A = Atomic
module E = Ebr.Make (Prim)

type 'a node = { value : 'a; next : 'a node option }
type 'a t = { top : 'a node option A.t; ebr : E.t }

let peek_exn t ~tid =
  E.enter t.ebr ~tid; (* EXPECT guard-balance *)
  let v =
    match A.get t.top with
    | None -> raise Not_found
    | Some n -> n.value
  in
  E.exit t.ebr ~tid;
  v

let unpin_twice t ~tid =
  E.enter t.ebr ~tid;
  E.exit t.ebr ~tid;
  E.exit t.ebr ~tid (* EXPECT guard-balance *)

let maybe_leak t ~tid cond =
  E.enter t.ebr ~tid; (* EXPECT guard-balance *)
  if cond then E.exit t.ebr ~tid
