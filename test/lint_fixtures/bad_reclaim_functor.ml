(* ebr-guard and retire-once through the reclamation functor argument:
   a stack written against [Reclaim.S] (lib/reclaim/reclaim.ml) never
   names [Ebr], yet it is armed like one that does. Its peek lost the
   [R.guard] wrapper, and its [pop_ungated] retires whether or not it
   won the unlink CAS; both are flagged. push and pop keep their
   discipline and stay clean. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Prim_intf.S) (R : Reclaim.S) = struct
  module A = P.Atomic
  module Backoff = Backoff.Make (P)

  type 'a node = { value : 'a; next : 'a node option; chk : int }
  type 'a t = { top : 'a node option A.t; reclaim : R.t }

  let push t ~tid value =
    let backoff = Backoff.create () in
    R.guard t.reclaim ~tid (fun () ->
        let chk = R.note_alloc ~fiber:tid in
        let rec attempt () =
          let cur = A.get t.top in
          if not (A.compare_and_set t.top cur (Some { value; next = cur; chk }))
          then begin
            Backoff.once backoff;
            attempt ()
          end
        in
        attempt ())

  let pop t ~tid =
    let backoff = Backoff.create () in
    R.guard t.reclaim ~tid (fun () ->
        let rec attempt () =
          match A.get t.top with
          | None -> None
          | Some n as cur ->
              if A.compare_and_set t.top cur n.next then begin
                R.retire t.reclaim ~tid ~chk:n.chk ignore;
                Some n.value
              end
              else begin
                Backoff.once backoff;
                attempt ()
              end
        in
        attempt ())

  let pop_ungated t ~tid =
    R.guard t.reclaim ~tid (fun () ->
        match A.get t.top with
        | None -> None
        | Some n as cur ->
            ignore (A.compare_and_set t.top cur n.next);
            R.retire t.reclaim ~tid ~chk:n.chk ignore; (* EXPECT retire-once *)
            Some n.value)

  let peek t ~tid:_ =
    match A.get t.top with
    | None -> None
    | Some n -> Some n.value (* EXPECT ebr-guard *)
end
