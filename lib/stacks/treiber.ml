(* Treiber's lock-free stack [Treiber 1986] ("TRB" in the paper): a single
   atomic [top] pointer updated by CAS, with randomised exponential backoff
   on contention. The simplest correct concurrent stack, and the yardstick
   every other implementation is measured against: all its cache traffic
   concentrates on the one cache line holding [top].

   Reclamation is the functor argument [R] ({!Sec_reclaim.Reclaim}).
   Under [Reclaim.Gc] this is "TRB"; under [Reclaim.Ebr] it is
   "TRB-EBR", following the paper's Section 4 methodology: every
   operation runs inside an EBR critical section, and a pop retires its
   node the moment its value has been handed over, exactly the overhead
   the C++ artifact pays. Each push allocates one node, as the C++
   Treiber does, and reports its lifecycle to the reclamation checker. *)

(* Progress class (checked by sec_lint and, dynamically, by the
   suspension classifier): a failed CAS means another operation
   succeeded, and epoch entry/exit never waits on another thread, so a
   suspended thread never stops its peers. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) (R : Sec_reclaim.Reclaim.S) :
  Sec_spec.Stack_intf.S = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)

  type 'a node = {
    value : 'a;
    mutable next : 'a node option;
        [@plain_ok
          "written only while the node is private to the pushing thread; \
           published by the CAS on [top]"]
    chk : int; (* reclamation-checker node id; 0 when untracked *)
  }

  type 'a t = { top : 'a node option A.t; reclaim : R.t }

  let name = "TRB" ^ R.name_suffix

  let create ?max_threads () =
    { top = A.make_padded None; reclaim = R.create ?max_threads () }

  let push t ~tid value =
    let backoff = Backoff.create () in
    R.guard t.reclaim ~tid (fun () ->
        let chk = R.note_alloc ~fiber:tid in
        P.note_alloc ();
        let node = { value; next = None; chk } in
        let rec attempt () =
          let cur = A.get t.top in
          node.next <- cur;
          if A.compare_and_set t.top cur (Some node) then
            R.note_publish ~fiber:tid ~node:node.chk
          else begin
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
              R.note_access ~fiber:tid ~node:n.chk;
              if A.compare_and_set t.top cur n.next then begin
                R.note_unlink ~fiber:tid ~node:n.chk;
                let v = n.value in
                R.retire t.reclaim ~tid ~chk:n.chk ignore;
                Some v
              end
              else begin
                Backoff.once backoff;
                attempt ()
              end
        in
        attempt ())

  let peek t ~tid =
    R.guard t.reclaim ~tid (fun () ->
        match A.get t.top with
        | None -> None
        | Some n ->
            R.note_access ~fiber:tid ~node:n.chk;
            Some n.value)
end
