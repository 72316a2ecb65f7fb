(* A Treiber stack integrated with epoch-based reclamation, following the
   paper's Section 4 methodology: traversals run inside an EBR critical
   section, and a node is retired the moment its value has been handed to
   the popping thread. In C++ the deferred destructor frees the node; in
   OCaml the GC frees memory, so the destructor instead releases whatever
   external resource rides on the node (and the tests use it to prove no
   node is destroyed while a reader might still hold it). After the
   destructor the node is dropped to the GC; every push allocates a
   fresh one, counted through [P.note_alloc].

   Every node carries a shadow-heap id ([chk], 0 outside analysis runs)
   and each lifecycle step notifies the reclamation checker, so
   [Explore.for_all ~check_reclamation:true] can verify the guard and
   retire discipline — see docs/ANALYSIS.md ("Reclamation prong"). *)

(* Treiber under EBR: a failed CAS means a peer succeeded, and epoch
   entry/exit never waits on another thread. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)
  module Ebr = Ebr.Make (P)
  module Chk = Sec_analysis.Reclaim_checker

  type 'a node = {
    value : 'a;
    mutable next : 'a node option;
        [@plain_ok
          "written only while the node is private to the pushing thread; \
           published by the CAS on [top]"]
    on_reclaim : unit -> unit;
    chk : int; (* reclamation-checker node id; 0 when untracked *)
  }

  type 'a t = { top : 'a node option A.t; ebr : Ebr.t }

  let create ?(max_threads = 64) () =
    { top = A.make_padded None; ebr = Ebr.create ~max_threads () }

  (* [push t ~tid v ~on_reclaim] — [on_reclaim] runs once the node has
     been popped AND no concurrent operation can still reach it. *)
  let push t ~tid v ~on_reclaim =
    let backoff = Backoff.create () in
    Ebr.guard t.ebr ~tid (fun () ->
        let chk = Chk.note_alloc ~fiber:tid in
        P.note_alloc ();
        let node = { value = v; next = None; on_reclaim; chk } in
        let rec attempt () =
          let cur = A.get t.top in
          node.next <- cur;
          if A.compare_and_set t.top cur (Some node) then
            Chk.note_publish ~fiber:tid ~node:node.chk
          else begin
            Backoff.once backoff;
            attempt ()
          end
        in
        attempt ())

  let pop t ~tid =
    let backoff = Backoff.create () in
    Ebr.guard t.ebr ~tid (fun () ->
        let rec attempt () =
          match A.get t.top with
          | None -> None
          | Some n as cur ->
              Chk.note_access ~fiber:tid ~node:n.chk;
              if A.compare_and_set t.top cur n.next then begin
                Chk.note_unlink ~fiber:tid ~node:n.chk;
                let v = n.value in
                (* The destructor runs after the grace period, on the
                   retiring thread. *)
                Ebr.retire t.ebr ~tid ~chk:n.chk n.on_reclaim;
                Some v
              end
              else begin
                Backoff.once backoff;
                attempt ()
              end
        in
        attempt ())

  let peek t ~tid =
    Ebr.guard t.ebr ~tid (fun () ->
        match A.get t.top with
        | None -> None
        | Some n ->
            Chk.note_access ~fiber:tid ~node:n.chk;
            Some n.value)

  (* Drain deferred destructors (shutdown / tests). *)
  let flush t ~tid = Ebr.flush t.ebr ~tid

  let reclamation_stats t = Ebr.stats t.ebr
end
