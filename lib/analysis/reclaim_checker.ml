(* Shadow heap for reclamation safety under the simulated substrate.

   Epoch-based reclamation (lib/reclaim/ebr.ml) is only as safe as the
   discipline of its callers: every traversal of reclaimable nodes must
   happen between [enter] and [exit], a node must be retired exactly once
   and only after it has been unlinked, and no fiber may pin the epoch
   while the others' limbo lists grow without bound. None of that is
   visible to the race detector — a use-after-retire is not a data race,
   it is a lifetime bug.

   This module tracks every reclaimable node through the lifecycle

       alloc -> publish -> unlink -> retire -> reclaim

   fed by instrumented algorithm code (the Treiber and TS stacks over
   {!Sec_reclaim.Reclaim.Ebr}, whose [note_*] hooks forward here)
   and by the EBR substrate itself ([enter]/[exit]/[retire]/destructor
   events). The schedulers run fibers one at a time, so plain state and a
   global installation ref are safe, mirroring {!Race_detector}.

   What each report means:

   - [Use_after_retire]: a fiber touched a node inside a critical section
     it entered *after* the node was retired. EBR only protects references
     obtained before the retirement; this access could see freed memory in
     the C++ original.
   - [Use_after_reclaim]: a fiber touched a node whose destructor has
     already run — the definitive use-after-free.
   - [Unguarded_access]: a published node was dereferenced by a fiber that
     holds no guard at all; any concurrent retirement makes this a
     use-after-free, whether or not this schedule exhibits one.
   - [Retire_while_reachable]: a node was retired while still published
     (never unlinked): a concurrent traversal starting *after* the
     retirement can still reach it legitimately.
   - [Double_retire]: the same node was retired (or its destructor run)
     twice — the classic double-free.
   - [Epoch_stalled]: a fiber has pinned the epoch since before the
     oldest of another fiber's > [stall_bound] pending retirements; limbo
     lists grow without bound (the liveness failure of EBR).
   - [Guard_leak]: a fiber finished while still inside a critical
     section, or exited a guard it never entered — the epoch would stay
     pinned forever.

   Node ids are assigned by the checker ([on_alloc]); id 0 means "not
   tracked" (allocated while no checker was installed) and is ignored by
   every [note_*] wrapper, so instrumented algorithms run unchanged and
   essentially for free outside analysis runs. *)

type kind =
  | Use_after_retire
  | Use_after_reclaim
  | Unguarded_access
  | Retire_while_reachable
  | Double_retire
  | Epoch_stalled
  | Guard_leak

type report = {
  kind : kind;
  node : int;  (** checker-assigned node id (0 when not about a node) *)
  fiber : int;  (** the fiber whose event triggered the report *)
  other_fiber : int;  (** the other party (retirer, pinner), or -1 *)
  site : string;  (** source location of the triggering event *)
  alloc_site : string;  (** where the node was allocated *)
  retire_site : string;  (** where the node was retired *)
  detail : string;
}

type state = Allocated | Published | Unlinked | Retired | Reclaimed

let state_to_string = function
  | Allocated -> "allocated"
  | Published -> "published"
  | Unlinked -> "unlinked"
  | Retired -> "retired"
  | Reclaimed -> "reclaimed"

type node_info = {
  mutable state : state;
  alloc_site : string;
  mutable retire_fiber : int;
  mutable retire_site : string;
  mutable retire_seq : int;  (** global event number of the retirement *)
}

type fiber_info = {
  mutable guard_depth : int;
  mutable guard_seq : int;  (** event number of the outermost [enter] *)
  mutable pending : int;  (** retirements not yet reclaimed *)
  mutable oldest_pending_seq : int;
  mutable stall_reported : bool;  (** throttle: one stall per drain cycle *)
}

type t = {
  nodes : (int, node_info) Hashtbl.t;
  fibers : (int, fiber_info) Hashtbl.t;
  mutable next_node : int;
  mutable seq : int;  (** global event counter ordering enters/retires *)
  mutable reports_rev : report list;
  mutable dropped : int;
  max_reports : int;
  stall_bound : int;
  capture_sites : bool;
}

let create ?(max_reports = 64) ?(stall_bound = 64) ?(capture_sites = true) () =
  {
    nodes = Hashtbl.create 256;
    fibers = Hashtbl.create 16;
    next_node = 1;
    seq = 0;
    reports_rev = [];
    dropped = 0;
    max_reports;
    stall_bound;
    capture_sites;
  }

let fiber_info t fid =
  match Hashtbl.find_opt t.fibers fid with
  | Some fi -> fi
  | None ->
      let fi =
        {
          guard_depth = 0;
          guard_seq = 0;
          pending = 0;
          oldest_pending_seq = max_int;
          stall_reported = false;
        }
      in
      Hashtbl.add t.fibers fid fi;
      fi

(* Source location of the innermost frame outside the substrate, the
   analysis layer and the EBR engine — the algorithm code that caused the
   event (same heuristic as {!Race_detector.here}). *)
let here t =
  if not t.capture_sites then "<sites off>"
  else
    let bt = Printexc.get_callstack 24 in
    match Printexc.backtrace_slots bt with
    | None -> "<no debug info>"
    | Some slots ->
        let internal file =
          (not (String.contains file '/'))
          || String.starts_with ~prefix:"lib/sim/" file
          || String.starts_with ~prefix:"lib/analysis/" file
          || file = "lib/reclaim/ebr.ml"
        in
        let rec scan i =
          if i >= Array.length slots then "<unknown>"
          else
            match Printexc.Slot.location slots.(i) with
            | Some { Printexc.filename; line_number; _ }
              when not (internal filename) ->
                Printf.sprintf "%s:%d" filename line_number
            | _ -> scan (i + 1)
        in
        scan 0

let report t ~kind ~node ~fiber ?(other = -1) ?(detail = "") () =
  if List.length t.reports_rev >= t.max_reports then
    t.dropped <- t.dropped + 1
  else
    let alloc_site, retire_site =
      match Hashtbl.find_opt t.nodes node with
      | Some n -> (n.alloc_site, n.retire_site)
      | None -> ("<untracked>", "<untracked>")
    in
    t.reports_rev <-
      {
        kind;
        node;
        fiber;
        other_fiber = other;
        site = here t;
        alloc_site;
        retire_site;
        detail;
      }
      :: t.reports_rev

(* ------------------------------------------------------------------ *)
(* Event feed (unit-testable without a simulator)                       *)

let on_alloc t ~fiber:_ =
  t.seq <- t.seq + 1;
  let id = t.next_node in
  t.next_node <- id + 1;
  Hashtbl.add t.nodes id
    {
      state = Allocated;
      alloc_site = here t;
      retire_fiber = -1;
      retire_site = "<not retired>";
      retire_seq = max_int;
    };
  id

let on_publish t ~fiber ~node =
  t.seq <- t.seq + 1;
  match Hashtbl.find_opt t.nodes node with
  | None -> ()
  | Some n -> (
      match n.state with
      | Allocated | Unlinked | Published -> n.state <- Published
      | Retired ->
          report t ~kind:Use_after_retire ~node ~fiber ~other:n.retire_fiber
            ~detail:"node re-published after it was retired" ();
          n.state <- Published
      | Reclaimed ->
          report t ~kind:Use_after_reclaim ~node ~fiber ~other:n.retire_fiber
            ~detail:"node re-published after its destructor ran" ())

let on_unlink t ~fiber:_ ~node =
  t.seq <- t.seq + 1;
  match Hashtbl.find_opt t.nodes node with
  | None -> ()
  | Some n -> (
      match n.state with
      | Allocated | Published | Unlinked -> n.state <- Unlinked
      | Retired | Reclaimed -> ())

(* Stall check: does some *other* fiber hold a guard it entered before the
   oldest retirement this fiber is still waiting to reclaim? *)
let check_stall t ~fiber fi =
  if fi.pending > t.stall_bound && not fi.stall_reported then
    Hashtbl.iter
      (fun fid (other : fiber_info) ->
        if
          (not fi.stall_reported)
          && fid <> fiber && other.guard_depth > 0
          && other.guard_seq < fi.oldest_pending_seq
        then begin
          fi.stall_reported <- true;
          report t ~kind:Epoch_stalled ~node:0 ~fiber ~other:fid
            ~detail:
              (Printf.sprintf
                 "fiber %d has pinned the epoch since before the oldest of \
                  fiber %d's %d pending retirements"
                 fid fiber fi.pending)
            ()
        end)
      t.fibers

let on_retire t ~fiber ~node =
  t.seq <- t.seq + 1;
  match Hashtbl.find_opt t.nodes node with
  | None -> ()
  | Some n -> (
      match n.state with
      | Retired ->
          report t ~kind:Double_retire ~node ~fiber ~other:n.retire_fiber
            ~detail:"node retired twice" ()
      | Reclaimed ->
          report t ~kind:Double_retire ~node ~fiber ~other:n.retire_fiber
            ~detail:"node retired again after its destructor ran" ()
      | (Allocated | Published | Unlinked) as s ->
          if s = Published then
            report t ~kind:Retire_while_reachable ~node ~fiber
              ~detail:"node was never unlinked from the structure" ();
          n.state <- Retired;
          n.retire_fiber <- fiber;
          n.retire_site <- here t;
          n.retire_seq <- t.seq;
          let fi = fiber_info t fiber in
          fi.pending <- fi.pending + 1;
          if fi.pending = 1 then fi.oldest_pending_seq <- t.seq;
          check_stall t ~fiber fi)

let on_reclaim t ~fiber ~node =
  t.seq <- t.seq + 1;
  match Hashtbl.find_opt t.nodes node with
  | None -> ()
  | Some n -> (
      match n.state with
      | Reclaimed ->
          report t ~kind:Double_retire ~node ~fiber ~other:n.retire_fiber
            ~detail:"destructor ran twice" ()
      | Retired ->
          n.state <- Reclaimed;
          let fi = fiber_info t n.retire_fiber in
          fi.pending <- Int.max 0 (fi.pending - 1);
          if fi.pending = 0 then begin
            fi.oldest_pending_seq <- max_int;
            fi.stall_reported <- false
          end
      | Allocated | Published | Unlinked ->
          (* A destructor without a retirement cannot happen through EBR;
             tolerate it (direct feeds in tests). *)
          n.state <- Reclaimed)

let on_access t ~fiber ~node =
  t.seq <- t.seq + 1;
  match Hashtbl.find_opt t.nodes node with
  | None -> ()
  | Some n -> (
      let fi = fiber_info t fiber in
      match n.state with
      | Reclaimed ->
          report t ~kind:Use_after_reclaim ~node ~fiber ~other:n.retire_fiber
            ~detail:"the destructor has already run" ()
      | Allocated -> () (* still private to the allocating fiber *)
      | Published | Unlinked | Retired ->
          if fi.guard_depth = 0 then
            report t ~kind:Unguarded_access ~node ~fiber
              ~detail:
                (Printf.sprintf "node is %s; the fiber holds no guard"
                   (state_to_string n.state))
              ()
          else if n.state = Retired && fi.guard_seq > n.retire_seq then
            report t ~kind:Use_after_retire ~node ~fiber ~other:n.retire_fiber
              ~detail:"the guard was entered after the retirement" ())

let on_enter t ~fiber =
  t.seq <- t.seq + 1;
  let fi = fiber_info t fiber in
  fi.guard_depth <- fi.guard_depth + 1;
  if fi.guard_depth = 1 then fi.guard_seq <- t.seq

let on_exit t ~fiber =
  t.seq <- t.seq + 1;
  let fi = fiber_info t fiber in
  if fi.guard_depth = 0 then
    report t ~kind:Guard_leak ~node:0 ~fiber
      ~detail:"exit without a matching enter" ()
  else fi.guard_depth <- fi.guard_depth - 1

let on_fiber_exit t ~fiber =
  match Hashtbl.find_opt t.fibers fiber with
  | Some fi when fi.guard_depth > 0 ->
      report t ~kind:Guard_leak ~node:0 ~fiber
        ~detail:
          (Printf.sprintf
             "fiber finished still holding %d guard(s): the epoch stays \
              pinned forever"
             fi.guard_depth)
        ();
      fi.guard_depth <- 0
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)

let reports t = List.rev t.reports_rev
let dropped t = t.dropped

let kind_to_string = function
  | Use_after_retire -> "use-after-retire"
  | Use_after_reclaim -> "use-after-reclaim"
  | Unguarded_access -> "unguarded-access"
  | Retire_while_reachable -> "retire-while-reachable"
  | Double_retire -> "double-retire"
  | Epoch_stalled -> "epoch-stalled"
  | Guard_leak -> "guard-leak"

let pp_report ppf r =
  if r.node = 0 then
    Format.fprintf ppf "%s: fiber %d at %s%s%s" (kind_to_string r.kind)
      r.fiber r.site
      (if r.other_fiber >= 0 then
         Printf.sprintf " (other fiber %d)" r.other_fiber
       else "")
      (if r.detail = "" then "" else ": " ^ r.detail)
  else
    Format.fprintf ppf
      "%s: fiber %d at %s touched node %d (alloc %s, retired%s at %s)%s"
      (kind_to_string r.kind) r.fiber r.site r.node r.alloc_site
      (if r.other_fiber >= 0 then
         Printf.sprintf " by fiber %d" r.other_fiber
       else "")
      r.retire_site
      (if r.detail = "" then "" else ": " ^ r.detail)

let report_to_string r = Format.asprintf "%a" pp_report r

(* ------------------------------------------------------------------ *)
(* Global installation point, mirroring {!Race_detector.active}: the
   schedulers run fibers one at a time in a single domain. *)

let active : t option ref = ref None

let install t = active := Some t
let uninstall () = active := None

let with_checker t f =
  let saved = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := saved) f

(* [note_*]: the hooks instrumented algorithms call. One ref read when no
   checker is installed; node id 0 (allocated while inactive) is skipped. *)

let note_alloc ~fiber =
  match !active with None -> 0 | Some t -> on_alloc t ~fiber

let note_publish ~fiber ~node =
  if node <> 0 then
    match !active with None -> () | Some t -> on_publish t ~fiber ~node

let note_unlink ~fiber ~node =
  if node <> 0 then
    match !active with None -> () | Some t -> on_unlink t ~fiber ~node

let note_retire ~fiber ~node =
  if node <> 0 then
    match !active with None -> () | Some t -> on_retire t ~fiber ~node

let note_reclaim ~fiber ~node =
  if node <> 0 then
    match !active with None -> () | Some t -> on_reclaim t ~fiber ~node

let note_access ~fiber ~node =
  if node <> 0 then
    match !active with None -> () | Some t -> on_access t ~fiber ~node

let note_enter ~fiber =
  match !active with None -> () | Some t -> on_enter t ~fiber

let note_exit ~fiber =
  match !active with None -> () | Some t -> on_exit t ~fiber
