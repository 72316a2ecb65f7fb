(* The reclamation layer a lock-free structure is written against. The
   Treiber and TS stacks (lib/stacks) take it as a functor argument: the
   registry builds "TRB"/"TSI" over {!Gc} and "TRB-EBR"/"TSI-EBR" over
   {!Ebr}, the paper's Section 4 setting where every competitor pays for
   DEBRA-style reclamation. *)

module type S = sig
  type t

  (* Appended to the structure's display name: "" or "-EBR". *)
  val name_suffix : string
  val create : ?max_threads:int -> unit -> t

  (* [guard t ~tid f] runs [f] as one critical section: no node [f]
     reads is destroyed before [f] returns. *)
  val guard : t -> tid:int -> (unit -> 'a) -> 'a

  (* [retire t ~tid ~chk destroy] hands over an unlinked node, whose
     checker id is [chk]; [destroy] runs once no critical section can
     still reach it. *)
  val retire : t -> tid:int -> ?chk:int -> (unit -> unit) -> unit

  (* May a thread unlink nodes another thread owns? A helper's unlink can
     race the owner's, and both would retire the same node, so an
     instance that really retires answers [false]. *)
  val helpers_unlink : bool

  (* The {!Sec_analysis.Reclaim_checker} lifecycle notes; [note_alloc]
     returns the node's checker id (0 when untracked). *)
  val note_alloc : fiber:int -> int
  val note_publish : fiber:int -> node:int -> unit
  val note_access : fiber:int -> node:int -> unit
  val note_unlink : fiber:int -> node:int -> unit
end

(* The GC reclaims: nothing to guard, retire or note. *)
module Gc : S = struct
  type t = unit

  let name_suffix = ""
  let create ?max_threads:_ () = ()
  let guard () ~tid:_ f = f ()
  let retire () ~tid:_ ?chk:_ _ = ()
  let helpers_unlink = true
  let note_alloc ~fiber:_ = 0
  let note_publish ~fiber:_ ~node:_ = ()
  let note_access ~fiber:_ ~node:_ = ()
  let note_unlink ~fiber:_ ~node:_ = ()
end

(* Epoch-based reclamation; [flush] and [stats] stay reachable for
   shutdown and tests. *)
module Ebr (P : Sec_prim.Prim_intf.S) = struct
  include Ebr.Make (P)

  let name_suffix = "-EBR"
  let create ?max_threads () = create ?max_threads ()
  let helpers_unlink = false
  let note_alloc = Sec_analysis.Reclaim_checker.note_alloc
  let note_publish = Sec_analysis.Reclaim_checker.note_publish
  let note_access = Sec_analysis.Reclaim_checker.note_access
  let note_unlink = Sec_analysis.Reclaim_checker.note_unlink
end
