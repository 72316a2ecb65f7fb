(** Randomised exponential backoff and escalating spin-wait loops.

    Functorised over {!Prim_intf.S} so the same policy drives both the
    native runtime and the simulator (where [relax n] is a single cheap
    scheduling event, keeping long backoffs inexpensive to simulate). *)

module Make (_ : Prim_intf.S) : sig
  type t

  (** [create ~min_wait ~max_wait ()] — waits are in relax units, doubling
      from [min_wait] up to [max_wait] on each {!once}. *)
  val create : ?min_wait:int -> ?max_wait:int -> unit -> t

  (** Back to the minimum wait (call after a successful operation). *)
  val reset : t -> unit

  (** Wait a random duration up to the current bound, then double it. *)
  val once : t -> unit

  (** [spin_until ?first p] returns once [p ()] is true. Busy-waits
      briefly, then escalates to yielding so the awaited thread can run
      even on an oversubscribed machine. [first] (default 4, positive) is
      the gap in relax units between the first two probes; each later gap
      doubles up to 256. A waiter that knows its condition cannot change
      sooner than some interval (the writer itself polls at that
      granularity) passes it as [first] and skips the probes that could
      only fail. *)
  val spin_until : ?first:int -> (unit -> bool) -> unit

  (** [spin_while ?first p] returns once [p ()] is false. *)
  val spin_while : ?first:int -> (unit -> bool) -> unit
end
