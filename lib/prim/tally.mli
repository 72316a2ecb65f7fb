(** Statistics counters with one padded plain-int cell per thread id.

    Contract: a cell is written only by the thread that owns its id,
    and the counter is read ({!sum}) or cleared ({!reset}) only while
    no writer runs — in practice after the workers have joined, which
    orders every write before the read. Increments are plain stores:
    no atomic, no simulated cost, no effect on a simulated schedule.

    Ids wrap ([tid mod threads]). Natively, two live domains that share
    an id (more live threads than the structure was sized for) race on
    one cell and may drop increments; the counts are diagnostics, so
    that degraded mode undercounts rather than pay for atomics. *)

type t

(** [create ~threads] — one cell per id in [\[0, threads)]. *)
val create : threads:int -> t

(** [add t ~tid n] adds [n] to [tid]'s cell. *)
val add : t -> tid:int -> int -> unit

(** Total over every cell; exact once writers are quiescent. *)
val sum : t -> int

val reset : t -> unit
