(** SplitMix64 pseudo-random number generator.

    Each thread owns its own generator, so drawing random numbers never
    touches shared state — important because benchmark loops draw one
    number per operation and a shared [Random] state would itself become a
    contention hot spot. Also used by the simulator for deterministic,
    seed-reproducible schedules. *)

type t

(** [create seed] builds a generator. Distinct seeds give independent
    streams (SplitMix64's output function decorrelates nearby seeds). *)
val create : int64 -> t

(** Next 64 pseudo-random bits. *)
val next_int64 : t -> int64

(** [bits t] is 30 uniform bits as a non-negative [int]. *)
val bits : t -> int

(** [int t bound] draws uniformly from [\[0, bound)]. [bound] must be
    positive. *)
val int : t -> int -> int

(** [split t] derives a new, statistically independent generator. *)
val split : t -> t
