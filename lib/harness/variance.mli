(** Seed-to-seed spread of simulated throughput — the reproducibility
    check mirroring the paper's "averaged over five runs, variance below
    5%" methodology. *)

type t = {
  mean : float;
  min : float;
  max : float;
  relative_spread : float;  (** (max - min) / mean, in percent *)
  samples : int;
}

(** Raises [Invalid_argument] on an empty list. *)
val of_samples : float list -> t

val pp : Format.formatter -> t -> unit
