(* Multi-seed variance analysis: the paper averages five runs and reports
   below-5% variance for SEC. The simulator is deterministic per seed, so
   "run-to-run variance" becomes "seed-to-seed spread" — same question,
   reproducibly answered. *)

type t = {
  mean : float;
  min : float;
  max : float;
  relative_spread : float;  (** (max - min) / mean, as a percentage *)
  samples : int;
}

let of_samples samples =
  match samples with
  | [] -> invalid_arg "Variance.of_samples: empty"
  | first :: _ ->
      let n = List.length samples in
      let sum = List.fold_left ( +. ) 0. samples in
      let mean = sum /. float_of_int n in
      let mn = List.fold_left min first samples in
      let mx = List.fold_left max first samples in
      let relative_spread =
        if mean = 0. then 0. else 100. *. (mx -. mn) /. mean
      in
      { mean; min = mn; max = mx; relative_spread; samples = n }

let pp ppf t =
  Format.fprintf ppf "%.2f Mops/s (min %.2f, max %.2f, spread %.1f%%, n=%d)"
    t.mean t.min t.max t.relative_spread t.samples
