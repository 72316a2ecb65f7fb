(* Exact samples and order statistics. Latencies are kept as raw values,
   not histogram buckets, so percentiles move with the data. *)

type t = { mutable data : int array; mutable len : int }

let create () = Sec_prim.Padding.copy_as_padded { data = Array.make 4096 0; len = 0 }

let add t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

(* All samples of [ts], sorted. *)
let sorted ts =
  let all = Array.concat (List.map (fun t -> Array.sub t.data 0 t.len) ts) in
  Array.sort compare all;
  all

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Quantile [q] of a list of floats, linearly interpolated between order
   statistics; 0 when empty. *)
let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Host interference (other tenants, pause-instruction cost) only ever
   slows a segment down, so a run reports the quartile of its segments on
   the fast side: the upper quartile of a higher-is-better figure, the
   lower quartile of a lower-is-better one. *)
let fast_quartile ~higher xs = quantile (if higher then 0.75 else 0.25) xs

(* Mean of the samples ranked between quantiles [lo] and [hi] of a sorted
   array (at least one sample); 0 when empty. Means move with every
   sample, where a percentile of a simulated run can sit on one cycle
   count for every seed; the band leaves out the rare outliers that a
   descheduled native thread produces. *)
let band_mean ~lo ~hi sorted =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let a = min (n - 1) (int_of_float (lo *. float_of_int n)) in
    let b = max (a + 1) (int_of_float (hi *. float_of_int n)) in
    let acc = ref 0 in
    for i = a to b - 1 do
      acc := !acc + sorted.(i)
    done;
    float_of_int !acc /. float_of_int (b - a)
  end
