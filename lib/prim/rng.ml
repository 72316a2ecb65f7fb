(* SplitMix64 (Steele, Lea & Flood 2014).

   The state is one 64-bit word and every draw is a single add + mix.
   The word lives in an 8-byte [Bytes.t] read and written with the
   unboxed [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives: a
   [{ mutable state : int64 }] record would box a fresh [int64] on every
   draw (3 words) and store it through a write barrier. ocamlopt unboxes
   let-bound [int64] intermediates whose uses are all arithmetic, so with
   the state itself unboxed no draw allocates. The simulator draws from
   these on its per-event jitter path, and the output sequence is pinned
   by golden schedule digests, so any change here must be
   value-identical. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let copy = Bytes.copy

(* The state step and the SplitMix64 output function. Both are inlined
   into every draw, so their [int64] intermediates stay unboxed. *)
let[@inline] advance t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  s

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t = mix (advance t)

let[@inline] bits t =
  Int64.to_int (Int64.shift_right_logical (mix (advance t)) 34)

let[@inline] int t bound =
  assert (bound > 0);
  if bound = 1 then 0
  else begin
    let z = mix (advance t) in
    (* Rejection-free: a 60-bit draw modulo [bound] has negligible bias for
       the bounds used here (all far below 2^30). The draw is non-negative,
       so a power-of-two bound can mask instead of divide — same value,
       no 64-bit [idiv] (the simulator's jitter path draws with bound 8 on
       every single event). *)
    let x = Int64.to_int (Int64.shift_right_logical z 4) in
    if bound land (bound - 1) = 0 then x land (bound - 1) else x mod bound
  end

let split t = create (next_int64 t)
