(* Per-thread integer cells in one flat array. Thread [t] owns the words
   [t * stride + offset .. + width), so no two threads' cells share a
   cache line: natively each domain writes only its own words, and in the
   simulator a write is a plain store, never an effect. Thread ids past
   [max_threads] (and the negative ids of main threads) share one extra
   slot, which only single-threaded set-up and drain code writes. *)

let max_threads = 128
let stride = 32 (* words: 256 bytes per thread *)
let offset = 8

type t = { words : int array }

let create ~width =
  assert (width <= stride - (2 * offset));
  { words = Array.make ((max_threads + 1) * stride) 0 }

let[@inline] base tid =
  let slot = if tid < 0 || tid >= max_threads then max_threads else tid in
  (slot * stride) + offset

let[@inline] add t ~tid i n =
  let j = base tid + i in
  Array.unsafe_set t.words j (Array.unsafe_get t.words j + n)

let get t ~tid i = t.words.(base tid + i)
let reset t = Array.fill t.words 0 (Array.length t.words) 0

(* Sum of field [i] over every thread. *)
let total t i =
  let acc = ref 0 in
  for slot = 0 to max_threads do
    acc := !acc + t.words.((slot * stride) + offset + i)
  done;
  !acc
