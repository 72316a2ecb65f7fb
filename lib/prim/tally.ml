(* One plain int per thread id, each in its own padded stretch of a
   single int array. Cell [i] sits at index [(i + 1) * stride], so no
   two cells, and no cell and the array header every bounds check
   reads, share a cache line. *)

type t = { cells : int array; threads : int }

let stride = Padding.padded_words

let create ~threads =
  if threads < 1 then invalid_arg "Tally.create: threads must be at least 1";
  { cells = Array.make ((threads + 1) * stride) 0; threads }

let add t ~tid n =
  let i = (tid mod t.threads + 1) * stride in
  t.cells.(i) <- t.cells.(i) + n

let sum t =
  let s = ref 0 in
  for i = 1 to t.threads do
    s := !s + t.cells.(i * stride)
  done;
  !s

let reset t = Array.fill t.cells 0 (Array.length t.cells) 0
