(* Output check: the multiset of values pushed (prefill included) must
   equal the multiset of values popped plus those drained at the end.
   Each side keeps a count, a sum and a commutative hash per thread. *)

type t = { pushed : Cells.t; popped : Cells.t }

let count = 0
let sum = 1
let hash = 2
let create () = { pushed = Cells.create ~width:3; popped = Cells.create ~width:3 }

let mix v =
  let h = v * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B873593CC9E2D51 in
  h lxor (h lsr 32)

let note cells ~tid v =
  Cells.add cells ~tid count 1;
  Cells.add cells ~tid sum v;
  Cells.add cells ~tid hash (mix v)

let push t ~tid v = note t.pushed ~tid v
let pop t ~tid v = note t.popped ~tid v

(* Values lost or duplicated: the count difference, or 1 when the counts
   agree but the multisets do not. *)
let mismatch t =
  let d i = Cells.total t.pushed i - Cells.total t.popped i in
  if d count = 0 && d sum = 0 && d hash = 0 then 0 else max 1 (abs (d count))
