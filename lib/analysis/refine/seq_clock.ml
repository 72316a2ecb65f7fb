(* Timestamps that order every clock read: the Explore step, shifted,
   then a sequence number within the step. Calls within one step come
   from one fiber with no scheduling point in between, so call order is
   real-time order, and the clock adds no access — the schedule is
   unchanged. *)

include Sec_sim.Sim.Prim

let last = ref (-1L)
let seq = ref 0L
let reset () = last := -1L

let now_ns () =
  let step = Sec_sim.Sim.Prim.now_ns () in
  if Int64.equal step !last then seq := Int64.succ !seq
  else begin
    last := step;
    seq := 0L
  end;
  Int64.add (Int64.shift_left step 20) !seq
