(* Test-and-test-and-set spinlock with exponential backoff: LCK's lock
   (Serial_stack.Lck) and H-Synch's global lock. *)

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)

  type t = bool A.t

  let create () = A.make_padded false

  (* [with_lock t f] runs [f ()] holding [t]. A waiter spins on reads (the
     line stays Shared), then backs off and retries the exchange; after
     [yield_after] failed exchanges (never, by default) it yields instead:
     when threads outnumber cores the holder may be descheduled, and a
     spinning waiter keeps it off the core for its whole quantum. *)
  let with_lock ?(yield_after = max_int) t f =
    let backoff = Backoff.create () in
    let rec acquire tries =
      if A.exchange t true then begin
        Backoff.spin_while (fun () -> A.get t);
        if tries >= yield_after then P.yield () else Backoff.once backoff;
        acquire (tries + 1)
      end
    in
    acquire 0;
    let res = f () in
    A.set t false;
    res
end
