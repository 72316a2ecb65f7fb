(* Exponential backoff and spin-wait helpers, parameterised over the
   execution substrate so the same escalation policy runs natively and in
   the simulator. *)

module Make (P : Prim_intf.S) = struct
  type t = { min_wait : int; max_wait : int; mutable current : int }

  let create ?(min_wait = 16) ?(max_wait = 4096) () =
    assert (0 < min_wait && min_wait <= max_wait);
    { min_wait; max_wait; current = min_wait }

  let reset t = t.current <- t.min_wait

  (* Randomising the wait desynchronises threads that failed the same CAS
     at the same time, which would otherwise collide again in lockstep. *)
  let once t =
    P.relax (1 + P.rand_int t.current);
    if t.current < t.max_wait then t.current <- t.current * 2

  (* Spin until [condition ()] holds. The first [spin_limit] probes pause
     briefly, from [first] units doubling up to 256; after that each probe
     also yields, so a waiter never starves the thread it is waiting for
     when cores are oversubscribed. *)
  let spin_limit = 128

  let spin_until ?(first = 4) condition =
    if not (condition ()) then begin
      (* Cap the probe gap: most waits here are short (a freeze window, a
         combiner's CAS), and a waiter that naps 1k cycles between probes
         reacts a full window late. *)
      let rec go n wait =
        if not (condition ()) then
          if n < spin_limit then begin
            P.relax wait;
            go (n + 1) (if wait < 256 then wait * 2 else wait)
          end
          else begin
            P.yield ();
            P.relax 64;
            go n wait
          end
      in
      go 0 first
    end

  (* Spin while [condition ()] holds; dual of [spin_until]. *)
  let spin_while ?first condition =
    spin_until ?first (fun () -> not (condition ()))
end
