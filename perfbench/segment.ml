(* One measured segment on one substrate: create a structure, prefill it,
   drive it through [Sec_harness.Runner.Make(_).drive] for one budget,
   drain it and check its output. Optionally records a latency sample per
   operation (from the runner's own timestamps) and, when traced, a span
   per call into the structure's public functions. *)

let wall_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let value_range = Sec_harness.Runner.default_value_range

type ops = {
  push : tid:int -> int -> unit;
  pop : tid:int -> int option;
  peek : tid:int -> int option;
}

let noop_ops =
  {
    push = (fun ~tid:_ _ -> ());
    pop = (fun ~tid:_ -> None);
    peek = (fun ~tid:_ -> None);
  }

let kinds = [| "push"; "pop"; "peek" |]

type gc = { minor_words : float; minor_collections : int; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
  }

(* Per-thread trace state. [sums] holds, for each operation kind, the
   span count, the summed span time and the summed substrate-call deltas
   (one slot per {!Counting} counter). [spans] keeps a sample of whole
   spans: every [every]th call, halving the sample when it fills. *)
let span_fields = 3 + Counting.width (* kind, start, end, deltas *)
let sum_fields = 2 + Counting.width

type thread_trace = {
  start : int array;
  sums : int array;
  lat : Samples.t array;
  spans : int array;
  mutable nspans : int;
  mutable seen : int;
  mutable every : int;
}

type trace = { threads : thread_trace array; span_cap : int }

let create_trace ~threads =
  let span_cap = max 256 (32_768 / threads) in
  {
    span_cap;
    threads =
      Array.init threads (fun _ ->
          Sec_prim.Padding.copy_as_padded
            {
              start = Array.make Counting.width 0;
              sums = Array.make (Array.length kinds * sum_fields) 0;
              lat = Array.init (Array.length kinds) (fun _ -> Samples.create ());
              spans = Array.make (span_cap * span_fields) 0;
              nspans = 0;
              seen = 0;
              every = 1;
            });
  }

let kind_sum tr k i =
  Array.fold_left (fun acc th -> acc + th.sums.((k * sum_fields) + i)) 0 tr.threads

let kind_count tr k = kind_sum tr k 0
let kind_time tr k = kind_sum tr k 1
let kind_counter tr k c = kind_sum tr k (2 + c)

let sum_over_kinds f =
  let acc = ref 0 in
  for k = 0 to Array.length kinds - 1 do
    acc := !acc + f k
  done;
  !acc

let record tr ~tid ~kind ~t0 ~t1 =
  let th = tr.threads.(tid) in
  let dt = t1 - t0 in
  let base = kind * sum_fields in
  th.sums.(base) <- th.sums.(base) + 1;
  th.sums.(base + 1) <- th.sums.(base + 1) + dt;
  Samples.add th.lat.(kind) dt;
  let n = th.seen in
  th.seen <- n + 1;
  if n mod th.every = 0 && th.nspans = tr.span_cap then begin
    (* Full: keep every other span and sample half as often. *)
    for i = 0 to (tr.span_cap / 2) - 1 do
      Array.blit th.spans (2 * i * span_fields) th.spans (i * span_fields)
        span_fields
    done;
    th.nspans <- tr.span_cap / 2;
    th.every <- 2 * th.every
  end;
  let keep = n mod th.every = 0 in
  let s = th.nspans * span_fields in
  if keep then begin
    th.spans.(s) <- kind;
    th.spans.(s + 1) <- t0;
    th.spans.(s + 2) <- t1;
    th.nspans <- th.nspans + 1
  end;
  for c = 0 to Counting.width - 1 do
    let d = Cells.get Counting.cells ~tid c - th.start.(c) in
    th.sums.(base + 2 + c) <- th.sums.(base + 2 + c) + d;
    if keep then th.spans.(s + 3 + c) <- d
  done

(* The sampled spans as CSV rows, each the child of one root row (id 0)
   for the whole traced run; times in the substrate clock's units. *)
let write_spans tr oc =
  let root = 0 in
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun th ->
      for i = 0 to th.nspans - 1 do
        lo := min !lo th.spans.((i * span_fields) + 1);
        hi := max !hi th.spans.((i * span_fields) + 2)
      done)
    tr.threads;
  Printf.fprintf oc "%d,,,segment,%d,%d%s\n" root !lo !hi
    (String.make Counting.width ',');
  Array.iteri
    (fun tid th ->
      for i = 0 to th.nspans - 1 do
        let s = i * span_fields in
        Printf.fprintf oc "%d,%d,%d,%s,%d,%d" (root + (tid lsl 24) + i + 1) root
          tid kinds.(th.spans.(s)) th.spans.(s + 1) th.spans.(s + 2);
        for c = 0 to Counting.width - 1 do
          Printf.fprintf oc ",%d" th.spans.(s + 3 + c)
        done;
        output_char oc '\n'
      done)
    tr.threads

let span_header =
  "id,parent,thread,name,start,end," ^ String.concat "," (Array.to_list Counting.names)

type result = {
  ops : int;
  elapsed : float;  (** substrate budget units: seconds or cycles *)
  setup_s : float;  (** wall: creation and prefill *)
  run_s : float;  (** wall: the driven phase *)
  latencies : int array;
      (** update (push and pop) latencies, sorted, in substrate clock
          units; [||] untimed *)
  mismatch : int;  (** values lost or duplicated *)
  gc : gc;  (** over the driven phase *)
  alloc : Sec_core.Sec_stats.alloc_stats;  (** over the driven phase *)
}

module Make
    (X : Sec_prim.Prim_intf.EXEC)
    (B : sig
      val to_float : X.budget -> float
    end) =
struct
  module R = Sec_harness.Runner.Make (X)

  let of_maker (module M : Sec_harness.Registry.MAKER) ~threads =
    let module S = M (X) in
    let s = S.create ~max_threads:threads () in
    {
      push = (fun ~tid v -> S.push s ~tid v);
      pop = (fun ~tid -> S.pop s ~tid);
      peek = (fun ~tid -> S.peek s ~tid);
    }

  (* SEC under [config] with batch statistics on; the second component
     reads them. *)
  let sec_with_stats config ~threads =
    let module S = Sec_core.Sec_stack.Make (X) in
    let s =
      S.create_with
        ~config:{ config with Sec_core.Config.collect_stats = true }
        ~max_threads:threads ()
    in
    ( {
        push = (fun ~tid v -> S.push s ~tid v);
        pop = (fun ~tid -> S.pop s ~tid);
        peek = (fun ~tid -> S.peek s ~tid);
      },
      fun () -> S.stats s )

  let now () = Int64.to_int (X.now_ns ())

  let traced tr o =
    let span kind ~tid f =
      Array.blit Counting.cells.Cells.words (Cells.base tid) tr.threads.(tid).start
        0 Counting.width;
      let t0 = now () in
      let r = f () in
      record tr ~tid ~kind ~t0 ~t1:(now ());
      r
    in
    {
      push = (fun ~tid v -> span 0 ~tid (fun () -> o.push ~tid v));
      pop = (fun ~tid -> span 1 ~tid (fun () -> o.pop ~tid));
      peek = (fun ~tid -> span 2 ~tid (fun () -> o.peek ~tid));
    }

  (* [t_start] is the wall time set-up began, when that was before this
     call (the simulator's own set-up); [after_prefill] runs once the
     prefill is done. *)
  let run ?t_start ?trace ?(op_overhead = 0) ?(check = true)
      ?(after_prefill = ignore) ~make ~threads ~mix ~prefill ~budget ~timed () =
    let t_start = match t_start with Some t -> t | None -> wall_s () in
    let o = make () in
    let out = Outcheck.create () in
    for i = 1 to prefill do
      let v = i mod value_range in
      o.push ~tid:0 v;
      Outcheck.push out ~tid:0 v
    done;
    let setup_s = wall_s () -. t_start in
    after_prefill ();
    let lat = if timed then Array.init threads (fun _ -> Samples.create ()) else [||] in
    let observer =
      if timed then
        {
          R.timed = true;
          on_op =
            (fun ~tid ~op ~value:_ ~result:_ ~start ~finish ->
              if op <> Sec_harness.Workload.Peek then
                Samples.add lat.(tid) (Int64.to_int (Int64.sub finish start)));
        }
      else R.counting_observer
    in
    let t = match trace with Some tr -> traced tr o | None -> o in
    let push ~tid v =
      t.push ~tid v;
      Outcheck.push out ~tid v
    in
    let pop ~tid =
      let r = t.pop ~tid in
      (match r with Some v -> Outcheck.pop out ~tid v | None -> ());
      r
    in
    Sec_core.Sec_stats.alloc_reset ();
    let gc0 = gc_now () in
    let w0 = wall_s () in
    let outcome =
      R.drive ~observer ~op_overhead ~threads ~stop:(R.Timed budget) ~mix
        ~value_range ~push ~pop ~peek:t.peek ()
    in
    let run_s = wall_s () -. w0 in
    let gc = gc_diff (gc_now ()) gc0 in
    let alloc = Sec_core.Sec_stats.alloc_snapshot () in
    let rec drain () =
      match o.pop ~tid:0 with
      | Some v ->
          Outcheck.pop out ~tid:0 v;
          drain ()
      | None -> ()
    in
    if check then drain ();
    {
      ops = R.total outcome;
      elapsed = B.to_float (Option.get outcome.R.elapsed);
      setup_s;
      run_s;
      latencies = (if timed then Samples.sorted (Array.to_list lat) else [||]);
      mismatch = (if check then Outcheck.mismatch out else 0);
      gc;
      alloc;
    }
end
