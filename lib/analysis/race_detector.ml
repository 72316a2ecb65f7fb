(* Vector-clock happens-before tracker for the simulated substrate.

   Every atomic access performed under {!Sec_sim.Sim} or
   {!Sec_sim.Explore} is fed to an installed detector as a
   (fiber, location, operation) event. The detector maintains:

   - a vector clock per fiber (program order);
   - per location, a *release clock* — the join of the clocks of every
     write so far — which readers and RMWs acquire;
   - per location, the epoch of the last *plain store* ([Atomic.set]);
   - per location, a write counter and, per fiber, the counter value
     observed at its last read — the ingredients of ABA detection.

   The happens-before model is deliberately weaker than OCaml's
   sequentially-consistent atomics and encodes the repo's *discipline*
   rather than the memory model:

   - [get] acquires (joins the location's release clock): reading a value
     orders you after every write that produced it;
   - [compare_and_set], [exchange], [fetch_and_add] acquire and release:
     an RMW is a synchronisation point in both directions;
   - [set] releases but does {e not} acquire: a plain store is blind — it
     overwrites whatever is there without looking.

   Under this model two plain stores to the same location that are not
   ordered by an acquire chain form a {e write-write race}: one of them
   clobbers the other and no reader can tell. This is exactly the
   get-then-set lost-update idiom, a double lock-release, or an unowned
   slot overwrite — while correct CAS-retry loops, combiner hand-offs and
   lock-protected stores all remain clean because ownership was acquired
   through an RMW or an observing read. Racing a plain store against a
   CAS is *not* flagged: CAS-managed locations are designed to race, and
   the loser of such a pair is the CAS, which detects it.

   An {e ABA hazard} is reported when a successful CAS matches a value
   that was overwritten at least twice since the CASing fiber last read
   the location: the value went A -> ... -> A and the CAS cannot tell.
   With immutable freshly-allocated nodes this is usually benign, so ABA
   hazards are reported separately from races.

   Reports carry best-effort source locations captured from the OCaml
   backtrace at the two accesses and at the cell's allocation site. *)

type kind = Write_write_race | Aba_hazard

type hazard = {
  kind : kind;
  loc : int;  (** simulator location id of the atomic cell *)
  fiber_a : int;  (** fiber of the earlier access *)
  fiber_b : int;  (** fiber whose access triggered the report *)
  site_a : string;  (** source location of the earlier access *)
  site_b : string;  (** source location of the triggering access *)
  alloc_site : string;  (** where the cell was allocated *)
}

(* ------------------------------------------------------------------ *)
(* Vector clocks, indexed by a dense fiber index.                        *)

module Clock = struct
  type t = int array ref

  let create () = ref (Array.make 8 0)

  let ensure (c : t) n =
    if Array.length !c <= n then begin
      let bigger = Array.make (Int.max (2 * Array.length !c) (n + 1)) 0 in
      Array.blit !c 0 bigger 0 (Array.length !c);
      c := bigger
    end

  let get (c : t) i = if i < Array.length !c then !c.(i) else 0

  let bump (c : t) i =
    ensure c i;
    !c.(i) <- !c.(i) + 1

  let join (dst : t) (src : t) =
    ensure dst (Array.length !src - 1);
    Array.iteri (fun i v -> if v > !dst.(i) then !dst.(i) <- v) !src

  let copy (c : t) : t = ref (Array.copy !c)
end

(* ------------------------------------------------------------------ *)

type epoch = { by : int; by_fid : int; at : int; site : string }
(* [by]: dense fiber index of the writer; [by_fid]: its public fiber id;
   [at]: the writer's clock component at the time of the store. *)

type loc_state = {
  mutable release : Clock.t;  (* join of all writers' clocks *)
  mutable last_set : epoch option;  (* last plain store *)
  mutable writes : int;  (* total writes (set/rmw/make) *)
  mutable alloc_site : string;
  last_read_at : (int, int) Hashtbl.t;  (* fiber idx -> writes seen *)
}

type t = {
  clocks : (int, Clock.t) Hashtbl.t;  (* fiber id -> clock *)
  index : (int, int) Hashtbl.t;  (* fiber id -> dense index *)
  mutable next_index : int;
  locs : (int, loc_state) Hashtbl.t;
  exited : Clock.t;  (* join of the clocks of finished fibers *)
  mutable hazards_rev : hazard list;
  mutable dropped : int;
  max_hazards : int;
  capture_sites : bool;
}

let create ?(max_hazards = 64) ?(capture_sites = true) () =
  {
    clocks = Hashtbl.create 64;
    index = Hashtbl.create 64;
    next_index = 0;
    locs = Hashtbl.create 256;
    exited = Clock.create ();
    hazards_rev = [];
    dropped = 0;
    max_hazards;
    capture_sites;
  }

let fiber_index t fid =
  match Hashtbl.find_opt t.index fid with
  | Some i -> i
  | None ->
      let i = t.next_index in
      t.next_index <- i + 1;
      Hashtbl.add t.index fid i;
      i

let clock_of t fid =
  match Hashtbl.find_opt t.clocks fid with
  | Some c -> c
  | None ->
      let c = Clock.create () in
      Hashtbl.add t.clocks fid c;
      c

(* Source location of the innermost frame outside the substrate and this
   module — the algorithm code that performed the access. *)
let here t =
  if not t.capture_sites then "<sites off>"
  else
    let bt = Printexc.get_callstack 24 in
    match Printexc.backtrace_slots bt with
    | None -> "<no debug info>"
    | Some slots ->
        (* Engine frames live under lib/sim and lib/analysis; stdlib
           frames (effect.ml, fun.ml, list.ml, ...) are recorded with
           bare filenames, while workspace code always carries a
           directory. Everything else is the algorithm under test. *)
        let internal file =
          (not (String.contains file '/'))
          || String.starts_with ~prefix:"lib/sim/" file
          || String.starts_with ~prefix:"lib/analysis/" file
        in
        let rec scan i =
          if i >= Array.length slots then "<unknown>"
          else
            match Printexc.Slot.location slots.(i) with
            | Some { Printexc.filename; line_number; _ }
              when not (internal filename) ->
                Printf.sprintf "%s:%d" filename line_number
            | _ -> scan (i + 1)
        in
        scan 0

let loc_state t loc site =
  match Hashtbl.find_opt t.locs loc with
  | Some s -> s
  | None ->
      let s =
        {
          release = Clock.create ();
          last_set = None;
          writes = 0;
          alloc_site = site;
          last_read_at = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.locs loc s;
      s

let report t hz =
  if List.length t.hazards_rev >= t.max_hazards then t.dropped <- t.dropped + 1
  else t.hazards_rev <- hz :: t.hazards_rev

(* ------------------------------------------------------------------ *)
(* Event feed                                                           *)

let on_make t ~fiber ~loc =
  let idx = fiber_index t fiber in
  let c = clock_of t fiber in
  Clock.bump c idx;
  let site = here t in
  let s = loc_state t loc site in
  s.alloc_site <- site;
  s.writes <- s.writes + 1;
  s.release <- Clock.copy c

let on_read t ~fiber ~loc =
  let idx = fiber_index t fiber in
  let c = clock_of t fiber in
  Clock.bump c idx;
  let s = loc_state t loc "<unallocated>" in
  Clock.join c s.release;
  Hashtbl.replace s.last_read_at idx s.writes

let on_write t ~fiber ~loc =
  let idx = fiber_index t fiber in
  let c = clock_of t fiber in
  Clock.bump c idx;
  let site = here t in
  let s = loc_state t loc "<unallocated>" in
  (match s.last_set with
  | Some e when e.by <> idx && Clock.get c e.by < e.at ->
      (* The previous plain store is not ordered before this one: two
         blind writes race. *)
      report t
        {
          kind = Write_write_race;
          loc;
          fiber_a = e.by_fid;
          fiber_b = fiber;
          site_a = e.site;
          site_b = site;
          alloc_site = s.alloc_site;
        }
  | _ -> ());
  s.writes <- s.writes + 1;
  s.last_set <- Some { by = idx; by_fid = fiber; at = Clock.get c idx; site };
  (* Release without acquiring: the location's clock learns about us, we
     learn nothing about prior writers. *)
  Clock.join s.release c

let on_rmw t ~fiber ~loc =
  let idx = fiber_index t fiber in
  let c = clock_of t fiber in
  Clock.bump c idx;
  let s = loc_state t loc "<unallocated>" in
  (* Acquire + release. *)
  Clock.join c s.release;
  Clock.join s.release c;
  s.writes <- s.writes + 1;
  Hashtbl.replace s.last_read_at idx s.writes

let on_cas t ~fiber ~loc ~success =
  let idx = fiber_index t fiber in
  let c = clock_of t fiber in
  Clock.bump c idx;
  let s = loc_state t loc "<unallocated>" in
  Clock.join c s.release;
  (if success then begin
     (match Hashtbl.find_opt s.last_read_at idx with
     | Some seen when s.writes - seen >= 2 ->
         (* The value matched, yet the location was overwritten at least
            twice since this fiber last looked: A -> B -> A. *)
         report t
           {
             kind = Aba_hazard;
             loc;
             fiber_a = fiber;
             fiber_b = fiber;
             site_a = s.alloc_site;
             site_b = here t;
             alloc_site = s.alloc_site;
           }
     | _ -> ());
     Clock.join s.release c;
     s.writes <- s.writes + 1
   end);
  Hashtbl.replace s.last_read_at idx s.writes

(* Fork/join edges of the scheduler itself. *)

let on_spawn t ~parent ~child =
  let pc = clock_of t parent in
  let cc = clock_of t child in
  ignore (fiber_index t child);
  Clock.join cc pc

let on_exit t ~fiber = Clock.join t.exited (clock_of t fiber)
let on_join t ~fiber = Clock.join (clock_of t fiber) t.exited

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)

let hazards t = List.rev t.hazards_rev
let races t = List.filter (fun h -> h.kind = Write_write_race) (hazards t)
let aba_hazards t = List.filter (fun h -> h.kind = Aba_hazard) (hazards t)
let dropped t = t.dropped

let pp_hazard ppf h =
  match h.kind with
  | Write_write_race ->
      Format.fprintf ppf
        "write-write race on cell %d (alloc %s): fiber %d at %s vs fiber %d \
         at %s"
        h.loc h.alloc_site h.fiber_a h.site_a h.fiber_b h.site_b
  | Aba_hazard ->
      Format.fprintf ppf
        "ABA hazard on cell %d (alloc %s): fiber %d CAS at %s succeeded \
         after >= 2 intervening writes"
        h.loc h.alloc_site h.fiber_b h.site_b

let hazard_to_string h = Format.asprintf "%a" pp_hazard h

(* ------------------------------------------------------------------ *)
(* Global installation point used by the simulated substrate.

   The schedulers run fibers one at a time in a single domain, so a plain
   ref is safe; [install]/[uninstall] bracket a simulation or an
   exploration run. *)

let active : t option ref = ref None

let install t = active := Some t
let uninstall () = active := None

let with_detector t f =
  let saved = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := saved) f
