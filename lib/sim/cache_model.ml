(* Socket-granular MESI-flavoured cost model.

   Every simulated atomic cell is its own cache line. The cell holds its
   [line] record directly, so a line lives exactly as long as its cell:
   the model keeps no table of lines, and a dead cell's line is garbage
   like the cell itself. Each line carries an integer id (allocation
   order) for the analyses that key tables on locations. For each line
   we track the owning core (last writer, if its copy is still
   exclusive) and a bitmask of sockets holding a shared copy. Charging
   rules:

   - read: cheap if we own the line or our socket holds a copy; otherwise
     a transfer from the owner's socket (local or remote), after which our
     socket is added to the sharers.
   - write / RMW: cheap premium if we own it exclusively; otherwise a
     transfer plus an invalidation broadcast proportional to how many other
     sockets held a copy. The writer becomes the exclusive owner.

   Crucially, a line is a *serial resource in time*: any access that has
   to move the line (a miss, an RMW from a non-owner, an invalidating
   write) occupies it until the transfer completes, so concurrent misses
   on one hot line queue up behind each other. This is what makes a
   contended CAS/FAA cell a sequential bottleneck — the central phenomenon
   the SEC paper's figures are about. Cache hits do not occupy the line.

   [access] therefore takes the accessor's current virtual time and
   returns its new virtual time. *)

type kind = Read | Write | Rmw

type line = {
  id : int; (* allocation order within one model *)
  mutable owner : int; (* core id of exclusive owner, -1 if none *)
  mutable owner_socket : int;
  mutable sharers : int; (* socket bitmask (<= 62 sockets) *)
  mutable busy_until : int; (* virtual time the line is free again *)
}

type t = {
  (* The charging constants, copied out of [Topology.costs] at creation:
     [access] reads several per call, and flat int fields spare it two
     pointer hops into the topology record per simulated access. *)
  l1_hit : int;
  shared_hit : int;
  local_transfer : int;
  remote_transfer : int;
  rmw_extra : int;
  invalidate_per_socket : int;
  mutable next_id : int;
  (* traffic statistics *)
  mutable transfers : int;
  mutable remote_transfers : int;
  mutable invalidations : int;
}

let create topo =
  let c = topo.Topology.costs in
  {
    l1_hit = c.Topology.l1_hit;
    shared_hit = c.Topology.shared_hit;
    local_transfer = c.Topology.local_transfer;
    remote_transfer = c.Topology.remote_transfer;
    rmw_extra = c.Topology.rmw_extra;
    invalidate_per_socket = c.Topology.invalidate_per_socket;
    next_id = 0;
    transfers = 0;
    remote_transfers = 0;
    invalidations = 0;
  }

(* Allocation writes the line, so a fresh cell starts exclusively owned by
   the creating core: its own subsequent accesses are L1 hits and only
   *other* threads pay a transfer — as on real hardware. *)
let new_line t ~core ~socket =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    id;
    owner = core;
    owner_socket = socket;
    sharers = 1 lsl socket;
    busy_until = 0;
  }

(* A line no model has charged: schedulers that do not price accesses
   ({!Explore}) hand these out and key their tables on [id]. *)
let line_of_id id =
  { id; owner = -1; owner_socket = -1; sharers = 0; busy_until = 0 }

let[@inline] line_id line = line.id

let popcount =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0

let[@inline] owner line = line.owner
let[@inline] busy_until line = line.busy_until

(* Returns the accessor's new virtual time after performing [kind] on
   [line] at time [now]. *)
let access t ~core ~socket ~line ~now kind =
  let bit = 1 lsl socket in
  (* A hit costs [cost] without occupying the line; a miss queues on the
     line and occupies it for the duration of the transfer. *)
  let hit cost = now + cost in
  let miss cost =
    let start = Int.max now line.busy_until in
    let finish = start + cost in
    line.busy_until <- finish;
    finish
  in
  match kind with
  | Read ->
      if line.owner = core then hit t.l1_hit
      else if line.sharers land bit <> 0 then hit t.shared_hit
      else begin
        (* Pull a copy from wherever the line lives. *)
        t.transfers <- t.transfers + 1;
        let cost =
          if line.owner_socket = -1 || line.owner_socket = socket then
            t.local_transfer
          else begin
            t.remote_transfers <- t.remote_transfers + 1;
            t.remote_transfer
          end
        in
        line.sharers <- line.sharers lor bit;
        (* A read demotes any exclusive owner to shared. *)
        if line.owner <> -1 then
          line.sharers <- line.sharers lor (1 lsl line.owner_socket);
        line.owner <- -1;
        miss cost
      end
  | Write | Rmw ->
      let premium = match kind with Rmw -> t.rmw_extra | _ -> 0 in
      if line.owner = core then hit (t.l1_hit + premium)
      else begin
        let holders =
          line.sharers
          lor (if line.owner = -1 then 0 else 1 lsl line.owner_socket)
        in
        let other_sockets = popcount (holders land lnot bit) in
        let base =
          if holders = 0 then t.local_transfer
          else if line.owner_socket = socket || holders land bit <> 0 then begin
            t.transfers <- t.transfers + 1;
            t.local_transfer
          end
          else begin
            t.transfers <- t.transfers + 1;
            t.remote_transfers <- t.remote_transfers + 1;
            t.remote_transfer
          end
        in
        if other_sockets > 0 then
          t.invalidations <- t.invalidations + other_sockets;
        line.owner <- core;
        line.owner_socket <- socket;
        line.sharers <- bit;
        miss (base + premium + (other_sockets * t.invalidate_per_socket))
      end

type traffic = { transfers : int; remote_transfers : int; invalidations : int }

let traffic (m : t) =
  {
    transfers = m.transfers;
    remote_transfers = m.remote_transfers;
    invalidations = m.invalidations;
  }

let lines (m : t) = m.next_id
