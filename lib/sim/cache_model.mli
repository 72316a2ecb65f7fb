(** Socket-granular cache-coherence cost model: every simulated atomic
    cell is a cache line with an exclusive owner and a socket-level
    sharer set; accesses are charged L1/shared/local/remote costs plus
    invalidation broadcasts. See the implementation header for the rules. *)

type kind = Read | Write | Rmw

type t

(** One simulated cache line. The model keeps no reference to it: the
    cell that owns it does, so it is collected with that cell. *)
type line

val create : Topology.t -> t

(** Allocate a fresh line with the model's next id. The line starts
    exclusively owned by the creating core (allocation writes it). *)
val new_line : t -> core:int -> socket:int -> line

(** A line carrying only [id], owned by nobody. For schedulers that do
    not charge accesses and key their tables on the id. *)
val line_of_id : int -> line

(** The line's id: allocation order within its model (or the id given
    to {!line_of_id}). *)
val line_id : line -> int

(** [access t ~core ~socket ~line ~now kind] performs one access at
    virtual time [now] and returns the accessor's new virtual time.
    Misses and RMWs from non-owners queue on the line's availability (a
    hot line is a serial resource); hits are charged without occupying
    the line. *)
val access : t -> core:int -> socket:int -> line:line -> now:int -> kind -> int

(** The core that holds the line exclusively (its last writer, or its
    creator), or -1 once a read from another socket has demoted it to
    shared. Only that core writes the line without a transfer; any
    other write is a transfer and occupies the line until it lands. *)
val owner : line -> int

(** The virtual time the line's latest transfer (a miss, or a write
    from a non-owner) completes, before the accessor's jitter. *)
val busy_until : line -> int

type traffic = { transfers : int; remote_transfers : int; invalidations : int }

(** Cumulative coherence traffic since [create]. *)
val traffic : t -> traffic

(** The lines {!new_line} created since [create]: one per simulated
    cell. *)
val lines : t -> int
