(* H-Synch: hierarchical, NUMA-aware combining [Fatourou & Kallimanis,
   PPoPP 2012], an extension baseline that separates hierarchical
   combining from SEC's elimination. Threads are grouped into clusters,
   each running its own CC-Synch ({!Ccsynch}); a cluster's combiner
   serves its batch under a global TTAS lock and hands its role on only
   after releasing it. Cross-cluster traffic is paid once per *batch*
   (the lock) instead of once per operation, the hierarchical analogue
   of what SEC's aggregators achieve without a global lock.

   The published algorithm clusters threads by NUMA node. Here a
   cluster is the block of [cluster_size] consecutive thread ids (28 by
   default), not a socket: under the simulator's fill placement
   ([Topology.core_of]) sapphire's cluster 0 spans sockets 0-2 and each
   emerald cluster holds half of each socket. A socket map would need
   the topology, which [Prim_intf] does not expose. *)

module Make (P : Sec_prim.Prim_intf.S) = struct
  module Ccsynch = Ccsynch.Make (P)
  module Ttas = Ttas.Make (P)

  type ('op, 'res) t = {
    clusters : ('op, 'res) Ccsynch.t array;
    cluster_size : int;
  }

  let create ?(max_threads = 64) ?(cluster_size = 28) ~apply () =
    let batch = Ttas.with_lock (Ttas.create ()) in
    let clusters = max 1 ((max_threads + cluster_size - 1) / cluster_size) in
    {
      clusters =
        Array.init clusters (fun _ ->
            Ccsynch.create ~max_threads ~batch ~apply ());
      cluster_size;
    }

  let apply t ~tid op =
    let cluster = tid / t.cluster_size mod Array.length t.clusters in
    Ccsynch.apply t.clusters.(cluster) ~tid op
end
