(** Shard plans: a compiled {!Tl_engine.Topology} partitioned into [S]
    contiguous shards with ghost (halo) vertices and precomputed
    exchange routes.

    A plan is the static half of the process backend ([Tl_proc]), whose
    workers each run one shard's {!Local} round body: every proc run
    builds its own from the run's topology and shard count ([O(n + m)],
    small next to the run's forks and prologues). Partitioning slices the
    topology's [present_nodes] array into [S] fixed contiguous chunks —
    the same deterministic discipline as {!Tl_engine.Pool}'s chunking —
    so shard membership is a pure function of [(n_present, S, index)],
    never of runtime timing.

    Each shard gets a {e compact} view of its part of the graph:

    - a local index space [0 .. n_local): owned nodes first
      ([0 .. n_owned)), then the shard's {e halo} — one ghost slot per
      remote node adjacent to an owned node, in first-discovery order of
      the owned CSR rows;
    - a sub-CSR over the owned rows whose [adj] entries are {e local}
      indices (owned or halo), plus the global edge id per slot — the
      executor's hot loop therefore touches only shard-local arrays of
      size [O(n_owned + halo)], which is what makes a shard's working
      set cache-resident where the monolithic snapshot is not;
    - reverse {e halo rows}: for every halo slot, the owned locals
      adjacent to it — used to grow the shard's active set when a ghost
      value changes during an exchange;
    - {e exchange routes}: for every owned node, the (target shard,
      target halo slot) pairs that must receive its state when it
      changes, in ascending target order.

    The local index spaces deliberately mirror a distributed memory
    layout: nothing in a shard's arrays references another shard's
    address space except through the routes. *)

type shard = private {
  id : int;
  owned : int array;
      (** Global ids of the owned nodes, ascending — a contiguous slice
          of the topology's [present_nodes]. *)
  n_owned : int;
  n_local : int;  (** owned + halo *)
  l2g : int array;
      (** local index -> global node id, length [n_local]. Entries
          [0 .. n_owned) equal [owned]; the rest are the halo. *)
  off : int array;  (** sub-CSR row offsets over owned locals, length
                        [n_owned + 1] *)
  adj : int array;  (** neighbor {e local} index per slot *)
  eid : int array;  (** global edge id per slot *)
  halo_off : int array;
      (** halo-row offsets, length [n_local - n_owned + 1]; row [h]
          describes halo local [n_owned + h] *)
  halo_adj : int array;  (** owned locals adjacent to each halo slot *)
  xoff : int array;
      (** exchange-route offsets per owned local, length [n_owned + 1] *)
  xshard : int array;  (** route target shard id *)
  xslot : int array;  (** route target halo slot (local index there) *)
  cut_edges : int;
      (** CSR slots of owned rows whose neighbor is remote, i.e. edges
          leaving this shard (a cross edge is counted by both of its
          endpoint shards). *)
}

type t = private {
  topo : Tl_engine.Topology.t;
  shards : shard array;
  owner : int array;
      (** global node id -> owning shard, [-1] for absent nodes *)
}

val build : topo:Tl_engine.Topology.t -> shards:int -> t
(** Partition a snapshot into [max 1 (min shards n_present)] shards.
    [O(n + m)] time and memory. Deterministic: the same topology and
    shard count always produce the identical plan. *)

val cut_edges_total : t -> int

val encode_shard : shard -> bytes
(** Versioned binary image of one shard's sub-CSR (magic ["TLS"]), used
    by the process backend's topology prologue frame. [decode_shard] is
    its exact inverse. *)

val decode_shard : bytes -> shard
(** Inverse of {!encode_shard}. Raises [Invalid_argument] with a
    [Plan.decode_shard:] message on truncation, bad magic, version
    mismatch, trailing bytes, or inconsistent array lengths — never
    returns a structurally invalid shard. *)

val imbalance_permille : t -> int
(** [max_s n_owned(s) * shards * 1000 / n_present], i.e. 1000 for a
    perfectly balanced partition; 1000 when the plan is empty. *)
