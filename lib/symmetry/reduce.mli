(** Color-reduction schedules below the Linial fixed point.

    {!kw_to_delta_plus_one} is the Kuhn-Wattenhofer block-parallel
    reduction: the palette is cut into blocks of [2(Δ+1)] colors, every
    block is reduced to [Δ+1] colors in parallel by a one-class-per-round
    greedy pass, and the process repeats — halving the palette every
    [2(Δ+1)] rounds, for [O(Δ log (K / Δ))] rounds in total.

    {!to_bound} is the plain one-color-class-per-round greedy reduction
    ([K] rounds), used for the final pass to per-node bounds such as
    [deg + 1] (empty classes still occupy a slot in the schedule — nodes
    only know [K], not which classes are inhabited).

    Both are simulated as bucketed class schedules: the nodes are
    counting-sorted by the class that acts in each round, so a round
    visits only its own class. The order in which a round visits its
    class cannot change any color, because the nodes that act in one
    round never read each other: in a KW round they share their
    phase-start color (two nodes of one block) or sit in different blocks
    (which ignore each other), and in a [to_bound] round they share a
    color. A proper coloring makes nodes of one color non-adjacent. The
    round counts are those of the LOCAL schedule, inhabited or not.

    Each schedule takes its adjacency either as a [neighbors] callback,
    read once per node into CSR rows, or directly as CSR rows [off]/[adj]
    indexed by node id (a {!Tl_engine.Topology.t}'s [off] and [adj]). *)

val kw_to_delta_plus_one :
  neighbors:(int -> int list) ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  delta:int ->
  int * int
(** Reduce a proper coloring to the palette [0 .. delta] in place;
    [delta] must be at least the maximum degree of the communication
    graph. Returns [(final_palette, rounds)] with
    [final_palette = delta + 1]. *)

val kw_to_delta_plus_one_csr :
  off:int array ->
  adj:int array ->
  nodes:int array ->
  colors:int array ->
  palette:int ->
  delta:int ->
  int * int
(** {!kw_to_delta_plus_one} over CSR rows: node [v]'s neighbors are
    [adj.(off.(v)) .. adj.(off.(v + 1) - 1)]. *)

val to_bound :
  neighbors:(int -> int list) ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  bound:(int -> int) ->
  int
(** Reduce in place so that each node [v]'s final color lies in
    [0 .. bound v - 1]; requires [bound v >= degree v + 1] (there is
    always a free color). Returns the number of rounds charged
    ([palette]). *)

val to_bound_csr :
  off:int array ->
  adj:int array ->
  nodes:int array ->
  colors:int array ->
  palette:int ->
  bound:(int -> int) ->
  int
(** {!to_bound} over CSR rows, as in {!kw_to_delta_plus_one_csr}. *)
