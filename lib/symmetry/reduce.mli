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

    {b KW recolors only odd halves after phase 0.} Let [b0 = c / 2(Δ+1)]
    be a node's block under its input color [c]. Its block in phase [p]
    is [b0 lsr p], and the block merges the two phase-[(p-1)] blocks
    [2i] (the even half) and [2i + 1] (the odd half); each node holds a
    slot below [Δ+1]. A phase leaves each block's slots a greedy
    coloring: every slot [x] below a node's slot is held by a neighbor in
    its block. Phase [p] visits the even half first, in slot order, so an
    even-half node with slot [s] finds every slot below [s] taken by a
    neighbor visited before it and [s] itself free (a neighbor holding
    [s] in the same block would share its color). It gets [s] back: the
    even half is a fixed point. So phase [p] only recolors the odd half
    (bit [p-1] of [b0] set), in slot order, against the slots of the
    whole even half and of the odd-half neighbors already recolored;
    nodes with [b0 lsr (p-1) = 0] never move again. The colors and the
    [Invalid_argument]s are those of recoloring every node in every
    phase; the rounds are still [2(Δ+1)] per phase, counted from the
    palette. The argument needs the input coloring to be proper on the
    rows; every pipeline passes Linial's output, which is proper.

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
    [final_palette = delta + 1] (or [palette] when it is already at most
    [delta + 1]: then no round runs and no color is checked or
    touched). Raises [Invalid_argument] if a color of [nodes] lies
    outside [0 .. palette - 1], or if some node finds all [delta + 1]
    slots taken (which [delta] at least the maximum degree rules out). *)

val kw_to_delta_plus_one_csr :
  off:int array ->
  adj:int array ->
  nodes:int array ->
  colors:int array ->
  palette:int ->
  delta:int ->
  int * int
(** {!kw_to_delta_plus_one} over CSR rows: node [v]'s neighbors are
    [adj.(off.(v)) .. adj.(off.(v + 1) - 1)]; row entries outside
    [nodes] are ignored. Phase 0 visits every node and row of [nodes];
    each later phase counting-sorts its odd half by slot in two light
    passes over [nodes] and visits only the odd half's rows, and the
    phases after the last one with an odd half are counted, not run.
    It allocates two slabs of one word per node id of [colors], one word
    per node of [nodes] and [O(delta)] words, and writes [colors] once,
    at the end, so a raise leaves them as they were. *)

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
