(** Linial-style color reduction on arbitrary (semi-)graphs.

    One reduction round maps a proper [K]-coloring to a proper
    [q²]-coloring where [q] is the smallest prime exceeding
    [Δ · ⌈log₂ K⌉]: each node encodes its color as the coefficient vector
    of a polynomial of degree [< ⌈log_q K⌉] over [F_q] and publishes the
    pair [(x, p(x))] for an evaluation point [x] at which it differs from
    all neighbors (which exists because two distinct low-degree
    polynomials agree in few points — the classic cover-free-family
    argument). Iterating reaches a fixed-point palette of
    [O(Δ² log² Δ)] colors after [log* n + O(1)] rounds. *)

val smallest_prime_geq : int -> int
(** Smallest prime [>= max 2 x]. *)

val step :
  neighbors:(int -> int list) ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int
(** One reduction round, in place. [neighbors v] lists the nodes [v] can
    read (communication graph); [colors] is a proper coloring with values
    in [0, palette); returns the new palette [q²] (which may exceed the
    old one — callers should only invoke the step while it shrinks). *)

val reduce :
  neighbors:(int -> int list) ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int * int
(** Iterate {!step} while it strictly shrinks the palette. Returns
    [(final_palette, rounds)]; [colors] is updated in place and remains a
    proper coloring with values in [0, final_palette). *)

val schedule : palette:int -> max_degree:int -> (int * int) array
(** The [(q, d)] parameters of each reduction round, derived from the
    globally known initial palette alone — the fixed a-priori schedule
    every node can compute locally. Empty when the first step would not
    shrink the palette. *)

val reduce_csr :
  off:int array ->
  adj:int array ->
  nodes:int array ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int * int
(** {!reduce} over CSR rows indexed by node id: node [v]'s neighbors are
    [adj.(off.(v)) .. adj.(off.(v + 1) - 1)], as in
    {!Reduce.kw_to_delta_plus_one_csr}. A direct loop that runs the
    {!schedule} evaluated x-major: per round, each node's digits are
    written once, then every node's polynomial is evaluated at
    [x = 0, 1, ...] in turn, and a node settles at the first [x] no
    neighbor shares. Bit-identical colors and round counts to {!reduce};
    every neighbor in a row of a node of [nodes] must be in [nodes]. It
    allocates one word per node id of [colors], [O(d)] words per node of
    [nodes] and a few words per round. Raises [Invalid_argument] with
    {!step}'s message if the coloring is not proper. *)

val reduce_topo :
  topo:Tl_engine.Topology.t ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int * int
(** {!reduce_csr} over a compiled topology's rows; [nodes] must be the
    present nodes of [topo]. No engine run: the schedule is a direct
    loop. *)
