(** Cole-Vishkin style 3-coloring of rooted forests in [O(log* n)] rounds
    ([GPS87]).

    The forest is given as a parent array over (a subset of) the nodes of a
    base graph; communication happens only along parent edges, so only the
    forest structure matters. The returned round count is the exact number
    of synchronous LOCAL rounds the algorithm takes: one per bit-reduction
    iteration, plus the shift-down / recolor rounds of the 6-to-3 phase. *)

val color3 :
  nodes:int array -> parent:int array -> ids:int array -> color:int array -> int
(** [color3 ~nodes ~parent ~ids ~color] 3-colors the forest on [nodes]
    (each node listed once) in which [parent.(v)] is the parent of [v]
    ([-1] at roots; parents must be in [nodes], else [Invalid_argument]). [ids] are globally unique
    positive identifiers indexed by node. It writes [color.(v) ∈ {0,1,2}]
    for every [v ∈ nodes], with adjacent (parent-child) nodes colored
    differently, and returns the rounds. Slots of [color] outside
    [nodes] are left as they are, so one caller-owned array serves many
    forests.

    The kernel renumbers the forest by position in [nodes] and keeps its
    colors, a [next] buffer, the parent positions and the children (in
    CSR form) in arrays the size of the forest; a round is one pass over
    them, and the 6-to-3 recolor takes its used colors as a bitmask.
    Rounds are synchronous, so the order of [nodes] changes neither the
    colors nor the rounds. *)

val log_star : int -> int
(** [log_star x]: number of times [log2] must be applied to reach a value
    at most 1. *)
