(** Stable counting sort of ints by class, into caller-owned slabs. The
    bucketed schedules in {!Reduce} and {!Algos} visit one color class per
    LOCAL round, and sorting once lets a round touch only its own class
    instead of rescanning every node; [Arb_decompose] builds
    its forests and star families with it. *)

val sort :
  classes:int ->
  class_of:(int -> int) ->
  int array ->
  start:int array ->
  order:int array ->
  unit
(** [sort ~classes ~class_of items ~start ~order] writes the items whose
    class lies in [0 .. classes - 1] into [order], grouped by class and in
    [items] order within a class; class [c] occupies
    [order.(start.(c)) .. order.(start.(c + 1) - 1)]. Items with a class
    outside that range are dropped. [start] needs [classes + 1] slots and
    [order] one slot per kept item; [class_of] is called twice per item.
    Costs [O(classes + length items)]. *)
