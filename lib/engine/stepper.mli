(** The synchronous LOCAL round body (Definition 5), written once for
    every stepper but the [Naive] reference: {!Engine}'s [Seq]/[Par]
    stepper, {!Flat}, and the shard-local body [Tl_shard.Local] behind
    the [Shard] backend and the process backend's workers.

    A round is {e compute → commit → advance}:

    + {!compute} steps the frontier into the store's scratch, reading
      only published states, optionally fanned over the domain {!Team};
    + {!commit} publishes the changed nodes in frontier order, keeps
      the halted count and, under [Active_set], marks each changed node
      and its stepping neighbors for the next frontier;
    + {!advance} makes the next frontier current, rebuilding it
      ascending when it is dense.

    Under [Full_scan] every stepping node stays active and no frontier
    is kept. Node states live behind a {!store}; the boxed one is
    {!boxed}, the int-slab one [Flat.store]. Every bound the loops skip
    is covered by the {!csr} invariants. *)

type scheduling =
  | Active_set  (** re-step only nodes with a changed 1-hop neighborhood *)
  | Full_scan  (** re-step every present node every round *)

val par_grain : int ref
(** See [Engine.par_grain], its public name. *)

type csr = {
  n_owned : int;  (** ids [0 .. n_owned) have rows; only they step *)
  n_local : int;
      (** ids a row may name; [n_owned .. n_local) are a shard's ghosts,
          stepped by their owners *)
  off : int array;  (** row offsets, length [n_owned + 1] *)
  adj : int array;  (** neighbor id per slot, [< n_local] *)
  eid : int array;  (** global edge id per slot *)
  nodes : int array;
      (** the ids that step, ascending: the present nodes, or every
          owned id *)
}
(** The graph a run steps over: the whole compiled topology
    ([n_owned = n_local = n_base], see {!of_topology}) or a shard's
    sub-CSR over local ids. *)

val of_topology : Topology.t -> csr

type store = {
  step : worker:int -> round:int -> int array -> int -> int -> unit;
      (** [step ~worker ~round active lo hi] computes the next state of
          [active.(lo) .. active.(hi-1)] into the store's scratch;
          [worker] indexes per-worker scratch. *)
  publish : int -> bool;
      (** [publish v]: if [v]'s computed state differs from its
          published one, publish it and return [true]. *)
  halted : (int -> bool) option;
      (** The halting predicate on [v]'s published state — [Some]
          exactly when the run stops on halting. *)
}

type t

val create : sched:scheduling -> ?on_change:(int -> unit) -> csr -> store -> t
(** Every node of [csr.nodes] starts active. Evaluates [store.halted]
    once per stepping node, ascending. [commit] calls [on_change v]
    last for every node [v] it publishes. *)

val compute : t -> par:int -> round:int -> unit
(** Step the frontier: inline, or in [p = min par count] fixed
    contiguous chunks on the team when [count > !par_grain * p]. The
    split never changes results, only which domain computes them. *)

val commit : t -> int
(** Publish the computed states; returns how many changed. *)

val wake : t -> int -> unit
(** [wake t v]: owned [v]'s neighborhood changed outside {!commit} (a
    ghost was written) — under [Active_set], [v] steps next round. *)

val advance : t -> unit
(** Swap in the next frontier (no-op under [Full_scan]). *)

val round : t -> par:int -> round:int -> int
(** {!compute}, {!commit}, {!advance}: one whole round of a run with no
    exchange. Returns how many nodes changed. *)

val n_active : t -> int
(** Nodes the next round steps. *)

val unhalted : t -> int
(** Stepping nodes whose published state is not halted (0 when the
    store has no halting predicate). *)

val boxed :
  ?l2g:int array ->
  csr ->
  init:(int -> 'state) ->
  step:
    (round:int ->
    node:int ->
    'state ->
    neighbors:(int * int * 'state) list ->
    'state) ->
  equal:('state -> 'state -> bool) ->
  halted:('state -> bool) option ->
  'state array * store
(** The boxed store: states in an array of [n_local] slots, each
    initialized by [init] of its global id ([l2g], the identity when
    absent). A step sees global node and edge ids and its neighbors in
    the CSR's incident order, so a step function cannot tell a shard
    from the whole graph. Returns the array — a shard backend writes
    ghosts into it — with the store over it. *)
