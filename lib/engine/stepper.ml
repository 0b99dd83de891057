(* The synchronous round body behind every non-reference stepper; see
   stepper.mli. Bounds are established by the csr invariants (the
   frontier holds stepping ids [< n_owned], rows [off.(v) .. off.(v+1))
   index [adj], [adj] entries are [< n_local]), hence the unsafe
   accesses. The loops build no closure and their refs never escape, so
   a round allocates nothing beyond what the store's own step does. *)

type scheduling = Active_set | Full_scan

let par_grain = ref 2048

type csr = {
  n_owned : int;
  n_local : int;
  off : int array;
  adj : int array;
  eid : int array;
  nodes : int array;
}

let of_topology (topo : Topology.t) =
  let n = topo.Topology.n_base in
  {
    n_owned = n;
    n_local = n;
    off = topo.Topology.off;
    adj = topo.Topology.adj;
    eid = topo.Topology.eid;
    nodes = topo.Topology.present_nodes;
  }

type store = {
  step : worker:int -> round:int -> int array -> int -> int -> unit;
  publish : int -> bool;
  halted : (int -> bool) option;
}

type t = {
  csr : csr;
  sched : scheduling;
  store : store;
  on_change : (int -> unit) option;
  mutable active : int array;  (* this round's frontier, [0 .. n_active) *)
  mutable n_active : int;
  mutable pending : int array;  (* the next frontier being built *)
  mutable n_pending : int;
  dirty : bool array;  (* membership bitmap for [pending] *)
  halted_f : bool array;
  mutable unhalted : int;
}

let create ~sched ?on_change csr store =
  let n = Array.length csr.nodes in
  let t =
    {
      csr;
      sched;
      store;
      on_change;
      active = Array.copy csr.nodes;
      n_active = n;
      pending = Array.make (max 1 n) 0;
      n_pending = 0;
      dirty = Array.make (max 1 csr.n_owned) false;
      halted_f =
        Array.make (if Option.is_some store.halted then csr.n_owned else 0) true;
      unhalted = 0;
    }
  in
  Option.iter
    (fun h ->
      Array.iter
        (fun v ->
          let hv = h v in
          t.halted_f.(v) <- hv;
          if not hv then t.unhalted <- t.unhalted + 1)
        csr.nodes)
    store.halted;
  t

let n_active t = t.n_active
let unhalted t = t.unhalted

(* In Par mode the frontier is cut into [p] fixed contiguous chunks, one
   worker each: every active node is written by exactly one domain, all
   reads go to published states which no one writes during the phase,
   and the team barrier orders the writes before the commit — so the
   result is bit-identical to Seq for any [p]. A round fans out only
   when every chunk clears [par_grain]; inline vs. team never changes
   which state a node computes, only which domain computes it. *)
let compute t ~par ~round =
  let count = t.n_active and active = t.active and step = t.store.step in
  let p = max 1 (min par (min count Team.max_workers)) in
  if p = 1 || count <= !par_grain * p then step ~worker:0 ~round active 0 count
  else begin
    let chunk = (count + p - 1) / p in
    Team.run ~workers:p (fun w ->
        let lo = w * chunk and hi = min count ((w + 1) * chunk) in
        if lo < hi then step ~worker:w ~round active lo hi)
  end

let[@inline] mark t v =
  if not (Array.unsafe_get t.dirty v) then begin
    Array.unsafe_set t.dirty v true;
    Array.unsafe_set t.pending t.n_pending v;
    t.n_pending <- t.n_pending + 1
  end

let wake t v = match t.sched with Full_scan -> () | Active_set -> mark t v

(* Sequential, O(active + changed * deg). Unchanged nodes keep their
   published state without any copying. Neighbors at or above [n_owned]
   are a shard's ghosts: their owners step them. *)
let commit t =
  let changed = ref 0 in
  let store = t.store and active = t.active in
  let off = t.csr.off and adj = t.csr.adj and n_owned = t.csr.n_owned in
  for i = 0 to t.n_active - 1 do
    let v = Array.unsafe_get active i in
    if store.publish v then begin
      incr changed;
      (match store.halted with
      | None -> ()
      | Some h ->
        let hv = h v in
        if hv <> Array.unsafe_get t.halted_f v then begin
          Array.unsafe_set t.halted_f v hv;
          t.unhalted <- (t.unhalted + if hv then -1 else 1)
        end);
      (match t.sched with
      | Full_scan -> ()
      | Active_set ->
        mark t v;
        for j = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
          let u = Array.unsafe_get adj j in
          if u < n_owned then mark t u
        done);
      match t.on_change with None -> () | Some f -> f v
    end
  done;
  !changed

(* The marking above emits the next frontier in a jumbled order; for a
   dense set that order wrecks cache locality in the following compute
   phase, so rebuild it ascending from the bitmap. The scan covers only
   the ids that step — the bitmap itself when they are the whole id
   range, else [csr.nodes] (no other id is ever marked, so the order is
   the bitmap's) — and is negligible when the set is a constant fraction
   of them. Sparse frontiers keep the unordered list: a full scan per
   round would erase the active-set savings. Node order never affects
   the computed states, only memory-access locality. *)
let advance t =
  match t.sched with
  | Full_scan -> ()
  | Active_set ->
    let k = t.n_pending and nodes = t.csr.nodes in
    let n = Array.length nodes in
    let dirty = t.dirty and pending = t.pending in
    if k * 8 >= n then begin
      let whole = n = t.csr.n_owned in
      let idx = ref 0 in
      for i = 0 to n - 1 do
        let v = if whole then i else Array.unsafe_get nodes i in
        if Array.unsafe_get dirty v then begin
          Array.unsafe_set dirty v false;
          Array.unsafe_set pending !idx v;
          incr idx
        end
      done
    end
    else
      for i = 0 to k - 1 do
        Array.unsafe_set dirty (Array.unsafe_get pending i) false
      done;
    t.pending <- t.active;
    t.active <- pending;
    t.n_active <- k;
    t.n_pending <- 0

let round t ~par ~round =
  compute t ~par ~round;
  let changed = commit t in
  advance t;
  changed

(* ---------- the boxed store ---------- *)

let[@inline] global l2g l =
  match l2g with None -> l | Some m -> Array.unsafe_get m l

let boxed ?l2g csr ~init ~step ~equal ~halted =
  let off = csr.off and adj = csr.adj and eid = csr.eid in
  let st = Array.init csr.n_local (fun l -> init (global l2g l)) in
  let nx = Array.sub st 0 csr.n_owned in
  let step ~worker:_ ~round active lo hi =
    for i = lo to hi - 1 do
      let v = Array.unsafe_get active i in
      (* Neighbor triples in ascending incident order, built from the CSR
         row. Iterative reverse build: hub nodes would overflow the stack
         under naive recursion. *)
      let acc = ref [] in
      for j = Array.unsafe_get off (v + 1) - 1 downto Array.unsafe_get off v do
        let u = Array.unsafe_get adj j in
        acc :=
          (global l2g u, Array.unsafe_get eid j, Array.unsafe_get st u) :: !acc
      done;
      Array.unsafe_set nx v
        (step ~round ~node:(global l2g v) (Array.unsafe_get st v)
           ~neighbors:!acc)
    done
  in
  let publish v =
    let s' = Array.unsafe_get nx v in
    (not (equal s' (Array.unsafe_get st v)))
    && begin
         Array.unsafe_set st v s';
         true
       end
  in
  let halted = Option.map (fun h v -> h (Array.unsafe_get st v)) halted in
  (st, { step; publish; halted })
