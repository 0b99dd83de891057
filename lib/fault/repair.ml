module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Flat = Tl_engine.Flat
module Topology = Tl_engine.Topology

(* ---- checkers ---- *)

let check_flood ~sg ~source ~labels =
  let n = Graph.n_nodes (Semi_graph.base sg) in
  if not (Semi_graph.node_present sg source) then begin
    let ok = ref true in
    for v = 0 to n - 1 do
      if Semi_graph.node_present sg v && labels.(v) <> 0 then ok := false
    done;
    !ok
  end
  else begin
    let dist = Semi_graph.underlying_distances sg source in
    let ok = ref true in
    for v = 0 to n - 1 do
      if Semi_graph.node_present sg v then begin
        let want = if dist.(v) >= 0 then 1 else 0 in
        if labels.(v) <> want then ok := false
      end
    done;
    !ok
  end

let check_mis ~sg ~labels =
  let ok = ref true in
  List.iter
    (fun v ->
      let s = labels.(v) in
      if s <> 1 && s <> 2 then ok := false
      else begin
        let nbrs = Semi_graph.rank2_neighbors sg v in
        if s = 1 then begin
          if List.exists (fun (u, _) -> labels.(u) = 1) nbrs then ok := false
        end
        else if not (List.exists (fun (u, _) -> labels.(u) = 1) nbrs) then
          ok := false
      end)
    (Semi_graph.nodes sg);
  !ok

(* ---- repair ---- *)

type stats = { relabeled : int; region : int; rounds : int }

let no_repair = { relabeled = 0; region = 0; rounds = 0 }

let repair_flood ~sg ~source ~labels ~suspects =
  let n = Graph.n_nodes (Semi_graph.base sg) in
  let visited = Array.make n false in
  let relabeled = ref 0 in
  (* flat int queue: a suspect component can be most of the instance, so
     the BFS constant decides whether repair beats a recompute at all —
     the queue slice [start, tail) doubles as the member list *)
  let queue = Array.make n 0 in
  let tail = ref 0 in
  let region = ref 0 in
  let flood_component seed =
    let start = !tail in
    let head = ref start in
    let has_source = ref false in
    queue.(!tail) <- seed;
    incr tail;
    visited.(seed) <- true;
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      if v = source then has_source := true;
      Semi_graph.iter_rank2_neighbors sg v (fun u _e ->
          if not visited.(u) then begin
            visited.(u) <- true;
            queue.(!tail) <- u;
            incr tail
          end)
    done;
    let want = if !has_source then 1 else 0 in
    for i = start to !tail - 1 do
      let v = queue.(i) in
      if labels.(v) <> want then begin
        labels.(v) <- want;
        incr relabeled
      end
    done;
    region := !region + (!tail - start)
  in
  List.iter
    (fun s ->
      if s >= 0 && s < n && Semi_graph.node_present sg s && not visited.(s)
      then flood_component s)
    suspects;
  { relabeled = !relabeled; region = !region; rounds = 0 }

let repair_mis ~graph ~sg ~ids ~labels =
  let n = Graph.n_nodes graph in
  (* 1. violation scan: undecided nodes, in-in edges, unwitnessed outs *)
  let reset = Array.make n false in
  let n_reset = ref 0 in
  let mark v =
    if not reset.(v) then begin
      reset.(v) <- true;
      incr n_reset
    end
  in
  for v = 0 to n - 1 do
    if Semi_graph.node_present sg v then begin
      let s = labels.(v) in
      if s <> 1 && s <> 2 then mark v
      else begin
        let has_in = ref false in
        Semi_graph.iter_rank2_neighbors sg v (fun u _e ->
            if labels.(u) = 1 then has_in := true);
        if s = 1 && !has_in then mark v
        else if s = 2 && not !has_in then mark v
      end
    end
  done;
  if !n_reset = 0 then no_repair
  else begin
    (* 2. region = reset nodes + their present 1-hop boundary; decided
       boundary nodes enter the view frozen (the kernel keeps them) so
       the region re-run sees the surrounding MIS *)
    let in_region = Array.make n false in
    let region_size = ref 0 in
    let add v =
      if not in_region.(v) then begin
        in_region.(v) <- true;
        incr region_size
      end
    in
    for v = 0 to n - 1 do
      if reset.(v) then begin
        add v;
        Semi_graph.iter_rank2_neighbors sg v (fun u _e -> add u)
      end
    done;
    for v = 0 to n - 1 do
      if reset.(v) then labels.(v) <- 0
    done;
    (* 3. re-run the greedy kernel on the region view only *)
    let view = Semi_graph.of_node_subset graph in_region in
    (* a node can sit in the region without being present in [sg]
       (of_node_subset takes the mask verbatim) — the mask above only
       ever adds present nodes, so the view equals region ∩ sg *)
    let topo = Topology.compile view in
    let kernel =
      {
        (Flat.Kernels.mis_local_max ~ids) with
        Flat.init = (fun ~node ~slot:_ -> labels.(node));
      }
    in
    let outcome =
      Flat.run ~label:"repair" ~topo ~kernel ~max_rounds:(!region_size + 2) ()
    in
    (* 4. splice the recomputed region back *)
    for v = 0 to n - 1 do
      if in_region.(v) then labels.(v) <- outcome.Flat.slab.(v)
    done;
    {
      relabeled = !n_reset;
      region = !region_size;
      rounds = outcome.Flat.rounds;
    }
  end
