module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Labeling = Tl_problems.Labeling

(* [proper_coloring] plus the snapshot it compiled, which the class sweep
   of [mis] and [maximal_matching] reads; a second [compile_cached] lookup
   would count one more cache hit per base run. *)
let coloring_and_topo sg ~ids =
  let base = Semi_graph.base sg in
  let n = Graph.n_nodes base in
  if Array.length ids <> n then invalid_arg "Algos.proper_coloring: bad ids";
  let nodes = Semi_graph.nodes sg in
  (* One compiled snapshot serves the whole reduction chain: Linial runs
     on the engine, and the greedy reductions scan its CSR rows. *)
  let topo, cache_hit = Topology.compile_cached_stat sg in
  Tl_obs.Span.add_counter
    (if cache_hit then "topo:cache_hit" else "topo:cache_miss")
    1;
  let max_degree = Topology.max_degree topo in
  let colors = Array.make n (-1) in
  List.iter (fun v -> colors.(v) <- ids.(v)) nodes;
  let palette0 = 1 + List.fold_left (fun acc v -> max acc ids.(v)) 0 nodes in
  if max_degree = 0 then begin
    List.iter (fun v -> colors.(v) <- 0) nodes;
    (colors, 1, 0, topo)
  end
  else begin
    let palette1, linial_rounds =
      Linial.reduce_topo ~topo ~nodes ~colors ~palette:palette0 ~max_degree
    in
    let off = topo.off and adj = topo.adj and present = topo.present_nodes in
    let palette2, kw_rounds =
      Reduce.kw_to_delta_plus_one_csr ~off ~adj ~nodes:present ~colors
        ~palette:palette1 ~delta:max_degree
    in
    let bound v = Topology.degree topo v + 1 in
    let reduce_rounds =
      Reduce.to_bound_csr ~off ~adj ~nodes:present ~colors ~palette:palette2 ~bound
    in
    (colors, max_degree + 1, linial_rounds + kw_rounds + reduce_rounds, topo)
  end

let proper_coloring sg ~ids =
  let colors, palette, rounds, _topo = coloring_and_topo sg ~ids in
  (colors, palette, rounds)

(* [f h u] for every present edge at the present node [v], in incident
   order: [h] is [v]'s half-edge, [u] the other endpoint (present or not)
   — the order of [Semi_graph.half_edges_of], without its list. *)
let iter_half_edges sg v f =
  let base = Semi_graph.base sg in
  let inc = Graph.incident base v and adj = Graph.neighbors base v in
  for i = 0 to Array.length inc - 1 do
    let e = inc.(i) in
    if Semi_graph.edge_present sg e then
      f (Graph.half_edge base ~edge:e ~node:v) adj.(i)
  done

(* [f h] for the half-edge at the present endpoint of every rank-1 edge. *)
let iter_dangling sg f =
  let base = Semi_graph.base sg in
  for e = 0 to Graph.n_edges base - 1 do
    if Semi_graph.edge_present sg e then begin
      let u, v = Graph.edge_endpoints base e in
      match (Semi_graph.node_present sg u, Semi_graph.node_present sg v) with
      | true, false -> f (Graph.half_edge base ~edge:e ~node:u)
      | false, true -> f (Graph.half_edge base ~edge:e ~node:v)
      | _ -> ()
    end
  done

let deg_plus_one_coloring sg ~ids labeling =
  let colors, _palette, rounds, topo = coloring_and_topo sg ~ids in
  Array.iter
    (fun v -> iter_half_edges sg v (fun h _ -> Labeling.set labeling h (colors.(v) + 1)))
    topo.Topology.present_nodes;
  rounds

(* Greedy MIS over the color classes of a proper coloring: class c joins in
   round c if no neighbor has joined yet. Costs [palette] rounds. The
   nodes are counting-sorted by color once, so one pass over the sorted
   order runs the classes in round order; inside a class the order cannot
   matter, since same-colored nodes are never adjacent. *)
let mis_of_coloring (topo : Topology.t) colors palette =
  let in_mis = Array.make topo.n_base false in
  let nodes = topo.present_nodes in
  let start = Array.make (palette + 1) 0 in
  let order = Array.make (Array.length nodes) 0 in
  Class_sort.sort ~classes:palette ~class_of:(fun v -> colors.(v)) nodes ~start ~order;
  for i = 0 to start.(palette) - 1 do
    let v = order.(i) in
    let j = ref topo.off.(v) and stop = topo.off.(v + 1) in
    while !j < stop && not in_mis.(topo.adj.(!j)) do
      incr j
    done;
    if !j = stop then in_mis.(v) <- true
  done;
  (in_mis, palette)

let mis sg ~ids labeling =
  let colors, palette, color_rounds, topo = coloring_and_topo sg ~ids in
  let in_mis, class_rounds = mis_of_coloring topo colors palette in
  (* one round to learn which neighbors joined, then label *)
  Array.iter
    (fun v ->
      if in_mis.(v) then
        iter_half_edges sg v (fun h _ -> Labeling.set labeling h Tl_problems.Mis.M)
      else begin
        let pointed = ref false in
        iter_half_edges sg v (fun h u ->
            let opposite_in_mis = Semi_graph.node_present sg u && in_mis.(u) in
            if opposite_in_mis && not !pointed then begin
              pointed := true;
              Labeling.set labeling h Tl_problems.Mis.P
            end
            else Labeling.set labeling h Tl_problems.Mis.O)
      end)
    topo.present_nodes;
  color_rounds + class_rounds + 1

(* Numbering as documented in algos.mli. Two edges of a simple graph
   share at most one endpoint, so no pair is discovered twice. *)
let line_structure sg =
  let base = Semi_graph.base sg in
  let m = Graph.n_edges base in
  let lnode_of = Array.make m (-1) in
  let count = ref 0 in
  for e = 0 to m - 1 do
    if Semi_graph.edge_present sg e then begin
      let u, v = Graph.edge_endpoints base e in
      if Semi_graph.node_present sg u && Semi_graph.node_present sg v then begin
        lnode_of.(e) <- !count;
        incr count
      end
    end
  done;
  let edge_of = Array.make !count 0 in
  Array.iteri (fun e l -> if l >= 0 then edge_of.(l) <- e) lnode_of;
  (* the line nodes at one base node, reused across nodes *)
  let inc_l = Array.make (Graph.max_degree base) 0 in
  let collect v =
    let k = ref 0 in
    Array.iter
      (fun e ->
        if lnode_of.(e) >= 0 then begin
          inc_l.(!k) <- lnode_of.(e);
          incr k
        end)
      (Graph.incident base v);
    !k
  in
  (* pass 1 counts the pairs; pass 2 writes them back to front, so that
     line edges number in reverse discovery order *)
  let m_line = ref 0 in
  for v = 0 to Graph.n_nodes base - 1 do
    if Semi_graph.node_present sg v then begin
      let k = collect v in
      m_line := !m_line + (k * (k - 1) / 2)
    end
  done;
  let ledges = Array.make !m_line (0, 0) in
  let next = ref !m_line in
  for v = 0 to Graph.n_nodes base - 1 do
    if Semi_graph.node_present sg v then begin
      let k = collect v in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          decr next;
          ledges.(!next) <- (inc_l.(i), inc_l.(j))
        done
      done
    end
  done;
  (Graph.of_edge_array ~n:!count ledges, edge_of)

(* Unique positive ids for line-graph nodes derived from endpoint ids. *)
let line_ids sg edge_of ids =
  let base = Semi_graph.base sg in
  let width = 1 + Array.fold_left max 0 ids in
  Array.map
    (fun e ->
      let u, v = Graph.edge_endpoints base e in
      let a = min ids.(u) ids.(v) and b = max ids.(u) ids.(v) in
      (a * width) + b)
    edge_of

(* (deg+1)-coloring of the line graph; every line-graph round costs 2 base
   rounds, plus 1 base round for edges to learn their line-neighborhood. *)
let line_coloring sg ~ids =
  let lg, edge_of = line_structure sg in
  let lids = line_ids sg edge_of ids in
  let colors, palette, lrounds, ltopo =
    coloring_and_topo (Semi_graph.of_graph lg) ~ids:lids
  in
  (edge_of, colors, palette, 1 + (2 * lrounds), ltopo)

let maximal_matching sg ~ids labeling =
  let base = Semi_graph.base sg in
  let edge_of, colors, palette, setup_rounds, ltopo = line_coloring sg ~ids in
  let in_mis, class_rounds = mis_of_coloring ltopo colors palette in
  (* matched: per node, whether one of its present rank-2 edges is matched *)
  let matched = Array.make (Graph.n_nodes base) false in
  Array.iteri
    (fun i e ->
      if in_mis.(i) then begin
        let u, v = Graph.edge_endpoints base e in
        matched.(u) <- true;
        matched.(v) <- true
      end)
    edge_of;
  Array.iteri
    (fun i e ->
      let u, v = Graph.edge_endpoints base e in
      let hu = Graph.half_edge base ~edge:e ~node:u in
      let hv = Graph.half_edge base ~edge:e ~node:v in
      if in_mis.(i) then begin
        Labeling.set labeling hu Tl_problems.Matching.M;
        Labeling.set labeling hv Tl_problems.Matching.M
      end
      else begin
        Labeling.set labeling hu
          (if matched.(u) then Tl_problems.Matching.P else Tl_problems.Matching.O);
        Labeling.set labeling hv
          (if matched.(v) then Tl_problems.Matching.P else Tl_problems.Matching.O)
      end)
    edge_of;
  iter_dangling sg (fun h -> Labeling.set labeling h Tl_problems.Matching.D);
  setup_rounds + (2 * class_rounds) + 1

let edge_coloring sg ~ids labeling =
  let base = Semi_graph.base sg in
  let edge_of, colors, _palette, rounds, _ltopo = line_coloring sg ~ids in
  (* underlying degree of every node: its count of rank-2 edges *)
  let udeg = Array.make (Graph.n_nodes base) 0 in
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints base e in
      udeg.(u) <- udeg.(u) + 1;
      udeg.(v) <- udeg.(v) + 1)
    edge_of;
  Array.iteri
    (fun i e ->
      let u, v = Graph.edge_endpoints base e in
      let b = colors.(i) + 1 in
      let a1 = min udeg.(u) b in
      let a2 = max 1 (b + 1 - a1) in
      Labeling.set labeling
        (Graph.half_edge base ~edge:e ~node:u)
        (Tl_problems.Edge_coloring.Pair (a1, b));
      Labeling.set labeling
        (Graph.half_edge base ~edge:e ~node:v)
        (Tl_problems.Edge_coloring.Pair (a2, b)))
    edge_of;
  iter_dangling sg (fun h -> Labeling.set labeling h Tl_problems.Edge_coloring.D);
  rounds + 1
