module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Labeling = Tl_problems.Labeling
module Span = Tl_obs.Span

(* Base algorithm A's color reduction over CSR rows indexed by node id:
   Linial, KW to Δ+1, then down to deg+1, each a direct loop in its own
   span. [colors] holds the distinct initial ids of [nodes]; returns the
   palette and the rounds. Vertex and edge problems share it: the rows
   are a compiled topology's or the line CSR's. *)
let reduce_rows ~off ~adj ~nodes ~colors =
  let palette0 = 1 + Array.fold_left (fun acc v -> max acc colors.(v)) 0 nodes in
  let max_degree =
    Array.fold_left (fun acc v -> max acc (off.(v + 1) - off.(v))) 0 nodes
  in
  if max_degree = 0 then begin
    Array.iter (fun v -> colors.(v) <- 0) nodes;
    (1, 0)
  end
  else begin
    let palette1, linial_rounds =
      Span.with_span "linial" (fun () ->
          Linial.reduce_csr ~off ~adj ~nodes ~colors ~palette:palette0 ~max_degree)
    in
    let palette2, kw_rounds =
      Span.with_span "kw" (fun () ->
          Reduce.kw_to_delta_plus_one_csr ~off ~adj ~nodes ~colors
            ~palette:palette1 ~delta:max_degree)
    in
    let bound v = off.(v + 1) - off.(v) + 1 in
    let reduce_rounds =
      Span.with_span "to-bound" (fun () ->
          Reduce.to_bound_csr ~off ~adj ~nodes ~colors ~palette:palette2 ~bound)
    in
    (max_degree + 1, linial_rounds + kw_rounds + reduce_rounds)
  end

(* [proper_coloring] plus the snapshot it compiled, which the class sweep
   of [mis] reads. *)
let coloring_and_topo sg ~ids =
  let n = Graph.n_nodes (Semi_graph.base sg) in
  if Array.length ids <> n then invalid_arg "Algos.proper_coloring: bad ids";
  let topo = Span.with_span "compile" (fun () -> Topology.compile sg) in
  let nodes = topo.present_nodes in
  let colors = Array.make n (-1) in
  Array.iter (fun v -> colors.(v) <- ids.(v)) nodes;
  let palette, rounds = reduce_rows ~off:topo.off ~adj:topo.adj ~nodes ~colors in
  (colors, palette, rounds, topo)

let proper_coloring sg ~ids =
  let colors, palette, rounds, _topo = coloring_and_topo sg ~ids in
  (colors, palette, rounds)

(* [f h] for the half-edge at the present endpoint of every rank-1 edge.
   Edges are stored smaller endpoint first: half-edge 2e sits at u,
   2e + 1 at v. *)
let iter_dangling sg f =
  let base = Semi_graph.base sg in
  for e = 0 to Graph.n_edges base - 1 do
    if Semi_graph.edge_present sg e then begin
      let u, v = Graph.edge_endpoints base e in
      match (Semi_graph.node_present sg u, Semi_graph.node_present sg v) with
      | true, false -> f (2 * e)
      | false, true -> f ((2 * e) + 1)
      | _ -> ()
    end
  done

(* The label writes of the vertex problems walk each present node's base
   incidence row once: a present edge [e] to [u] (present or not) is the
   node's half-edge [2e + (if v < u then 0 else 1)], the rule of
   [Graph.half_edges_of]. Each write stores a [Some] block built once per
   call, so the loop allocates nothing. *)
let deg_plus_one_coloring sg ~ids labeling =
  let colors, palette, rounds, topo = coloring_and_topo sg ~ids in
  Span.with_span "label" (fun () ->
      let base = Semi_graph.base sg in
      let label = Array.init palette (fun c -> Some (c + 1)) in
      let nodes = topo.Topology.present_nodes in
      for k = 0 to Array.length nodes - 1 do
        let v = nodes.(k) in
        let l = label.(colors.(v)) in
        let inc = Graph.incident base v and adj = Graph.neighbors base v in
        for i = 0 to Array.length inc - 1 do
          let e = inc.(i) in
          if Semi_graph.edge_present sg e then
            Labeling.set_some labeling ((2 * e) + if v < adj.(i) then 0 else 1) l
        done
      done);
  rounds

(* Greedy MIS over the color classes of a proper coloring: class c joins in
   round c if no neighbor has joined yet. Costs [palette] rounds. The
   nodes are counting-sorted by color once, so one pass over the sorted
   order runs the classes in round order; inside a class the order cannot
   matter, since same-colored nodes are never adjacent. *)
let mis_of_coloring ~off ~adj ~nodes colors palette =
  Span.with_span "class-sweep" (fun () ->
      let in_mis = Array.make (Array.length colors) false in
      let start = Array.make (palette + 1) 0 in
      let order = Array.make (Array.length nodes) 0 in
      Class_sort.sort ~classes:palette ~class_of:(fun v -> colors.(v)) nodes ~start
        ~order;
      for i = 0 to start.(palette) - 1 do
        let v = order.(i) in
        let j = ref off.(v) and stop = off.(v + 1) in
        while !j < stop && not in_mis.(adj.(!j)) do
          incr j
        done;
        if !j = stop then in_mis.(v) <- true
      done;
      (in_mis, palette))

(* One shared block per MIS label for [Labeling.set_some]. *)
let mis_m = Some Tl_problems.Mis.M
let mis_p = Some Tl_problems.Mis.P
let mis_o = Some Tl_problems.Mis.O

let mis sg ~ids labeling =
  let colors, palette, color_rounds, topo = coloring_and_topo sg ~ids in
  let nodes = topo.present_nodes in
  let in_mis, class_rounds =
    mis_of_coloring ~off:topo.off ~adj:topo.adj ~nodes colors palette
  in
  (* one round to learn which neighbors joined, then label, in the row
     walk of [deg_plus_one_coloring]: [in_mis] is false off the view, so
     the [P] goes to the first present rank-2 neighbor that joined *)
  Span.with_span "label" (fun () ->
      let base = Semi_graph.base sg in
      for k = 0 to Array.length nodes - 1 do
        let v = nodes.(k) in
        let inc = Graph.incident base v and adj = Graph.neighbors base v in
        let joined = in_mis.(v) in
        let pointed = ref false in
        for i = 0 to Array.length inc - 1 do
          let e = inc.(i) and u = adj.(i) in
          if Semi_graph.edge_present sg e then begin
            let h = (2 * e) + if v < u then 0 else 1 in
            if joined then Labeling.set_some labeling h mis_m
            else if (not !pointed) && in_mis.(u) then begin
              pointed := true;
              Labeling.set_some labeling h mis_p
            end
            else Labeling.set_some labeling h mis_o
          end
        done
      done);
  color_rounds + class_rounds + 1

(* Line nodes as documented in algos.mli: [lnode_of] maps a base edge to
   its line node ([-1] unless it is present with rank 2), [edge_of] back. *)
let number_line_nodes sg =
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
  (lnode_of, edge_of)

(* [collect_at lnode_of base buf v] writes the line nodes at base node [v]
   into [buf], in incident order, and returns their count. *)
let collect_at lnode_of base buf v =
  let k = ref 0 in
  Array.iter
    (fun e ->
      if lnode_of.(e) >= 0 then begin
        buf.(!k) <- lnode_of.(e);
        incr k
      end)
    (Graph.incident base v);
  !k

(* Two edges of a simple graph share at most one endpoint, so no pair is
   discovered twice. *)
let line_structure sg =
  let base = Semi_graph.base sg in
  let lnode_of, edge_of = number_line_nodes sg in
  let inc_l = Array.make (Graph.max_degree base) 0 in
  (* pass 1 counts the pairs; pass 2 writes them back to front, so that
     line edges number in reverse discovery order *)
  let m_line = ref 0 in
  for v = 0 to Graph.n_nodes base - 1 do
    if Semi_graph.node_present sg v then begin
      let k = collect_at lnode_of base inc_l v in
      m_line := !m_line + (k * (k - 1) / 2)
    end
  done;
  let ledges = Array.make !m_line (0, 0) in
  let next = ref !m_line in
  for v = 0 to Graph.n_nodes base - 1 do
    if Semi_graph.node_present sg v then begin
      let k = collect_at lnode_of base inc_l v in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          decr next;
          ledges.(!next) <- (inc_l.(i), inc_l.(j))
        done
      done
    end
  done;
  (Graph.of_edge_array ~n:(Array.length edge_of) ledges, edge_of)

type line_csr = { edge_of : int array; off : int array; adj : int array }

(* The line graph's rows straight from the incidence arrays: line node
   [{a, b}] has [at.(a) + at.(b) - 2] neighbors, where [at.(v)] counts
   the line nodes at [v]; each present base node then appends, to the
   row of every line node at it, the other line nodes at it, through one
   write cursor per line node. *)
let line_csr sg =
  let base = Semi_graph.base sg in
  let lnode_of, edge_of = number_line_nodes sg in
  let count = Array.length edge_of in
  let at = Array.make (Graph.n_nodes base) 0 in
  Array.iter
    (fun e ->
      let a, b = Graph.edge_endpoints base e in
      at.(a) <- at.(a) + 1;
      at.(b) <- at.(b) + 1)
    edge_of;
  let off = Array.make (count + 1) 0 in
  for l = 0 to count - 1 do
    let a, b = Graph.edge_endpoints base edge_of.(l) in
    off.(l + 1) <- off.(l) + at.(a) + at.(b) - 2
  done;
  let adj = Array.make off.(count) 0 in
  let cursor = Array.sub off 0 count in
  let inc_l = Array.make (Graph.max_degree base) 0 in
  for v = 0 to Graph.n_nodes base - 1 do
    if at.(v) >= 2 then begin
      let k = collect_at lnode_of base inc_l v in
      for i = 0 to k - 1 do
        let l = inc_l.(i) in
        let c = ref cursor.(l) in
        for j = 0 to k - 1 do
          if j <> i then begin
            adj.(!c) <- inc_l.(j);
            incr c
          end
        done;
        cursor.(l) <- !c
      done
    end
  done;
  { edge_of; off; adj }

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
  let l = Span.with_span "line-csr" (fun () -> line_csr sg) in
  let colors = line_ids sg l.edge_of ids in
  let nodes = Array.init (Array.length l.edge_of) Fun.id in
  let palette, lrounds = reduce_rows ~off:l.off ~adj:l.adj ~nodes ~colors in
  (l, nodes, colors, palette, 1 + (2 * lrounds))

(* One shared block per matching label for [Labeling.set_some]. *)
let matching_m = Some Tl_problems.Matching.M
let matching_p = Some Tl_problems.Matching.P
let matching_o = Some Tl_problems.Matching.O
let matching_d = Some Tl_problems.Matching.D

let maximal_matching sg ~ids labeling =
  let base = Semi_graph.base sg in
  let l, nodes, colors, palette, setup_rounds = line_coloring sg ~ids in
  let edge_of = l.edge_of in
  let in_mis, class_rounds =
    mis_of_coloring ~off:l.off ~adj:l.adj ~nodes colors palette
  in
  Span.with_span "label" (fun () ->
      (* matched: per node, whether one of its present rank-2 edges is
         matched *)
      let matched = Array.make (Graph.n_nodes base) false in
      Array.iteri
        (fun i e ->
          if in_mis.(i) then begin
            let u, v = Graph.edge_endpoints base e in
            matched.(u) <- true;
            matched.(v) <- true
          end)
        edge_of;
      (* edges are stored smaller endpoint first: half-edge 2e sits at u,
         2e + 1 at v *)
      Array.iteri
        (fun i e ->
          let u, v = Graph.edge_endpoints base e in
          if in_mis.(i) then begin
            Labeling.set_some labeling (2 * e) matching_m;
            Labeling.set_some labeling ((2 * e) + 1) matching_m
          end
          else begin
            Labeling.set_some labeling (2 * e)
              (if matched.(u) then matching_p else matching_o);
            Labeling.set_some labeling ((2 * e) + 1)
              (if matched.(v) then matching_p else matching_o)
          end)
        edge_of;
      iter_dangling sg (fun h -> Labeling.set_some labeling h matching_d));
  setup_rounds + (2 * class_rounds) + 1

let edge_coloring sg ~ids labeling =
  let base = Semi_graph.base sg in
  let { edge_of; _ }, _nodes, colors, _palette, rounds = line_coloring sg ~ids in
  Span.with_span "label" (fun () ->
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
          let u, _ = Graph.edge_endpoints base e in
          let b = colors.(i) + 1 in
          let a1 = min udeg.(u) b in
          let a2 = max 1 (b + 1 - a1) in
          Labeling.set labeling (2 * e) (Tl_problems.Edge_coloring.Pair (a1, b));
          Labeling.set labeling ((2 * e) + 1) (Tl_problems.Edge_coloring.Pair (a2, b)))
        edge_of;
      iter_dangling sg (fun h -> Labeling.set labeling h Tl_problems.Edge_coloring.D));
  rounds + 1
