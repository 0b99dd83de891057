(* Tests for the graph substrate: Graph, Gen, Props, Tree, Semi_graph. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Props = Tl_graph.Props
module Tree = Tl_graph.Tree
module Semi_graph = Tl_graph.Semi_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Graph construction and accessors ---------- *)

let test_of_edges_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (3, 2) ] in
  check_int "nodes" 4 (Graph.n_nodes g);
  check_int "edges" 3 (Graph.n_edges g);
  check_int "deg 1" 2 (Graph.degree g 1);
  check_int "deg 3" 1 (Graph.degree g 3);
  check_int "max degree" 2 (Graph.max_degree g);
  check "has 0-1" true (Graph.has_edge g 0 1);
  check "has 1-0" true (Graph.has_edge g 1 0);
  check "no 0-3" false (Graph.has_edge g 0 3)

let test_of_edges_normalizes () =
  (* edge given as (3,2) must be stored as (2,3) *)
  let g = Graph.of_edges ~n:4 [ (3, 2) ] in
  let u, v = Graph.edge_endpoints g 0 in
  check_int "u" 2 u;
  check_int "v" 3 v

let test_of_edges_rejects () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check "self-loop" true (raises (fun () -> Graph.of_edges ~n:2 [ (1, 1) ]));
  check "duplicate" true
    (raises (fun () -> Graph.of_edges ~n:3 [ (0, 1); (1, 0) ]));
  check "range" true (raises (fun () -> Graph.of_edges ~n:2 [ (0, 2) ]));
  check "negative n" true (raises (fun () -> Graph.of_edges ~n:(-1) []))

let test_half_edges () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  check_int "n half edges" 4 (Graph.n_half_edges g);
  let h01 = Graph.half_edge g ~edge:0 ~node:0 in
  let h10 = Graph.half_edge g ~edge:0 ~node:1 in
  check_int "side 0" 0 h01;
  check_int "side 1" 1 h10;
  check_int "opposite" h10 (Graph.opposite_half_edge h01);
  check_int "node of h" 0 (Graph.half_edge_node g h01);
  check_int "edge of h" 0 (Graph.half_edge_edge h01);
  check_int "half edges at 1" 2 (List.length (Graph.half_edges_of g 1))

let test_other_endpoint () =
  let g = Graph.of_edges ~n:3 [ (0, 2) ] in
  check_int "other of 0" 2 (Graph.other_endpoint g 0 0);
  check_int "other of 2" 0 (Graph.other_endpoint g 0 2);
  check "bad node raises" true
    (try Graph.other_endpoint g 0 1 |> ignore; false
     with Invalid_argument _ -> true)

let test_adjacency_alignment () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let adj = Graph.neighbors g 0 in
  let inc = Graph.incident g 0 in
  Array.iteri
    (fun i u ->
      let x, y = Graph.edge_endpoints g inc.(i) in
      check "aligned" true ((x = 0 && y = u) || (x = u && y = 0)))
    adj

let test_line_graph () =
  (* path 0-1-2-3: line graph is a path on 3 nodes *)
  let g = Gen.path 4 in
  let lg, _ = Graph.line_graph g in
  check_int "lg nodes" 3 (Graph.n_nodes lg);
  check_int "lg edges" 2 (Graph.n_edges lg);
  (* star: line graph of K_{1,4} is K_4 *)
  let s = Gen.star 5 in
  let ls, _ = Graph.line_graph s in
  check_int "ls nodes" 4 (Graph.n_nodes ls);
  check_int "ls edges" 6 (Graph.n_edges ls)

let test_induced () =
  let g = Gen.cycle 5 in
  let sub, old_of_new = Graph.induced g [ 0; 1; 2 ] in
  check_int "sub nodes" 3 (Graph.n_nodes sub);
  check_int "sub edges" 2 (Graph.n_edges sub);
  check_int "mapping" 0 old_of_new.(0)

(* ---------- Generators ---------- *)

let test_path_star_cycle () =
  check "path tree" true (Props.is_tree (Gen.path 10));
  check_int "path diameter" 9 (Props.diameter (Gen.path 10));
  check "star tree" true (Props.is_tree (Gen.star 10));
  check_int "star diameter" 2 (Props.diameter (Gen.star 10));
  check "star shape" true (Props.is_star (Gen.star 10));
  check "path not star" false (Props.is_star (Gen.path 5));
  let c = Gen.cycle 6 in
  check "cycle not forest" false (Props.is_forest c);
  check_int "cycle diameter" 3 (Props.diameter c)

let test_balanced_regular_tree () =
  List.iter
    (fun (delta, n) ->
      let t = Gen.balanced_regular_tree ~delta ~n in
      check "is tree" true (Props.is_tree t);
      check_int "n nodes" n (Graph.n_nodes t);
      check "max degree" true (Graph.max_degree t <= delta);
      (* full internal layers have degree exactly delta *)
      if n > (delta * delta) + 1 then
        check_int "root degree" delta (Graph.degree t 0))
    [ (3, 22); (3, 100); (4, 5); (2, 17); (5, 1); (3, 2) ]

let test_kary_tree () =
  let t = Gen.kary_tree ~arity:2 ~depth:3 in
  check_int "binary depth 3" 15 (Graph.n_nodes t);
  check "is tree" true (Props.is_tree t);
  check_int "diameter" 6 (Props.diameter t)

let test_caterpillar_spider_broom () =
  let c = Gen.caterpillar ~spine:5 ~legs:3 in
  check "caterpillar tree" true (Props.is_tree c);
  check_int "caterpillar nodes" 20 (Graph.n_nodes c);
  let s = Gen.spider ~legs:4 ~leg_length:3 in
  check "spider tree" true (Props.is_tree s);
  check_int "spider diameter" 6 (Props.diameter s);
  let b = Gen.broom ~handle:4 ~bristles:5 in
  check "broom tree" true (Props.is_tree b);
  check_int "broom nodes" 9 (Graph.n_nodes b);
  check_int "broom max degree" 6 (Graph.max_degree b)

let test_double_star () =
  let g = Gen.double_star 3 4 in
  check "tree" true (Props.is_tree g);
  check_int "nodes" 9 (Graph.n_nodes g);
  check_int "deg 0" 4 (Graph.degree g 0);
  check_int "deg 1" 5 (Graph.degree g 1)

let test_grid () =
  let g = Gen.grid 4 5 in
  check_int "nodes" 20 (Graph.n_nodes g);
  check_int "edges" ((3 * 5) + (4 * 4)) (Graph.n_edges g);
  check "connected" true (Props.is_connected g);
  let lo, hi = Props.arboricity_interval g in
  check "grid arboricity <= 2" true (lo <= 2 && hi <= 3)

let test_triangulated_grid () =
  let g = Gen.triangulated_grid 6 in
  check "connected" true (Props.is_connected g);
  let lo, hi = Props.arboricity_interval g in
  check "planar arboricity <= 3" true (lo <= 3 && hi <= 5)

let test_random_tree_deterministic () =
  let t1 = Gen.random_tree ~n:50 ~seed:7 in
  let t2 = Gen.random_tree ~n:50 ~seed:7 in
  let t3 = Gen.random_tree ~n:50 ~seed:8 in
  check "same seed same tree" true (Graph.edge_list t1 = Graph.edge_list t2);
  check "different seed different tree" false
    (Graph.edge_list t1 = Graph.edge_list t3)

let test_random_forest () =
  let f = Gen.random_forest ~n:40 ~trees:5 ~seed:3 in
  check "is forest" true (Props.is_forest f);
  let _, count = Props.components f in
  check_int "component count" 5 count

let test_power_law_tree () =
  let t = Gen.power_law_tree ~n:300 ~seed:5 in
  check "is tree" true (Props.is_tree t);
  check "has hub" true (Graph.max_degree t >= 8)

let test_power_law_union () =
  let g = Gen.power_law_union ~n:500 ~arboricity:3 ~seed:6 in
  let lo, hi = Props.arboricity_interval g in
  check "arboricity bounded" true (lo <= 3 && hi <= 5);
  check "has hub" true (Graph.max_degree g >= 12);
  check "connected" true (Props.is_connected g)

(* ---------- Props ---------- *)

let test_bfs_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (4, 5) ] in
  let d = Props.bfs_distances g 0 in
  check_int "d0" 0 d.(0);
  check_int "d2" 2 d.(2);
  check_int "unreachable" (-1) d.(4);
  let _, count = Props.components g in
  check_int "components" 3 count;
  check "not connected" false (Props.is_connected g)

let test_degeneracy () =
  check_int "tree degeneracy" 1 (Props.degeneracy (Gen.random_tree ~n:60 ~seed:1));
  check_int "cycle degeneracy" 2 (Props.degeneracy (Gen.cycle 8));
  check_int "K5 degeneracy" 4 (Props.degeneracy (Gen.complete 5));
  check_int "grid degeneracy" 2 (Props.degeneracy (Gen.grid 5 5));
  check_int "empty" 0 (Props.degeneracy (Graph.empty 0))

let test_degeneracy_order () =
  let g = Gen.grid 4 4 in
  let order = Props.degeneracy_order g in
  let k = Props.degeneracy g in
  (* each node has at most k neighbors later in the order *)
  let pos = Array.make (Graph.n_nodes g) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Array.iteri
    (fun _ v ->
      let later =
        Array.fold_left
          (fun acc u -> if pos.(u) > pos.(v) then acc + 1 else acc)
          0 (Graph.neighbors g v)
      in
      check "degeneracy order" true (later <= k))
    order

let test_nash_williams () =
  check_int "tree" 1 (Props.nash_williams_lower_bound (Gen.random_tree ~n:30 ~seed:2));
  check_int "K4" 2 (Props.nash_williams_lower_bound (Gen.complete 4));
  check_int "empty graph" 0 (Props.nash_williams_lower_bound (Graph.empty 5))

let test_validators () =
  let g = Gen.path 4 in
  (* independent sets *)
  check "ind" true (Props.is_independent_set g [| true; false; true; false |]);
  check "not ind" false (Props.is_independent_set g [| true; true; false; false |]);
  check "maximal" true
    (Props.is_maximal_independent_set g [| true; false; true; false |]);
  check "not maximal" false
    (Props.is_maximal_independent_set g [| true; false; false; false |]);
  (* matchings on path 0-1-2-3 (edges 01, 12, 23) *)
  check "matching" true (Props.is_matching g [| true; false; true |]);
  check "not matching" false (Props.is_matching g [| true; true; false |]);
  check "maximal matching" true
    (Props.is_maximal_matching g [| true; false; true |]);
  check "mid edge maximal" true
    (Props.is_maximal_matching g [| false; true; false |]);
  check "empty not maximal" false
    (Props.is_maximal_matching g [| false; false; false |]);
  (* colorings *)
  check "proper" true (Props.is_proper_coloring g [| 1; 2; 1; 2 |]);
  check "improper" false (Props.is_proper_coloring g [| 1; 1; 2; 1 |]);
  check "edge proper" true (Props.is_proper_edge_coloring g [| 1; 2; 1 |]);
  check "edge improper" false (Props.is_proper_edge_coloring g [| 1; 1; 2 |])

let test_edge_degree () =
  let g = Gen.star 5 in
  check_int "star edge degree" 3 (Props.edge_degree g 0);
  check_int "max edge degree" 3 (Props.max_edge_degree g);
  let p = Gen.path 3 in
  check_int "path edge degree" 1 (Props.edge_degree p 0)

(* ---------- Tree utilities ---------- *)

let test_rooting () =
  let g = Gen.path 5 in
  let r = Tree.root_at g 0 in
  check_int "root" 0 r.Tree.root;
  check_int "parent of 1" 0 r.Tree.parent.(1);
  check_int "depth of 4" 4 r.Tree.depth.(4);
  check_int "height" 4 (Tree.height r);
  let sizes = Tree.subtree_sizes g r in
  check_int "subtree of root" 5 sizes.(0);
  check_int "subtree of leaf" 1 sizes.(4)

let test_parents_forest () =
  let f = Gen.random_forest ~n:30 ~trees:3 ~seed:9 in
  let parent = Tree.parents_forest f in
  (* exactly 3 roots; parent edges are real edges *)
  let roots = Array.fold_left (fun acc p -> if p < 0 then acc + 1 else acc) 0 parent in
  check_int "roots" 3 roots;
  Array.iteri
    (fun v p -> if p >= 0 then check "parent edge exists" true (Graph.has_edge f v p))
    parent

let test_tree_diameter_centroid () =
  check_int "path diameter" 7 (Tree.tree_diameter (Gen.path 8));
  check_int "star diameter" 2 (Tree.tree_diameter (Gen.star 8));
  let c = Tree.centroid (Gen.path 9) in
  check_int "path centroid" 4 c;
  check_int "star centroid" 0 (Tree.centroid (Gen.star 9))

(* ---------- Semi-graphs ---------- *)

let test_semi_node_subset () =
  (* path 0-1-2-3, keep {1,2}: edges 01 (rank 1), 12 (rank 2), 23 (rank 1) *)
  let g = Gen.path 4 in
  let mask = [| false; true; true; false |] in
  let sg = Semi_graph.of_node_subset g mask in
  check_int "present nodes" 2 (Semi_graph.n_present_nodes sg);
  check "all edges present" true
    (List.length (Semi_graph.edges sg) = 3);
  check_int "rank 01" 1 (Semi_graph.rank sg 0);
  check_int "rank 12" 2 (Semi_graph.rank sg 1);
  check_int "sdeg 1" 2 (Semi_graph.sdeg sg 1);
  check_int "underlying degree 1" 1 (Semi_graph.underlying_degree sg 1);
  check_int "max underlying" 1 (Semi_graph.max_underlying_degree sg);
  check_int "half edges at 1" 2 (List.length (Semi_graph.half_edges_of sg 1));
  check_int "rank2 neighbors of 1" 1 (List.length (Semi_graph.rank2_neighbors sg 1))

let test_semi_edge_subset () =
  let g = Gen.path 4 in
  let mask = [| true; false; true |] in
  let sg = Semi_graph.of_edge_subset g mask in
  check_int "present nodes" 4 (Semi_graph.n_present_nodes sg);
  check_int "rank of kept" 2 (Semi_graph.rank sg 0);
  check "absent edge raises" true
    (try Semi_graph.rank sg 1 |> ignore; false with Invalid_argument _ -> true);
  check_int "sdeg of 1" 1 (Semi_graph.sdeg sg 1)

let test_semi_components () =
  let g = Gen.path 6 in
  (* keep nodes {0,1} and {4,5}: two underlying components *)
  let sg = Semi_graph.of_node_subset g [| true; true; false; false; true; true |] in
  let comps = Semi_graph.underlying_components sg in
  check_int "two components" 2 (Array.length comps);
  check "component of 0" true (Semi_graph.component_of sg 0 = [ 0; 1 ]);
  check_int "ecc of 4" 1 (Semi_graph.underlying_eccentricity sg 4);
  let d = Semi_graph.underlying_distances sg 0 in
  check_int "dist 0-1" 1 d.(1);
  check_int "unreachable 4" (-1) d.(4)

let test_semi_of_graph () =
  let g = Gen.cycle 5 in
  let sg = Semi_graph.of_graph g in
  check_int "all nodes" 5 (Semi_graph.n_present_nodes sg);
  check_int "underlying = degree" 2 (Semi_graph.max_underlying_degree sg);
  List.iter (fun e -> check_int "rank 2" 2 (Semi_graph.rank sg e)) (Semi_graph.edges sg)

let test_semi_half_edge_present () =
  let g = Gen.path 3 in
  let sg = Semi_graph.of_node_subset g [| true; false; true |] in
  (* edge 0 = (0,1): half-edge at 0 present, at 1 absent *)
  check "h at 0" true (Semi_graph.half_edge_present sg (Graph.half_edge g ~edge:0 ~node:0));
  check "h at 1" false (Semi_graph.half_edge_present sg (Graph.half_edge g ~edge:0 ~node:1))

(* ---------- qcheck properties ---------- *)

let prop_random_tree_is_tree =
  QCheck.Test.make ~name:"random_tree is a tree" ~count:100
    QCheck.(pair (int_range 1 300) (int_range 0 100000))
    (fun (n, seed) -> Props.is_tree (Gen.random_tree ~n ~seed))

let prop_prufer_degree_sum =
  QCheck.Test.make ~name:"tree degree sum is 2(n-1)" ~count:50
    QCheck.(pair (int_range 2 200) (int_range 0 100000))
    (fun (n, seed) ->
      let t = Gen.random_tree ~n ~seed in
      let sum = List.init n (Graph.degree t) |> List.fold_left ( + ) 0 in
      sum = 2 * (n - 1))

let prop_forest_union_arboricity =
  QCheck.Test.make ~name:"forest_union has arboricity <= a (degeneracy <= 2a-1)"
    ~count:50
    QCheck.(triple (int_range 10 150) (int_range 1 5) (int_range 0 100000))
    (fun (n, a, seed) ->
      let g = Gen.forest_union ~n ~arboricity:a ~seed in
      let lo, hi = Props.arboricity_interval g in
      lo <= a && hi <= (2 * a) - 1)

let prop_balanced_tree_sizes =
  QCheck.Test.make ~name:"balanced_regular_tree has n nodes and is a tree"
    ~count:50
    QCheck.(pair (int_range 2 8) (int_range 1 400))
    (fun (delta, n) ->
      let t = Gen.balanced_regular_tree ~delta ~n in
      Graph.n_nodes t = n && Props.is_tree t && Graph.max_degree t <= delta)

let prop_line_graph_degrees =
  QCheck.Test.make ~name:"line graph degree equals edge degree" ~count:50
    QCheck.(pair (int_range 2 80) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let lg, edge_of = Graph.line_graph g in
      List.for_all
        (fun e -> Graph.degree lg e = Props.edge_degree g (edge_of e))
        (List.init (Graph.n_edges g) Fun.id))

let prop_semi_masks_consistent =
  QCheck.Test.make ~name:"semi-graph rank/degree consistency" ~count:80
    QCheck.(triple (int_range 2 60) (int_range 0 100000) (int_range 0 100000))
    (fun (n, seed, mask_seed) ->
      let g = Gen.random_tree ~n ~seed in
      let rng = Gen.Prng.create mask_seed in
      let mask = Array.init n (fun _ -> Gen.Prng.int rng 2 = 0) in
      let sg = Semi_graph.of_node_subset g mask in
      List.for_all
        (fun v ->
          Semi_graph.underlying_degree sg v <= Semi_graph.sdeg sg v
          && Semi_graph.sdeg sg v = Graph.degree g v)
        (Semi_graph.nodes sg)
      && List.for_all
           (fun e ->
             let r = Semi_graph.rank sg e in
             r >= 1 && r <= 2)
           (Semi_graph.edges sg))

(* A BFS over rank2_neighbors lists through a boxed Queue: the reference
   underlying_distances must match. *)
let list_distances sg src =
  let dist = Array.make (Graph.n_nodes (Semi_graph.base sg)) (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun (u, _e) ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.push u queue
        end)
      (Semi_graph.rank2_neighbors sg v)
  done;
  dist

let prop_distances_match_list_bfs =
  QCheck.Test.make ~name:"underlying_distances = list BFS on partial views"
    ~count:120
    QCheck.(quad (int_range 2 80) (int_range 0 100000) (int_range 0 100000)
              (int_range 0 2))
    (fun (n, seed, mask_seed, pick) ->
      let g =
        match pick with
        | 0 -> Gen.random_tree ~n ~seed
        | 1 -> Gen.forest_union ~n ~arboricity:2 ~seed
        | _ -> Gen.cycle (max 3 n)
      in
      let rng = Gen.Prng.create mask_seed in
      let keep k = Array.init k (fun _ -> Gen.Prng.int rng 4 <> 0) in
      let views =
        [
          Semi_graph.of_graph g;
          Semi_graph.of_node_subset g (keep (Graph.n_nodes g));
          Semi_graph.of_edge_subset g (keep (Graph.n_edges g));
        ]
      in
      List.for_all
        (fun sg ->
          List.for_all
            (fun v ->
              Semi_graph.underlying_distances sg v = list_distances sg v)
            (Semi_graph.nodes sg)
          && (Semi_graph.n_present_nodes sg = Graph.n_nodes g
             || (let absent =
                   List.find
                     (fun v -> not (Semi_graph.node_present sg v))
                     (List.init (Graph.n_nodes g) Fun.id)
                 in
                 match Semi_graph.underlying_distances sg absent with
                 | _ -> false
                 | exception Invalid_argument m ->
                   m = "Semi_graph.underlying_distances: absent node")))
        views)

let prop_degeneracy_bounds_nash_williams =
  QCheck.Test.make ~name:"nash-williams <= degeneracy" ~count:50
    QCheck.(triple (int_range 5 100) (int_range 1 4) (int_range 0 100000))
    (fun (n, a, seed) ->
      let g = Gen.forest_union ~n ~arboricity:a ~seed in
      let lo, hi = Props.arboricity_interval g in
      lo <= hi)

let prop_diameter_vs_eccentricity =
  QCheck.Test.make ~name:"diameter is max eccentricity" ~count:30
    QCheck.(pair (int_range 2 60) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      Props.diameter g = Tree.tree_diameter g)

(* [half_edges_of] writes its list straight from the incidence arrays;
   it must equal the per-edge [half_edge] lookup, side bit included. *)
let prop_half_edges_of_matches_lookup =
  QCheck.Test.make ~name:"half_edges_of = half_edge over incident" ~count:80
    QCheck.(triple (int_range 1 120) (int_range 0 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      let g =
        if a = 0 then Gen.random_tree ~n ~seed
        else Gen.power_law_union ~n ~arboricity:a ~seed
      in
      List.for_all
        (fun v ->
          Graph.half_edges_of g v
          = List.map
              (fun e -> Graph.half_edge g ~edge:e ~node:v)
              (Array.to_list (Graph.incident g v)))
        (List.init n Fun.id))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_tree_is_tree;
      prop_prufer_degree_sum;
      prop_forest_union_arboricity;
      prop_balanced_tree_sizes;
      prop_line_graph_degrees;
      prop_semi_masks_consistent;
      prop_degeneracy_bounds_nash_williams;
      prop_diameter_vs_eccentricity;
      prop_half_edges_of_matches_lookup;
      prop_distances_match_list_bfs;
    ]

let () =
  Alcotest.run "tl_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "of_edges basics" `Quick test_of_edges_basic;
          Alcotest.test_case "edge normalization" `Quick test_of_edges_normalizes;
          Alcotest.test_case "invalid inputs" `Quick test_of_edges_rejects;
          Alcotest.test_case "half edges" `Quick test_half_edges;
          Alcotest.test_case "other endpoint" `Quick test_other_endpoint;
          Alcotest.test_case "adjacency alignment" `Quick test_adjacency_alignment;
          Alcotest.test_case "line graph" `Quick test_line_graph;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
        ] );
      ( "generators",
        [
          Alcotest.test_case "path/star/cycle" `Quick test_path_star_cycle;
          Alcotest.test_case "balanced regular tree" `Quick test_balanced_regular_tree;
          Alcotest.test_case "k-ary tree" `Quick test_kary_tree;
          Alcotest.test_case "caterpillar/spider/broom" `Quick test_caterpillar_spider_broom;
          Alcotest.test_case "double star" `Quick test_double_star;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "triangulated grid" `Quick test_triangulated_grid;
          Alcotest.test_case "random tree determinism" `Quick test_random_tree_deterministic;
          Alcotest.test_case "random forest" `Quick test_random_forest;
          Alcotest.test_case "power law tree" `Quick test_power_law_tree;
          Alcotest.test_case "power law union" `Quick test_power_law_union;
        ] );
      ( "props",
        [
          Alcotest.test_case "bfs and components" `Quick test_bfs_components;
          Alcotest.test_case "degeneracy" `Quick test_degeneracy;
          Alcotest.test_case "degeneracy order" `Quick test_degeneracy_order;
          Alcotest.test_case "nash-williams" `Quick test_nash_williams;
          Alcotest.test_case "solution validators" `Quick test_validators;
          Alcotest.test_case "edge degree" `Quick test_edge_degree;
        ] );
      ( "tree",
        [
          Alcotest.test_case "rooting" `Quick test_rooting;
          Alcotest.test_case "forest parents" `Quick test_parents_forest;
          Alcotest.test_case "diameter and centroid" `Quick test_tree_diameter_centroid;
        ] );
      ( "semi_graph",
        [
          Alcotest.test_case "node subset view" `Quick test_semi_node_subset;
          Alcotest.test_case "edge subset view" `Quick test_semi_edge_subset;
          Alcotest.test_case "underlying components" `Quick test_semi_components;
          Alcotest.test_case "whole graph view" `Quick test_semi_of_graph;
          Alcotest.test_case "half-edge presence" `Quick test_semi_half_edge_present;
        ] );
      ("properties", qcheck_tests);
    ]
