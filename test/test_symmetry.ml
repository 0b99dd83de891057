(* Tests for the truly local algorithms: Cole-Vishkin, Linial, Reduce,
   Algos. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Props = Tl_graph.Props
module Tree = Tl_graph.Tree
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Labeling = Tl_problems.Labeling
module Nec = Tl_problems.Nec
module CV = Tl_symmetry.Cole_vishkin
module Linial = Tl_symmetry.Linial
module Reduce = Tl_symmetry.Reduce
module Algos = Tl_symmetry.Algos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_nodes g = List.init (Graph.n_nodes g) Fun.id

(* ---------- log* ---------- *)

let test_log_star () =
  check_int "log* 1" 0 (CV.log_star 1);
  check_int "log* 2" 1 (CV.log_star 2);
  check_int "log* 4" 2 (CV.log_star 4);
  check_int "log* 16" 3 (CV.log_star 16);
  check_int "log* 65536" 4 (CV.log_star 65536);
  check "log* 2^64-ish" true (CV.log_star max_int <= 5)

(* ---------- Cole-Vishkin ---------- *)

let proper_forest_coloring _g parent colors nodes =
  List.for_all
    (fun v ->
      colors.(v) >= 0 && colors.(v) < 3
      && (parent.(v) < 0 || colors.(v) <> colors.(parent.(v))))
    nodes

let test_cv_path () =
  let g = Gen.path 100 in
  let parent = Tree.parents_forest g in
  let ids = Ids.identity 100 in
  let colors, rounds = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
  check "proper 3-coloring" true (proper_forest_coloring g parent colors (all_nodes g));
  check "rounds log*-ish" true (rounds <= CV.log_star 100 + 12)

let test_cv_star_and_deep_tree () =
  List.iter
    (fun g ->
      let n = Graph.n_nodes g in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:17 in
      let colors, _ = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
      check "proper" true (proper_forest_coloring g parent colors (all_nodes g)))
    [
      Gen.star 50;
      Gen.kary_tree ~arity:3 ~depth:5;
      Gen.random_tree ~n:500 ~seed:23;
      Gen.path 2;
      Gen.path 1;
    ]

let test_cv_forest () =
  let g = Gen.random_forest ~n:120 ~trees:6 ~seed:4 in
  let parent = Tree.parents_forest g in
  let ids = Ids.spread ~n:120 ~c:2 ~seed:5 in
  let colors, _ = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
  check "proper on forest" true
    (proper_forest_coloring g parent colors (all_nodes g))

let test_cv_subset_of_nodes () =
  (* color only a sub-forest of a larger graph *)
  let _g = Gen.path 10 in
  let nodes = [ 2; 3; 4 ] in
  let parent = Array.make 10 (-1) in
  parent.(2) <- 3;
  parent.(4) <- 3;
  let ids = Ids.identity 10 in
  let colors, _ = CV.color3 ~nodes ~parent ~ids in
  check "colored subset" true
    (List.for_all (fun v -> colors.(v) >= 0 && colors.(v) < 3) nodes);
  check "parent differs" true
    (colors.(2) <> colors.(3) && colors.(4) <> colors.(3));
  check_int "others untouched" (-1) colors.(0)

let test_cv_large_ids () =
  (* huge id space: still O(log-star) rounds *)
  let g = Gen.path 50 in
  let parent = Tree.parents_forest g in
  let ids = Array.map (fun i -> (i * 1_000_003) + 7) (Ids.identity 50) in
  let colors, rounds = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
  check "proper" true (proper_forest_coloring g parent colors (all_nodes g));
  check "rounds small" true (rounds <= 16)

let test_cv_runtime_differential () =
  (* the Runtime state-machine execution must also produce a proper
     3-coloring, within its fixed a-priori schedule *)
  List.iter
    (fun g ->
      let n = Graph.n_nodes g in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:21 in
      let sg = Semi_graph.of_graph g in
      let colors, rounds =
        CV.color3_runtime ~sg ~nodes:(all_nodes g) ~parent ~ids
      in
      check "runtime CV proper" true
        (proper_forest_coloring g parent colors (all_nodes g));
      check_int "runtime CV schedule" (CV.schedule_length ~max_id:(Ids.max_id ids))
        rounds;
      (* the array implementation finishes no later than the fixed
         schedule (it detects convergence early) *)
      let _, array_rounds = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
      check "array version not slower than schedule" true (array_rounds <= rounds))
    [
      Gen.path 60;
      Gen.star 25;
      Gen.random_tree ~n:200 ~seed:22;
      Gen.random_forest ~n:90 ~trees:4 ~seed:24;
      Gen.path 1;
    ]

let prop_cv_runtime_proper =
  QCheck.Test.make ~name:"runtime CV proper on random trees" ~count:30
    QCheck.(pair (int_range 1 150) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let sg = Semi_graph.of_graph g in
      let colors, _ = CV.color3_runtime ~sg ~nodes:(all_nodes g) ~parent ~ids in
      proper_forest_coloring g parent colors (all_nodes g))

(* ---------- Linial ---------- *)

let neighbors_of g v = Array.to_list (Graph.neighbors g v)

let test_linial_step_properness () =
  let g = Gen.random_tree ~n:200 ~seed:31 in
  let colors = Array.map (fun id -> id - 1) (Ids.permuted ~n:200 ~seed:32) in
  let palette =
    Linial.step
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:200
      ~max_degree:(Graph.max_degree g)
  in
  check "still proper" true (Props.is_proper_coloring g colors);
  check "palette respected" true (Array.for_all (fun c -> c < palette) colors)

let test_linial_reduce () =
  let g = Gen.random_bounded_degree ~n:300 ~max_degree:6 ~edges:600 ~seed:33 in
  let colors = Array.map (fun id -> id - 1) (Ids.spread ~n:300 ~c:2 ~seed:34) in
  let palette0 = 1 + Array.fold_left max 0 colors in
  let palette, rounds =
    Linial.reduce
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:palette0
      ~max_degree:(Graph.max_degree g)
  in
  check "proper after reduce" true (Props.is_proper_coloring g colors);
  check "palette shrank" true (palette < palette0);
  check "log*-many rounds" true (rounds <= CV.log_star palette0 + 6);
  check "palette poly in degree" true (palette <= 40 * 40)

let test_primes () =
  check_int "geq 1" 2 (Linial.smallest_prime_geq 1);
  check_int "geq 8" 11 (Linial.smallest_prime_geq 8);
  check_int "geq 13" 13 (Linial.smallest_prime_geq 13);
  check_int "geq 90" 97 (Linial.smallest_prime_geq 90)

(* ---------- Reduce ---------- *)

let test_kw_reduction () =
  let g = Gen.random_bounded_degree ~n:200 ~max_degree:5 ~edges:350 ~seed:35 in
  let delta = Graph.max_degree g in
  let colors = Array.map (fun id -> id - 1) (Ids.permuted ~n:200 ~seed:36) in
  let palette, rounds =
    Reduce.kw_to_delta_plus_one
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:200 ~delta
  in
  check_int "palette is delta+1" (delta + 1) palette;
  check "proper" true (Props.is_proper_coloring g colors);
  check "colors in range" true (Array.for_all (fun c -> c <= delta) colors);
  (* O(delta * log (K/delta)) rounds *)
  check "round bound" true (rounds <= 2 * (delta + 1) * 10)

let test_to_bound_deg_plus_one () =
  let g = Gen.star 30 in
  let colors = Array.map (fun id -> id - 1) (Ids.identity 30) in
  let _ =
    Reduce.to_bound
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:30
      ~bound:(fun v -> Graph.degree g v + 1)
  in
  check "proper" true (Props.is_proper_coloring g colors);
  check "leaves use 2 colors" true
    (List.for_all (fun v -> colors.(v) <= 1) (List.init 29 (fun i -> i + 1)))

(* ---------- Algos: base algorithms on semi-graphs ---------- *)

let run_all_problems g seed =
  let n = Graph.n_nodes g in
  let sg = Semi_graph.of_graph g in
  let ids = Ids.permuted ~n ~seed in
  let l1 = Labeling.create g in
  let _ = Algos.deg_plus_one_coloring sg ~ids l1 in
  let ok1 = Nec.is_valid Tl_problems.Coloring.problem_deg_plus_one g l1 in
  let l2 = Labeling.create g in
  let _ = Algos.mis sg ~ids l2 in
  let ok2 = Nec.is_valid Tl_problems.Mis.problem g l2 in
  let l3 = Labeling.create g in
  let _ = Algos.maximal_matching sg ~ids l3 in
  let ok3 = Nec.is_valid Tl_problems.Matching.problem g l3 in
  let l4 = Labeling.create g in
  let _ = Algos.edge_coloring sg ~ids l4 in
  let ok4 = Nec.is_valid Tl_problems.Edge_coloring.problem g l4 in
  ok1 && ok2 && ok3 && ok4

let test_algos_on_families () =
  List.iter
    (fun (name, g) -> check name true (run_all_problems g 41))
    [
      ("path", Gen.path 40);
      ("star", Gen.star 30);
      ("cycle", Gen.cycle 21);
      ("random tree", Gen.random_tree ~n:150 ~seed:42);
      ("grid", Gen.grid 7 7);
      ("triangulated", Gen.triangulated_grid 5);
      ("caterpillar", Gen.caterpillar ~spine:10 ~legs:4);
      ("two nodes", Gen.path 2);
      ("single", Gen.path 1);
      ("complete", Gen.complete 6);
    ]

let test_algos_on_semi_graph_with_rank1 () =
  (* run the base algorithms on a proper semi-graph: half of a path *)
  let g = Gen.path 12 in
  let mask = Array.init 12 (fun v -> v mod 4 < 2) in
  let sg = Semi_graph.of_node_subset g mask in
  let ids = Ids.identity 12 in
  let l = Labeling.create g in
  let _ = Algos.mis sg ~ids l in
  check "valid on semi" true (Nec.validate_semi Tl_problems.Mis.problem sg l = []);
  let l2 = Labeling.create g in
  let _ = Algos.deg_plus_one_coloring sg ~ids l2 in
  check "coloring valid on semi" true
    (Nec.validate_semi Tl_problems.Coloring.problem_deg_plus_one sg l2 = [])

let test_line_structure () =
  let g = Gen.path 5 in
  let sg = Semi_graph.of_graph g in
  let lg, edge_of = Algos.line_structure sg in
  check_int "L nodes" 4 (Graph.n_nodes lg);
  check_int "L edges" 3 (Graph.n_edges lg);
  check_int "edge_of" 0 edge_of.(0);
  (* restricted semi-graph: line structure only covers rank-2 edges *)
  let sg2 = Semi_graph.of_node_subset g [| true; true; true; false; false |] in
  let lg2, _ = Algos.line_structure sg2 in
  check_int "rank-2 only" 2 (Graph.n_nodes lg2)

let test_rounds_depend_on_degree_not_n () =
  (* truly local behaviour: on paths, rounds are roughly constant in n *)
  let rounds_for n =
    let g = Gen.path n in
    let sg = Semi_graph.of_graph g in
    let ids = Ids.permuted ~n ~seed:77 in
    let l = Labeling.create g in
    Algos.deg_plus_one_coloring sg ~ids l
  in
  let r1 = rounds_for 100 in
  let r2 = rounds_for 3000 in
  check "log*-ish growth only" true (r2 - r1 <= 3)

(* ---------- qcheck properties ---------- *)

let prop_cv_proper =
  QCheck.Test.make ~name:"CV 3-coloring proper on random forests" ~count:60
    QCheck.(triple (int_range 2 200) (int_range 1 5) (int_range 0 100000))
    (fun (n, trees, seed) ->
      let trees = min trees n in
      let g = Gen.random_forest ~n ~trees ~seed in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let colors, _ = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
      proper_forest_coloring g parent colors (all_nodes g))

let prop_algos_valid_on_random_trees =
  QCheck.Test.make ~name:"base algorithms valid on random trees" ~count:25
    QCheck.(pair (int_range 1 120) (int_range 0 100000))
    (fun (n, seed) -> run_all_problems (Gen.random_tree ~n ~seed) (seed + 9))

let prop_algos_valid_on_arb_graphs =
  QCheck.Test.make ~name:"base algorithms valid on arboricity-a graphs"
    ~count:15
    QCheck.(triple (int_range 2 80) (int_range 1 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      run_all_problems (Gen.forest_union ~n ~arboricity:a ~seed) (seed + 3))

let prop_linial_step_keeps_proper =
  QCheck.Test.make ~name:"Linial step preserves properness" ~count:40
    QCheck.(pair (int_range 2 120) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let colors = Array.map (fun id -> id - 1) (Ids.permuted ~n ~seed:(seed + 1)) in
      let _ =
        Linial.step
          ~neighbors:(neighbors_of g)
          ~nodes:(all_nodes g) ~colors ~palette:n
          ~max_degree:(Graph.max_degree g)
      in
      Props.is_proper_coloring g colors)

(* ---------- differential: bucketed schedules vs list oracles ----------

   The list-based implementations that the bucketed class schedules of
   Reduce and Algos replaced, kept as oracles: they rescan every node in
   every round, which makes them easy to read and slow to run. *)

module Oracle = struct
  let kw_to_delta_plus_one ~neighbors ~nodes ~colors ~palette ~delta =
    let target = delta + 1 in
    let rounds = ref 0 in
    let pal = ref palette in
    let recolored = Array.make (Array.length colors) false in
    while !pal > target do
      let block = 2 * target in
      let nblocks = (!pal + block - 1) / block in
      List.iter (fun v -> recolored.(v) <- false) nodes;
      let block_of = Array.copy colors in
      List.iter (fun v -> block_of.(v) <- colors.(v) / block) nodes;
      for off = 0 to block - 1 do
        incr rounds;
        List.iter
          (fun v ->
            if (not recolored.(v)) && colors.(v) mod block = off then begin
              let used = Array.make target false in
              List.iter
                (fun u ->
                  if recolored.(u) && block_of.(u) = block_of.(v) then
                    used.(colors.(u) mod target) <- true)
                (neighbors v);
              let rec first x =
                if x >= target then invalid_arg "oracle kw: delta too small"
                else if used.(x) then first (x + 1)
                else x
              in
              colors.(v) <- (block_of.(v) * target) + first 0;
              recolored.(v) <- true
            end)
          nodes
      done;
      pal := nblocks * target
    done;
    (!pal, !rounds)

  let underlying_neighbors sg v = List.map fst (Semi_graph.rank2_neighbors sg v)

  let mis_of_coloring sg colors palette =
    let in_mis = Array.make (Graph.n_nodes (Semi_graph.base sg)) false in
    let nodes = Semi_graph.nodes sg in
    for c = 0 to palette - 1 do
      List.iter
        (fun v ->
          if
            colors.(v) = c
            && not (List.exists (fun u -> in_mis.(u)) (underlying_neighbors sg v))
          then in_mis.(v) <- true)
        nodes
    done;
    in_mis

  let line_structure sg =
    let rank2 =
      List.filter (fun e -> Semi_graph.rank sg e = 2) (Semi_graph.edges sg)
    in
    let edge_of = Array.of_list rank2 in
    let lnode_of = Hashtbl.create (Array.length edge_of) in
    Array.iteri (fun i e -> Hashtbl.add lnode_of e i) edge_of;
    let ledges = ref [] in
    let seen = Hashtbl.create (4 * Array.length edge_of) in
    List.iter
      (fun v ->
        let inc =
          List.filter_map
            (fun (_, e) -> Hashtbl.find_opt lnode_of e)
            (Semi_graph.rank2_neighbors sg v)
        in
        let rec pairs = function
          | [] -> ()
          | x :: rest ->
            List.iter
              (fun y ->
                let p = if x < y then (x, y) else (y, x) in
                if not (Hashtbl.mem seen p) then begin
                  Hashtbl.add seen p ();
                  ledges := p :: !ledges
                end)
              rest;
            pairs rest
        in
        pairs inc)
      (Semi_graph.nodes sg);
    (Graph.of_edges ~n:(Array.length edge_of) !ledges, edge_of)

  (* Algos.mis's labeling rule over the oracle's class sweep *)
  let mis sg ~ids =
    let colors, palette, color_rounds = Algos.proper_coloring sg ~ids in
    let in_mis = mis_of_coloring sg colors palette in
    let base = Semi_graph.base sg in
    let labeling = Labeling.create base in
    List.iter
      (fun v ->
        if in_mis.(v) then
          List.iter
            (fun h -> Labeling.set labeling h Tl_problems.Mis.M)
            (Semi_graph.half_edges_of sg v)
        else begin
          let pointed = ref false in
          List.iter
            (fun h ->
              let u = Graph.other_endpoint base (Graph.half_edge_edge h) v in
              if Semi_graph.node_present sg u && in_mis.(u) && not !pointed then begin
                pointed := true;
                Labeling.set labeling h Tl_problems.Mis.P
              end
              else Labeling.set labeling h Tl_problems.Mis.O)
            (Semi_graph.half_edges_of sg v)
        end)
      (Semi_graph.nodes sg);
    (labeling, color_rounds + palette + 1)

  let line_ids sg edge_of ids =
    let base = Semi_graph.base sg in
    let width = 1 + Array.fold_left max 0 ids in
    Array.map
      (fun e ->
        let u, v = Graph.edge_endpoints base e in
        (min ids.(u) ids.(v) * width) + max ids.(u) ids.(v))
      edge_of

  (* maximal matching: the line nodes that join the MIS, and the rounds *)
  let matching sg ~ids =
    let lg, edge_of = line_structure sg in
    let lsg = Semi_graph.of_graph lg in
    let colors, palette, lrounds =
      Algos.proper_coloring lsg ~ids:(line_ids sg edge_of ids)
    in
    let in_mis = mis_of_coloring lsg colors palette in
    (edge_of, in_mis, 1 + (2 * lrounds) + (2 * palette) + 1)
end

let labels l g = List.init (Graph.n_half_edges g) (Labeling.get l)

(* One differential run on a semi-graph: KW from distinct-id colors and
   again from its own output (a palette of Δ+1, so zero KW rounds), the
   line structure, the MIS labeling and the matched line nodes. *)
let differential_ok sg ~seed =
  let g = Semi_graph.base sg in
  let n = Graph.n_nodes g in
  let ids = Ids.permuted ~n ~seed in
  let topo = Tl_engine.Topology.compile sg in
  let nodes = Semi_graph.nodes sg in
  let delta = Tl_engine.Topology.max_degree topo in
  let neighbors = Tl_engine.Topology.neighbor_nodes topo in
  let kw_same ~palette colors0 =
    let c1 = Array.copy colors0 and c2 = Array.copy colors0 in
    let c3 = Array.copy colors0 in
    let r1 = Reduce.kw_to_delta_plus_one ~neighbors ~nodes ~colors:c1 ~palette ~delta in
    let r2 = Oracle.kw_to_delta_plus_one ~neighbors ~nodes ~colors:c2 ~palette ~delta in
    let r3 =
      Reduce.kw_to_delta_plus_one_csr ~off:topo.off ~adj:topo.adj
        ~nodes:topo.present_nodes ~colors:c3 ~palette ~delta
    in
    (r1 = r2 && r3 = r2 && c1 = c2 && c3 = c2, c1)
  in
  let from_ids, reduced = kw_same ~palette:n (Array.map (fun id -> id - 1) ids) in
  let from_reduced, _ = kw_same ~palette:(delta + 1) reduced in
  let lg, edge_of = Algos.line_structure sg in
  let lg', edge_of' = Oracle.line_structure sg in
  let line_ok =
    Graph.n_nodes lg = Graph.n_nodes lg'
    && Graph.edge_list lg = Graph.edge_list lg'
    && edge_of = edge_of'
  in
  let l = Labeling.create g in
  let rounds = Algos.mis sg ~ids l in
  let l', rounds' = Oracle.mis sg ~ids in
  let mis_ok = rounds = rounds' && labels l g = labels l' g in
  let lm = Labeling.create g in
  let mrounds = Algos.maximal_matching sg ~ids lm in
  let edge_of_o, in_mis_o, mrounds' = Oracle.matching sg ~ids in
  let matched e =
    Labeling.labels_at_edge lm e = [ Tl_problems.Matching.M; Tl_problems.Matching.M ]
  in
  let matching_ok =
    mrounds = mrounds'
    && Array.for_all2 (fun e b -> matched e = b) edge_of_o in_mis_o
  in
  from_ids && from_reduced && line_ok && mis_ok && matching_ok

let prop_differential_random_trees =
  QCheck.Test.make ~name:"bucketed = list oracle on random trees" ~count:25
    QCheck.(pair (int_range 1 300) (int_range 0 100000))
    (fun (n, seed) ->
      differential_ok (Semi_graph.of_graph (Gen.random_tree ~n ~seed)) ~seed:(seed + 1))

let prop_differential_power_law =
  QCheck.Test.make ~name:"bucketed = list oracle on power-law graphs" ~count:15
    QCheck.(triple (int_range 2 300) (int_range 1 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      differential_ok
        (Semi_graph.of_graph (Gen.power_law_union ~n ~arboricity:a ~seed))
        ~seed:(seed + 2))

let prop_differential_node_subsets =
  QCheck.Test.make ~name:"bucketed = list oracle on node-subset views"
    ~count:25
    QCheck.(triple (int_range 2 300) (int_range 2 5) (int_range 0 100000))
    (fun (n, keep, seed) ->
      let g = Gen.power_law_union ~n ~arboricity:2 ~seed in
      (* hide every [keep]-th node: its edges to kept nodes become rank-1 *)
      let mask = Array.init n (fun v -> (v + seed) mod keep <> 0) in
      differential_ok (Semi_graph.of_node_subset g mask) ~seed:(seed + 3))

let test_differential_edge_cases () =
  List.iter
    (fun (name, sg) -> check name true (differential_ok sg ~seed:5))
    [
      ("single node", Semi_graph.of_graph (Gen.path 1));
      ("no edges", Semi_graph.of_graph (Graph.empty 7));
      (* only rank-1 edges: every kept node has underlying degree 0 *)
      ( "rank-1 only",
        Semi_graph.of_node_subset (Gen.path 9) (Array.init 9 (fun v -> v mod 2 = 0)) );
      ("star", Semi_graph.of_graph (Gen.star 40));
      ("complete", Semi_graph.of_graph (Gen.complete 9));
    ]

(* One KW call may allocate O(phases · (n + 2m)) minor words; it
   allocates O(n + 2m) (the neighbor lists read once into CSR rows, and
   the per-call slabs), a fifth of the bound here. A slide back to a
   scratch array per recolor costs Δ + 2 words per node per phase,
   which this caterpillar (Δ = 62, average degree < 2) turns into
   several times the bound. *)
let test_kw_allocation_budget () =
  let g = Gen.caterpillar ~spine:200 ~legs:60 in
  let n = Graph.n_nodes g and m = Graph.n_edges g in
  let topo = Tl_engine.Topology.compile (Semi_graph.of_graph g) in
  let neighbors = Tl_engine.Topology.neighbor_nodes topo in
  let nodes = all_nodes g in
  let delta = Graph.max_degree g in
  let colors = Array.map (fun id -> id - 1) (Ids.permuted ~n ~seed:8) in
  let w0 = Gc.minor_words () in
  let _, rounds =
    Reduce.kw_to_delta_plus_one ~neighbors ~nodes ~colors ~palette:n ~delta
  in
  let words = Gc.minor_words () -. w0 in
  let phases = rounds / (2 * (delta + 1)) in
  check "proper" true (Props.is_proper_coloring g colors);
  check "several phases" true (phases >= 3);
  let budget = 4. *. float_of_int (phases * (n + (2 * m))) in
  check
    (Printf.sprintf "minor words %.0f within %.0f" words budget)
    true (words <= budget)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cv_proper;
      prop_cv_runtime_proper;
      prop_algos_valid_on_random_trees;
      prop_algos_valid_on_arb_graphs;
      prop_linial_step_keeps_proper;
      prop_differential_random_trees;
      prop_differential_power_law;
      prop_differential_node_subsets;
    ]

let () =
  Alcotest.run "tl_symmetry"
    [
      ("log_star", [ Alcotest.test_case "values" `Quick test_log_star ]);
      ( "cole_vishkin",
        [
          Alcotest.test_case "path" `Quick test_cv_path;
          Alcotest.test_case "tree families" `Quick test_cv_star_and_deep_tree;
          Alcotest.test_case "forest" `Quick test_cv_forest;
          Alcotest.test_case "node subset" `Quick test_cv_subset_of_nodes;
          Alcotest.test_case "large ids" `Quick test_cv_large_ids;
          Alcotest.test_case "runtime differential" `Quick test_cv_runtime_differential;
        ] );
      ( "linial",
        [
          Alcotest.test_case "single step" `Quick test_linial_step_properness;
          Alcotest.test_case "full reduction" `Quick test_linial_reduce;
          Alcotest.test_case "primes" `Quick test_primes;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "KW to delta+1" `Quick test_kw_reduction;
          Alcotest.test_case "greedy to deg+1" `Quick test_to_bound_deg_plus_one;
          Alcotest.test_case "KW allocation budget" `Quick test_kw_allocation_budget;
        ] );
      ( "algos",
        [
          Alcotest.test_case "all problems, all families" `Quick test_algos_on_families;
          Alcotest.test_case "semi-graphs with rank-1 edges" `Quick test_algos_on_semi_graph_with_rank1;
          Alcotest.test_case "line structure" `Quick test_line_structure;
          Alcotest.test_case "truly local rounds" `Quick test_rounds_depend_on_degree_not_n;
          Alcotest.test_case "list-oracle edge cases" `Quick test_differential_edge_cases;
        ] );
      ("properties", qcheck_tests);
    ]
