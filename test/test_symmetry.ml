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

(* The list form of Cole-Vishkin that the library ran before its array
   kernel: whole-array copies every round and children as lists. It is
   the oracle the kernel must match in colors and rounds. *)
module List_cv = struct
  let lowest_diff_bit a b =
    let x = a lxor b in
    let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
    go 0

  let cv_step cv cp =
    let i = lowest_diff_bit cv cp in
    (2 * i) + ((cv lsr i) land 1)

  let color3 ~nodes ~parent ~ids =
    let n = Array.length parent in
    let color = Array.make n (-1) in
    let rounds = ref 0 in
    List.iter (fun v -> color.(v) <- ids.(v)) nodes;
    let children = Array.make n [] in
    List.iter
      (fun v -> if parent.(v) >= 0 then children.(parent.(v)) <- v :: children.(parent.(v)))
      nodes;
    let max_color () = List.fold_left (fun acc v -> max acc color.(v)) 0 nodes in
    while max_color () >= 6 do
      incr rounds;
      let next = Array.copy color in
      List.iter
        (fun v ->
          let cp =
            if parent.(v) >= 0 then color.(parent.(v))
            else if color.(v) = 0 then 1
            else 0
          in
          next.(v) <- cv_step color.(v) cp)
        nodes;
      List.iter (fun v -> color.(v) <- next.(v)) nodes
    done;
    for dropped = 5 downto 3 do
      incr rounds;
      let next = Array.copy color in
      List.iter
        (fun v ->
          if parent.(v) >= 0 then next.(v) <- color.(parent.(v))
          else next.(v) <- (color.(v) + 1) mod 3)
        nodes;
      List.iter (fun v -> color.(v) <- next.(v)) nodes;
      incr rounds;
      let next = Array.copy color in
      List.iter
        (fun v ->
          if color.(v) = dropped then begin
            let used = Array.make 6 false in
            if parent.(v) >= 0 then used.(color.(parent.(v))) <- true;
            List.iter (fun c -> used.(color.(c)) <- true) children.(v);
            let rec first c = if used.(c) then first (c + 1) else c in
            next.(v) <- first 0
          end)
        nodes;
      List.iter (fun v -> color.(v) <- next.(v)) nodes
    done;
    (color, !rounds)
end

(* The array kernel with a fresh color array, in the oracle's shape. *)
let color3 ~nodes ~parent ~ids =
  let color = Array.make (Array.length parent) (-1) in
  let rounds = CV.color3 ~nodes:(Array.of_list nodes) ~parent ~ids ~color in
  (color, rounds)

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
  let colors, rounds = color3 ~nodes:(all_nodes g) ~parent ~ids in
  check "proper 3-coloring" true (proper_forest_coloring g parent colors (all_nodes g));
  check "rounds log*-ish" true (rounds <= CV.log_star 100 + 12)

let test_cv_star_and_deep_tree () =
  List.iter
    (fun g ->
      let n = Graph.n_nodes g in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:17 in
      let colors, _ = color3 ~nodes:(all_nodes g) ~parent ~ids in
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
  let colors, _ = color3 ~nodes:(all_nodes g) ~parent ~ids in
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
  let colors, _ = color3 ~nodes ~parent ~ids in
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
  let colors, rounds = color3 ~nodes:(all_nodes g) ~parent ~ids in
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
        CV.color3_runtime ~sg ~nodes:(all_nodes g) ~parent ~ids ()
      in
      check "runtime CV proper" true
        (proper_forest_coloring g parent colors (all_nodes g));
      check_int "runtime CV schedule" (CV.schedule_length ~max_id:(Ids.max_id ids))
        rounds;
      (* the array implementation finishes no later than the fixed
         schedule (it detects convergence early) *)
      let _, array_rounds = color3 ~nodes:(all_nodes g) ~parent ~ids in
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
      let colors, _ = CV.color3_runtime ~sg ~nodes:(all_nodes g) ~parent ~ids () in
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

(* Words allocated by [f ()]: minor plus major minus promoted, so a
   large array (allocated straight in the major heap) counts once. The
   minor count is [Gc.minor_words], which is exact on OCaml 5.1, while
   [Gc.counters]' minor count lags until the next minor collection. *)
let allocated_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  (r, words () -. w0)

(* Linial on a 16-node view of a 50,000-node tree allocates one word per
   base node (the p(x) slab indexed by node id) plus O(d) per present
   node: the budget is 2·n_base + 32·|nodes|. A digit slab indexed by
   node id instead of position costs n_base · d words (d = 5 here), over
   twice the budget. *)
let test_linial_allocation_budget () =
  let n = 50_000 in
  let g = Gen.random_tree ~n ~seed:19 in
  (* the first 16 nodes reached from node 0: a connected view *)
  let mask = Array.make n false in
  let queue = Queue.create () in
  let kept = ref 0 in
  Queue.push 0 queue;
  mask.(0) <- true;
  incr kept;
  while !kept < 16 && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun u ->
        if !kept < 16 && not mask.(u) then begin
          mask.(u) <- true;
          incr kept;
          Queue.push u queue
        end)
      (Graph.neighbors g v)
  done;
  let sg = Semi_graph.of_node_subset g mask in
  let topo = Tl_engine.Topology.compile sg in
  let nodes = Semi_graph.nodes sg in
  let max_degree = Tl_engine.Topology.max_degree topo in
  let ids = Ids.permuted ~n ~seed:20 in
  let colors = Array.make n (-1) in
  List.iter (fun v -> colors.(v) <- ids.(v) - 1) nodes;
  let reference = Array.copy colors in
  let expected =
    Linial.reduce
      ~neighbors:(Tl_engine.Topology.neighbor_nodes topo)
      ~nodes ~colors:reference ~palette:n ~max_degree
  in
  let got, words =
    allocated_words (fun () ->
        Linial.reduce_topo ~topo ~nodes ~colors ~palette:n ~max_degree)
  in
  check_int "16 nodes" 16 (List.length nodes);
  check "some Linial round" true (snd got > 0);
  check "same result as Linial.reduce" true (got = expected && colors = reference);
  let budget = float_of_int ((2 * n) + (32 * List.length nodes)) in
  check
    (Printf.sprintf "words %.0f within %.0f" words budget)
    true (words <= budget)

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
      let colors, _ = color3 ~nodes:(all_nodes g) ~parent ~ids in
      proper_forest_coloring g parent colors (all_nodes g))

(* Random rooted forests: a random forest, one random tree (a single
   root), a deep path or a star. A seeded share [keep]% of the nodes is
   colored; a kept node whose parent was dropped becomes a root, and the
   dropped nodes keep parents that neither form may read. Ids are a
   permutation or spread over 1..n^3. The kernel gets the nodes shuffled:
   its rounds are synchronous, so order must not matter. *)
let prop_cv_kernel_matches_list =
  QCheck.Test.make ~name:"CV array kernel = list oracle (colors, rounds)" ~count:300
    QCheck.(quad (int_range 0 3) (int_range 1 300) (int_range 1 100) (int_range 0 100000))
    (fun (shape, n, keep, seed) ->
      let g =
        match shape with
        | 0 -> Gen.random_forest ~n ~trees:(1 + (seed mod min 6 n)) ~seed
        | 1 -> Gen.random_tree ~n ~seed
        | 2 -> Gen.path n
        | _ -> Gen.star n
      in
      let n = Graph.n_nodes g in
      let parent = Tree.parents_forest g in
      let rng = Random.State.make [| seed |] in
      let inside = Array.init n (fun _ -> Random.State.int rng 100 < keep) in
      let nodes = List.filter (fun v -> inside.(v)) (List.init n Fun.id) in
      List.iter
        (fun v -> if parent.(v) >= 0 && not inside.(parent.(v)) then parent.(v) <- -1)
        nodes;
      let ids =
        if seed mod 2 = 0 then Ids.spread ~n ~c:3 ~seed else Ids.permuted ~n ~seed
      in
      let shuffled = Array.of_list nodes in
      for i = Array.length shuffled - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = shuffled.(i) in
        shuffled.(i) <- shuffled.(j);
        shuffled.(j) <- x
      done;
      let color = Array.make n (-1) in
      let rounds = CV.color3 ~nodes:shuffled ~parent ~ids ~color in
      (color, rounds) = List_cv.color3 ~nodes ~parent ~ids)

let test_cv_parent_outside_nodes () =
  let parent = [| 1; -1; -1 |] in
  check "parent outside nodes refused" true
    (try
       ignore
         (CV.color3 ~nodes:[| 0 |] ~parent ~ids:(Ids.identity 3)
            ~color:(Array.make 3 (-1)));
       false
     with Invalid_argument _ -> true)

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

  (* The CSR kernel that recolored every node in every phase, kept as the
     oracle of [Reduce.kw_to_delta_plus_one_csr]. [later_moves] counts
     the recolors in a phase >= 1 that changed a node's slot: the work a
     kernel that skipped every later phase would miss. *)
  let later_moves = ref 0

  let kw_csr ~off ~adj ~nodes ~colors ~palette ~delta =
    let target = delta + 1 in
    let block = 2 * target in
    let n = Array.length colors in
    let done_in = Array.make n (-1) in
    let block_of = Array.make n 0 in
    let used = Array.make target (-1) in
    let stamp = ref 0 in
    let rounds = ref 0 in
    let pal = ref palette in
    let key = ref 0 in
    let phase = ref 0 in
    while !pal > target do
      let nblocks = (!pal + block - 1) / block in
      Array.iter
        (fun v ->
          let c = colors.(v) in
          if c < 0 || c >= !pal then
            invalid_arg "Reduce.kw_to_delta_plus_one: color out of palette";
          block_of.(v) <- c / block)
        nodes;
      (* one round per offset o, each over the nodes whose phase-start
         color is o mod [block], in [nodes] order *)
      let order =
        List.stable_sort
          (fun a b -> compare (colors.(a) mod block) (colors.(b) mod block))
          (Array.to_list nodes)
      in
      List.iter
        (fun v ->
          let mine = !key + block_of.(v) in
          if done_in.(v) <> mine then begin
            incr stamp;
            for j = off.(v) to off.(v + 1) - 1 do
              let u = adj.(j) in
              if done_in.(u) = mine then used.(colors.(u) mod target) <- !stamp
            done;
            let x = ref 0 in
            while !x < target && used.(!x) = !stamp do
              incr x
            done;
            if !x >= target then invalid_arg "Reduce.kw: delta below maximum degree";
            if !phase > 0 && !x <> colors.(v) mod target then incr later_moves;
            colors.(v) <- (block_of.(v) * target) + !x;
            done_in.(v) <- mine
          end)
        order;
      rounds := !rounds + block;
      key := !key + nblocks;
      pal := nblocks * target;
      incr phase
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

(* ---------- the line CSR against the line Graph.t ---------- *)

(* [Algos.line_csr] numbers the line nodes as [Algos.line_structure] and
   gives each one the row of the compiled line view as a multiset, so a
   row that keeps its own line node, or one neighbor twice, fails. *)
let line_csr_ok sg =
  let lg, edge_of = Algos.line_structure sg in
  let topo = Tl_engine.Topology.compile (Semi_graph.of_graph lg) in
  let l = Algos.line_csr sg in
  let row off adj v =
    List.sort compare (List.init (off.(v + 1) - off.(v)) (fun i -> adj.(off.(v) + i)))
  in
  let count = Graph.n_nodes lg in
  l.Algos.edge_of = edge_of
  && Array.length l.Algos.off = count + 1
  && List.for_all
       (fun v ->
         row l.Algos.off l.Algos.adj v
         = row topo.Tl_engine.Topology.off topo.Tl_engine.Topology.adj v)
       (List.init count Fun.id)

(* Base views for the line CSR: whole graphs, node subsets (rank-1
   edges), edge subsets and hidden edges, and views with no rank-2 edge
   at all. *)
let line_view ~kind ~n ~seed =
  let forest () = Gen.forest_union ~n ~arboricity:2 ~seed in
  let power () = Gen.power_law_union ~n ~arboricity:2 ~seed in
  match kind mod 7 with
  | 0 -> Semi_graph.of_graph (Gen.random_tree ~n ~seed)
  | 1 -> Semi_graph.of_graph (forest ())
  | 2 -> Semi_graph.of_graph (power ())
  | 3 ->
    let g = power () in
    Semi_graph.of_node_subset g (Array.init (Graph.n_nodes g) (fun v -> (v + seed) mod 3 <> 0))
  | 4 ->
    let g = forest () in
    Semi_graph.of_edge_subset g (Array.init (Graph.n_edges g) (fun e -> (e + seed) mod 4 <> 0))
  | 5 ->
    let sg = Semi_graph.of_graph (power ()) in
    for e = 0 to Graph.n_edges (Semi_graph.base sg) - 1 do
      if (e + seed) mod 3 = 1 then Semi_graph.hide_edge sg e
    done;
    sg
  | _ ->
    (* every other node of a path: only rank-1 edges *)
    Semi_graph.of_node_subset (Gen.path n) (Array.init n (fun v -> v mod 2 = 0))

let prop_line_csr_matches_line_graph =
  QCheck.Test.make ~name:"line CSR = compiled line_structure view" ~count:70
    QCheck.(triple (int_range 1 200) (int_range 0 6) (int_range 0 100000))
    (fun (n, kind, seed) -> line_csr_ok (line_view ~kind ~n:(max 2 n) ~seed))

let test_line_csr_edge_cases () =
  List.iter
    (fun (name, sg) -> check name true (line_csr_ok sg))
    [
      ("single node", Semi_graph.of_graph (Gen.path 1));
      ("no edges", Semi_graph.of_graph (Graph.empty 5));
      ("one edge", Semi_graph.of_graph (Gen.path 2));
      ( "rank-1 only",
        Semi_graph.of_node_subset (Gen.path 9) (Array.init 9 (fun v -> v mod 2 = 0)) );
      ( "all edges hidden",
        Semi_graph.of_edge_subset (Gen.star 6) (Array.make 5 false) );
      ("star", Semi_graph.of_graph (Gen.star 12));
      ("complete", Semi_graph.of_graph (Gen.complete 7));
    ]

(* The edge problems over the reference line Graph.t: the line graph of
   [Algos.line_structure], [Algos.proper_coloring] on its compiled view,
   the list oracle's class sweep, then Algos' labeling rules. *)
module Line_oracle = struct
  let coloring sg ~ids =
    let lg, edge_of = Algos.line_structure sg in
    let lsg = Semi_graph.of_graph lg in
    let colors, palette, lrounds =
      Algos.proper_coloring lsg ~ids:(Oracle.line_ids sg edge_of ids)
    in
    (lsg, edge_of, colors, palette, 1 + (2 * lrounds))

  let dangling sg f =
    let base = Semi_graph.base sg in
    List.iter
      (fun e ->
        if Semi_graph.rank sg e = 1 then begin
          let u, v = Graph.edge_endpoints base e in
          let w = if Semi_graph.node_present sg u then u else v in
          f (Graph.half_edge base ~edge:e ~node:w)
        end)
      (Semi_graph.edges sg)

  let maximal_matching sg ~ids =
    let base = Semi_graph.base sg in
    let lsg, edge_of, colors, palette, setup = coloring sg ~ids in
    let in_mis = Oracle.mis_of_coloring lsg colors palette in
    let matched = Array.make (Graph.n_nodes base) false in
    Array.iteri
      (fun i e ->
        if in_mis.(i) then begin
          let u, v = Graph.edge_endpoints base e in
          matched.(u) <- true;
          matched.(v) <- true
        end)
      edge_of;
    let l = Labeling.create base in
    Array.iteri
      (fun i e ->
        let u, v = Graph.edge_endpoints base e in
        let label w =
          if in_mis.(i) then Tl_problems.Matching.M
          else if matched.(w) then Tl_problems.Matching.P
          else Tl_problems.Matching.O
        in
        Labeling.set l (Graph.half_edge base ~edge:e ~node:u) (label u);
        Labeling.set l (Graph.half_edge base ~edge:e ~node:v) (label v))
      edge_of;
    dangling sg (fun h -> Labeling.set l h Tl_problems.Matching.D);
    (l, setup + (2 * palette) + 1)

  let edge_coloring sg ~ids =
    let base = Semi_graph.base sg in
    let _, edge_of, colors, _, rounds = coloring sg ~ids in
    let udeg = Array.make (Graph.n_nodes base) 0 in
    Array.iter
      (fun e ->
        let u, v = Graph.edge_endpoints base e in
        udeg.(u) <- udeg.(u) + 1;
        udeg.(v) <- udeg.(v) + 1)
      edge_of;
    let l = Labeling.create base in
    Array.iteri
      (fun i e ->
        let u, v = Graph.edge_endpoints base e in
        let b = colors.(i) + 1 in
        let a1 = min udeg.(u) b in
        let a2 = max 1 (b + 1 - a1) in
        Labeling.set l (Graph.half_edge base ~edge:e ~node:u)
          (Tl_problems.Edge_coloring.Pair (a1, b));
        Labeling.set l (Graph.half_edge base ~edge:e ~node:v)
          (Tl_problems.Edge_coloring.Pair (a2, b)))
      edge_of;
    dangling sg (fun h -> Labeling.set l h Tl_problems.Edge_coloring.D);
    (l, rounds + 1)
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

(* [Algos.maximal_matching] and [Algos.edge_coloring] over the line CSR
   give the labeling and the rounds of {!Line_oracle}. *)
let line_oracle_ok sg ~seed =
  let g = Semi_graph.base sg in
  let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed in
  let lm = Labeling.create g in
  let mrounds = Algos.maximal_matching sg ~ids lm in
  let lm', mrounds' = Line_oracle.maximal_matching sg ~ids in
  let le = Labeling.create g in
  let erounds = Algos.edge_coloring sg ~ids le in
  let le', erounds' = Line_oracle.edge_coloring sg ~ids in
  mrounds = mrounds' && labels lm g = labels lm' g
  && erounds = erounds' && labels le g = labels le' g

let prop_edge_problems_match_line_oracle =
  QCheck.Test.make ~name:"edge problems = line_structure oracle" ~count:40
    QCheck.(triple (int_range 1 200) (int_range 0 6) (int_range 0 100000))
    (fun (n, kind, seed) ->
      line_oracle_ok (line_view ~kind ~n:(max 2 n) ~seed) ~seed:(seed + 4))

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

(* ---------- label writes: the per-half-edge loops as oracle ----------

   The vertex problems' labels were written through [iter_half_edges]
   (a closure per node, a [Graph.half_edge] read and a fresh [Some] per
   half-edge) and the edge problems' through [Graph.half_edge]. Those
   loops are kept here over the same colors and class sweep, as the
   oracle of Algos' row walks; [Line_oracle.edge_coloring] keeps the
   edge coloring's. *)
module Label_oracle = struct
  let iter_half_edges sg v f =
    let base = Semi_graph.base sg in
    let inc = Graph.incident base v and adj = Graph.neighbors base v in
    for i = 0 to Array.length inc - 1 do
      let e = inc.(i) in
      if Semi_graph.edge_present sg e then
        f (Graph.half_edge base ~edge:e ~node:v) adj.(i)
    done

  let deg_plus_one_coloring sg ~ids labeling =
    let colors, _palette, rounds = Algos.proper_coloring sg ~ids in
    List.iter
      (fun v -> iter_half_edges sg v (fun h _ -> Labeling.set labeling h (colors.(v) + 1)))
      (Semi_graph.nodes sg);
    rounds

  let mis sg ~ids labeling =
    let colors, palette, color_rounds = Algos.proper_coloring sg ~ids in
    let in_mis = Oracle.mis_of_coloring sg colors palette in
    List.iter
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
      (Semi_graph.nodes sg);
    color_rounds + palette + 1
end

(* Views for the label writes: whole trees and power-law graphs,
   Theorem 12's T_C (its edges to T_R are rank-1), and edge subsets (no
   rank-1 edge, but hidden edges inside present nodes' rows). *)
let label_view ~kind ~n ~seed =
  match kind mod 4 with
  | 0 -> Semi_graph.of_graph (Gen.random_tree ~n ~seed)
  | 1 -> Semi_graph.of_graph (Gen.power_law_union ~n ~arboricity:2 ~seed)
  | 2 ->
    let tree = Gen.random_tree ~n ~seed in
    let ids = Ids.permuted ~n ~seed:(seed + 7) in
    let k = 2 + (seed mod 6) in
    Tl_decompose.Rake_compress.t_c (Tl_decompose.Rake_compress.run tree ~k ~ids)
  | _ ->
    let g = Gen.forest_union ~n ~arboricity:2 ~seed in
    Semi_graph.of_edge_subset g
      (Array.init (Graph.n_edges g) (fun e -> (e + seed) mod 3 <> 0))

(* Algos' labels and rounds against the oracle loops', half-edge by
   half-edge, for MIS, deg+1 coloring and edge coloring. *)
let labels_match_oracle sg ~seed =
  let g = Semi_graph.base sg in
  let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed in
  let same algo oracle =
    let l = Labeling.create g and l' = Labeling.create g in
    let r = algo sg ~ids l and r' = oracle sg ~ids l' in
    r = r' && labels l g = labels l' g
  in
  let le = Labeling.create g in
  let erounds = Algos.edge_coloring sg ~ids le in
  let le', erounds' = Line_oracle.edge_coloring sg ~ids in
  same Algos.mis Label_oracle.mis
  && same Algos.deg_plus_one_coloring Label_oracle.deg_plus_one_coloring
  && erounds = erounds' && labels le g = labels le' g

let prop_labels_match_oracle =
  QCheck.Test.make ~name:"label writes = per-half-edge oracle loops" ~count:60
    QCheck.(triple (int_range 1 300) (int_range 0 3) (int_range 0 100000))
    (fun (n, kind, seed) ->
      labels_match_oracle (label_view ~kind ~n:(max 2 n) ~seed) ~seed:(seed + 5))

(* A half-edge labeled before the base algorithm runs (by an earlier
   phase) stops the run with the message [Labeling.set] gives, in the
   row walks as in the oracle loops. *)
let test_label_overwrite_refused () =
  let g = Gen.random_tree ~n:60 ~seed:3 in
  let sg =
    Tl_decompose.Rake_compress.t_c
      (Tl_decompose.Rake_compress.run g ~k:3 ~ids:(Ids.permuted ~n:60 ~seed:4))
  in
  let ids = Ids.permuted ~n:60 ~seed:5 in
  let h = List.hd (List.concat_map (Semi_graph.half_edges_of sg) (Semi_graph.nodes sg)) in
  let message = Printf.sprintf "Labeling.set: half-edge %d already labeled" h in
  let refused name run label =
    let l = Labeling.create g in
    Labeling.set l h label;
    match run sg ~ids l with
    | _ -> Alcotest.failf "%s: overwrote half-edge %d" name h
    | exception Invalid_argument m -> Alcotest.(check string) name message m
  in
  refused "mis" Algos.mis Tl_problems.Mis.O;
  refused "mis oracle" Label_oracle.mis Tl_problems.Mis.O;
  refused "coloring" Algos.deg_plus_one_coloring 1;
  refused "coloring oracle" Label_oracle.deg_plus_one_coloring 1;
  refused "edge coloring" Algos.edge_coloring Tl_problems.Edge_coloring.D

(* Words per node on a 50,000-node random tree. The label writes store
   shared [Some] blocks and walk the rows without a closure per node, and
   the compiled topology holds five arrays (presence, present nodes,
   offsets, neighbors and edge ids): about 7 words per node for the
   compile and 20 for a whole run. A fresh [Some] per half-edge (4 words
   per node on a tree) plus a closure per node, or a sixth m-sized CSR
   array, overruns these budgets. *)
let test_base_allocation_budget () =
  let n = 50_000 in
  let g = Gen.random_tree ~n ~seed:23 in
  let sg = Semi_graph.of_graph g in
  let ids = Ids.permuted ~n ~seed:24 in
  let per_node f = snd (allocated_words f) /. float_of_int n in
  let compile = per_node (fun () -> Tl_engine.Topology.compile sg) in
  let l_mis = Labeling.create g and l_col = Labeling.create g in
  let mis = per_node (fun () -> Algos.mis sg ~ids l_mis) in
  let coloring = per_node (fun () -> Algos.deg_plus_one_coloring sg ~ids l_col) in
  check "labels complete" true (Labeling.complete l_mis && Labeling.complete l_col);
  let measured = [ ("compile", compile, 8.); ("mis", mis, 24.); ("deg+1 coloring", coloring, 24.) ] in
  let words =
    String.concat ", "
      (List.map (fun (name, w, budget) -> Printf.sprintf "%s %.1f of %.0f" name w budget) measured)
  in
  List.iter
    (fun (name, w, budget) ->
      check (Printf.sprintf "%s within budget (words per node: %s)" name words) true (w <= budget))
    measured

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

(* ---------- KW: the odd-half kernel against the every-node kernels ----------

   [Reduce.kw_to_delta_plus_one_csr] recolors only the odd half of each
   merged block after phase 0; [Oracle.kw_csr] and the list oracle
   recolor every node in every phase. Linial's output puts most nodes in
   block 0, where no later phase moves them, so the colorings here also
   come from distinct ids and from random proper colorings with large
   palettes. *)

(* A seeded random proper coloring of the present nodes with [palette]
   colors: in a random order, each node probes upwards from a random
   color to the first one no neighbor holds. [palette] must exceed the
   maximum degree. *)
let random_proper_coloring (topo : Tl_engine.Topology.t) ~palette ~seed =
  let rng = Random.State.make [| seed |] in
  let colors = Array.make topo.n_base (-1) in
  let order = Array.copy topo.present_nodes in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Array.iter
    (fun v ->
      let taken c =
        let hit = ref false in
        for j = topo.off.(v) to topo.off.(v + 1) - 1 do
          if colors.(topo.adj.(j)) = c then hit := true
        done;
        !hit
      in
      let c = ref (Random.State.int rng palette) in
      while taken !c do
        c := (!c + 1) mod palette
      done;
      colors.(v) <- !c)
    order;
  colors

(* KW's views: random trees, power-law and forest unions, node-subset
   views (rows that skip hidden nodes) and caterpillars. *)
let kw_view ~kind ~n ~seed =
  match kind mod 5 with
  | 0 -> Semi_graph.of_graph (Gen.random_tree ~n ~seed)
  | 1 -> Semi_graph.of_graph (Gen.power_law_union ~n ~arboricity:(1 + (seed mod 3)) ~seed)
  | 2 -> Semi_graph.of_graph (Gen.forest_union ~n ~arboricity:(1 + (seed mod 3)) ~seed)
  | 3 ->
    let g = Gen.power_law_union ~n ~arboricity:2 ~seed in
    Semi_graph.of_node_subset g (Array.init n (fun v -> (v + seed) mod 3 <> 0))
  | _ -> Semi_graph.of_graph (Gen.caterpillar ~spine:(1 + (n / 8)) ~legs:(1 + (seed mod 12)))

(* The outcome of one KW call on a copy of [colors]: the result and the
   colors, or the [Invalid_argument] text. *)
let kw_outcome kw colors =
  let colors = Array.copy colors in
  match kw ~colors with
  | r -> Ok (r, colors)
  | exception Invalid_argument m -> Error m

(* The kernel and [Oracle.kw_csr] agree on the outcome; the list oracle
   (whose error text is its own) succeeds and fails with them, on the
   same colors. *)
let kw_agree (topo : Tl_engine.Topology.t) ~colors ~palette ~delta =
  let off = topo.off and adj = topo.adj and nodes = topo.present_nodes in
  let got =
    kw_outcome
      (fun ~colors -> Reduce.kw_to_delta_plus_one_csr ~off ~adj ~nodes ~colors ~palette ~delta)
      colors
  in
  let want =
    kw_outcome (fun ~colors -> Oracle.kw_csr ~off ~adj ~nodes ~colors ~palette ~delta) colors
  in
  let listed =
    kw_outcome
      (fun ~colors ->
        Oracle.kw_to_delta_plus_one
          ~neighbors:(Tl_engine.Topology.neighbor_nodes topo)
          ~nodes:(Array.to_list nodes) ~colors ~palette ~delta)
      colors
  in
  got = want
  && match (want, listed) with Ok _, Ok _ -> want = listed | Error _, Error _ -> true | _ -> false

(* Every coloring of one view, each with δ = Δ and δ = Δ+3: distinct
   ids with palettes n and n³, Linial's output, and a random proper
   coloring with a palette of up to 50·(Δ+1). *)
let kw_differential_ok sg ~seed ~scale =
  let topo = Tl_engine.Topology.compile sg in
  let n = topo.n_base and nodes = topo.present_nodes in
  let max_degree = Tl_engine.Topology.max_degree topo in
  let of_ids ids =
    let colors = Array.make n (-1) in
    Array.iter (fun v -> colors.(v) <- ids.(v) - 1) nodes;
    colors
  in
  let linial =
    let colors = of_ids (Ids.permuted ~n ~seed) in
    if max_degree = 0 then (colors, n)
    else
      let palette, _ =
        Linial.reduce_csr ~off:topo.off ~adj:topo.adj ~nodes ~colors ~palette:n ~max_degree
      in
      (colors, palette)
  in
  let random_palette = max_degree + 1 + (scale * (max_degree + 1) / 50) in
  let colorings =
    [
      (of_ids (Ids.permuted ~n ~seed), n);
      (of_ids (Ids.spread ~n ~c:3 ~seed), n * n * n);
      linial;
      (random_proper_coloring topo ~palette:random_palette ~seed, random_palette);
    ]
  in
  List.for_all
    (fun (colors, palette) ->
      List.for_all
        (fun delta -> kw_agree topo ~colors ~palette ~delta)
        [ max_degree; max_degree + 3 ])
    colorings

let prop_kw_odd_half_matches_oracles =
  QCheck.Test.make ~name:"KW odd-half kernel = every-node kernels" ~count:150
    QCheck.(quad (int_range 1 250) (int_range 0 4) (int_range 0 100000) (int_range 0 2450))
    (fun (n, kind, seed, scale) ->
      kw_differential_ok (kw_view ~kind ~n:(max 2 n) ~seed) ~seed:(seed + 1) ~scale)

(* With δ below the maximum degree both kernels fail alike, or agree on
   the colors where greedy still fits. *)
let prop_kw_small_delta_parity =
  QCheck.Test.make ~name:"KW below max degree: same outcome" ~count:60
    QCheck.(triple (int_range 2 200) (int_range 0 4) (int_range 0 100000))
    (fun (n, kind, seed) ->
      let topo = Tl_engine.Topology.compile (kw_view ~kind ~n ~seed) in
      let max_degree = Tl_engine.Topology.max_degree topo in
      let palette = 2 + (seed mod (20 * (max_degree + 1))) + max_degree in
      let colors = random_proper_coloring topo ~palette ~seed in
      List.for_all
        (fun delta -> kw_agree topo ~colors ~palette ~delta)
        (List.filter (fun d -> d >= 0) [ max_degree - 1; max_degree / 2; 0 ]))

(* The battery discriminates: some case recolors an odd-half node to a
   new slot in a phase >= 1, so a kernel that stopped after phase 0
   would fail it. *)
let test_kw_later_phases_move_slots () =
  Oracle.later_moves := 0;
  let ok =
    List.for_all
      (fun kind -> kw_differential_ok (kw_view ~kind ~n:200 ~seed:(kind + 11)) ~seed:3 ~scale:2450)
      [ 0; 1; 2; 3; 4 ]
  in
  check "kernel = oracles" true ok;
  check
    (Printf.sprintf "%d later-phase slot moves" !Oracle.later_moves)
    true (!Oracle.later_moves > 0)

(* Hand-built rows that name ids outside [nodes] (with colors no palette
   holds): the kernel ignores them, exactly as the oracle does and as if
   the rows skipped them, and leaves their colors alone. *)
let test_kw_rows_outside_nodes () =
  (* present: the 5-cycle 1-3-5-7-9; ids 0, 2, 4, 6, 8, 10 are outside *)
  let nodes = [| 1; 3; 5; 7; 9 |] in
  let rows =
    [| []; [ 0; 3; 9; 2 ]; []; [ 1; 4; 5 ]; []; [ 3; 7; 10 ]; []; [ 6; 5; 9; 8 ]; []; [ 7; 1 ]; [] |]
  in
  let csr rows =
    let off = Array.make (Array.length rows + 1) 0 in
    Array.iteri (fun v r -> off.(v + 1) <- off.(v) + List.length r) rows;
    (off, Array.of_list (List.concat (Array.to_list rows)))
  in
  let present = Array.map (List.filter (fun u -> u mod 2 = 1)) rows in
  let colors = [| -7; 40; 99; 12; 1000; 33; -1; 5; 77; 21; 123456 |] in
  let run rows kw =
    let off, adj = csr rows in
    kw_outcome (fun ~colors -> kw ~off ~adj ~nodes ~colors ~palette:41 ~delta:2) colors
  in
  let got = run rows Reduce.kw_to_delta_plus_one_csr in
  check "same as the oracle" true (got = run rows Oracle.kw_csr);
  check "same as rows without them" true (got = run present Reduce.kw_to_delta_plus_one_csr);
  match got with
  | Error m -> Alcotest.fail m
  | Ok ((palette, rounds), out) ->
    check_int "palette" 3 palette;
    check_int "rounds: 4 phases of 6" 24 rounds;
    check "outside ids untouched" true
      (List.for_all (fun v -> out.(v) = colors.(v)) [ 0; 2; 4; 6; 8; 10 ]);
    check "proper on the cycle" true
      (Array.for_all (fun v -> List.for_all (fun u -> out.(u) <> out.(v)) present.(v)) nodes)

(* Today's [Invalid_argument] texts: a color outside the palette (checked
   before any recolor), and δ below the maximum degree, whether greedy
   runs out of slots in phase 0 or only once two blocks merge. *)
let test_kw_error_parity () =
  let k4 = Tl_engine.Topology.compile (Semi_graph.of_graph (Gen.complete 4)) in
  let outcome kw ~colors ~palette ~delta =
    kw_outcome
      (fun ~colors ->
        kw ~off:k4.off ~adj:k4.adj ~nodes:k4.present_nodes ~colors ~palette ~delta)
      colors
  in
  let both name ~colors ~palette ~delta text =
    let got = outcome Reduce.kw_to_delta_plus_one_csr ~colors ~palette ~delta in
    check (name ^ ": same as the oracle") true
      (got = outcome Oracle.kw_csr ~colors ~palette ~delta);
    check (name ^ ": text") true (got = Error text)
  in
  let palette_err = "Reduce.kw_to_delta_plus_one: color out of palette" in
  let delta_err = "Reduce.kw: delta below maximum degree" in
  both "negative color" ~colors:[| 0; 1; -1; 3 |] ~palette:20 ~delta:3 palette_err;
  both "color = palette" ~colors:[| 0; 1; 20; 3 |] ~palette:20 ~delta:3 palette_err;
  both "palette checked first" ~colors:[| 0; 1; 2; 99 |] ~palette:20 ~delta:1 palette_err;
  both "phase 0 runs out" ~colors:[| 0; 1; 2; 3 |] ~palette:12 ~delta:2 delta_err;
  (* blocks {0, 1} and {6, 7} each fit in phase 0; merged, the odd
     half's second node finds slots 0, 1 and 2 taken *)
  both "phase 1 runs out" ~colors:[| 0; 1; 6; 7 |] ~palette:12 ~delta:2 delta_err

(* Two slabs indexed by node id, the schedule order, and O(δ) for the
   class starts and the slot stamps: 2·n + |nodes| + 4(δ+1) + 64 words,
   counted as minor + major − promoted, since slabs above 256 words skip
   the minor heap. The view keeps a third of a power-law graph's nodes
   and the palette is n³, so there are many phases. *)
let test_kw_csr_allocation_budget () =
  let n = 20_000 in
  let g = Gen.power_law_union ~n ~arboricity:2 ~seed:12 in
  let sg = Semi_graph.of_node_subset g (Array.init n (fun v -> v mod 3 = 0)) in
  let topo = Tl_engine.Topology.compile sg in
  let nodes = topo.present_nodes in
  let delta = Tl_engine.Topology.max_degree topo in
  let ids = Ids.spread ~n ~c:3 ~seed:13 in
  let colors = Array.make n (-1) in
  Array.iter (fun v -> colors.(v) <- ids.(v) - 1) nodes;
  let expected = Array.copy colors in
  let want =
    Oracle.kw_csr ~off:topo.off ~adj:topo.adj ~nodes ~colors:expected ~palette:(n * n * n)
      ~delta
  in
  let got, words =
    allocated_words (fun () ->
        Reduce.kw_to_delta_plus_one_csr ~off:topo.off ~adj:topo.adj ~nodes ~colors
          ~palette:(n * n * n) ~delta)
  in
  check "same as the oracle" true (got = want && colors = expected);
  check "many phases" true (snd got / (2 * (delta + 1)) >= 10);
  let budget = float_of_int ((2 * n) + Array.length nodes + (4 * (delta + 1)) + 64) in
  check
    (Printf.sprintf "words %.0f within %.0f" words budget)
    true (words <= budget)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cv_proper;
      prop_cv_kernel_matches_list;
      prop_cv_runtime_proper;
      prop_algos_valid_on_random_trees;
      prop_algos_valid_on_arb_graphs;
      prop_linial_step_keeps_proper;
      prop_differential_random_trees;
      prop_differential_power_law;
      prop_differential_node_subsets;
      prop_line_csr_matches_line_graph;
      prop_edge_problems_match_line_oracle;
      prop_labels_match_oracle;
      prop_kw_odd_half_matches_oracles;
      prop_kw_small_delta_parity;
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
          Alcotest.test_case "parent outside nodes" `Quick test_cv_parent_outside_nodes;
        ] );
      ( "linial",
        [
          Alcotest.test_case "single step" `Quick test_linial_step_properness;
          Alcotest.test_case "full reduction" `Quick test_linial_reduce;
          Alcotest.test_case "primes" `Quick test_primes;
          Alcotest.test_case "allocation budget" `Quick test_linial_allocation_budget;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "KW to delta+1" `Quick test_kw_reduction;
          Alcotest.test_case "greedy to deg+1" `Quick test_to_bound_deg_plus_one;
          Alcotest.test_case "KW allocation budget" `Quick test_kw_allocation_budget;
          Alcotest.test_case "KW later phases move slots" `Quick
            test_kw_later_phases_move_slots;
          Alcotest.test_case "KW rows naming ids outside nodes" `Quick
            test_kw_rows_outside_nodes;
          Alcotest.test_case "KW error parity" `Quick test_kw_error_parity;
          Alcotest.test_case "KW CSR allocation budget" `Quick
            test_kw_csr_allocation_budget;
        ] );
      ( "algos",
        [
          Alcotest.test_case "all problems, all families" `Quick test_algos_on_families;
          Alcotest.test_case "semi-graphs with rank-1 edges" `Quick test_algos_on_semi_graph_with_rank1;
          Alcotest.test_case "line structure" `Quick test_line_structure;
          Alcotest.test_case "line CSR edge cases" `Quick test_line_csr_edge_cases;
          Alcotest.test_case "truly local rounds" `Quick test_rounds_depend_on_degree_not_n;
          Alcotest.test_case "list-oracle edge cases" `Quick test_differential_edge_cases;
          Alcotest.test_case "label overwrite refused" `Quick test_label_overwrite_refused;
          Alcotest.test_case "allocation budget" `Quick test_base_allocation_budget;
        ] );
      ("properties", qcheck_tests);
    ]
