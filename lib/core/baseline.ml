module Graph = Tl_graph.Graph
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Rake_compress = Tl_decompose.Rake_compress
module Span = Tl_obs.Span

(* Split the tree's edges into two forests by owner (= lower endpoint in
   the rake-and-compress total order with k = 2; every node has at most 2
   higher neighbors), 3-color each forest and return the 6 star families
   in schedule order together with the rounds spent. *)
let star_schedule tree ~ids =
  let cost = Round_cost.create () in
  let rc =
    Span.with_span "decompose" (fun () ->
        let rc = Rake_compress.run tree ~k:2 ~ids in
        Round_cost.charge cost "decompose"
          (Rake_compress.decomposition_rounds rc);
        rc)
  in
  let n = Graph.n_nodes tree in
  let m = Graph.n_edges tree in
  let f_index = Array.make m 0 in
  let next = Array.make n 1 in
  Graph.iter_edges
    (fun e _ ->
      let lo = Rake_compress.lower_endpoint rc e in
      f_index.(e) <- next.(lo);
      next.(lo) <- next.(lo) + 1;
      (* k = 2 guarantees at most two higher neighbors per node *)
      assert (f_index.(e) <= 2))
    tree;
  let star_j = Array.make m 0 in
  let cv_rounds = ref 0 in
  Span.with_span "forest-coloring" (fun () ->
  let parent = Array.make n (-1) in
  let color = Array.make n (-1) in
  let in_forest = Array.make n false in
  for c = 1 to 2 do
    Array.fill parent 0 n (-1);
    Array.fill in_forest 0 n false;
    Graph.iter_edges
      (fun e _ ->
        if f_index.(e) = c then begin
          let lo = Rake_compress.lower_endpoint rc e in
          let hi = Rake_compress.higher_endpoint rc e in
          parent.(lo) <- hi;
          in_forest.(lo) <- true;
          in_forest.(hi) <- true
        end)
      tree;
    let nodes = Array.of_seq (Seq.filter (fun v -> in_forest.(v)) (Seq.init n Fun.id)) in
    if nodes <> [||] then begin
      let rounds = Tl_symmetry.Cole_vishkin.color3 ~nodes ~parent ~ids ~color in
      if rounds > !cv_rounds then cv_rounds := rounds;
      Graph.iter_edges
        (fun e _ ->
          if f_index.(e) = c then
            star_j.(e) <- color.(Rake_compress.higher_endpoint rc e) + 1)
        tree
    end
  done;
  Round_cost.charge cost "forest-3-coloring" !cv_rounds);
  (* group the edges of each (c, j) family in schedule order *)
  let families = ref [] in
  for c = 2 downto 1 do
    for j = 3 downto 1 do
      let edges = ref [] in
      for e = m - 1 downto 0 do
        if f_index.(e) = c && star_j.(e) = j then edges := e :: !edges
      done;
      families := !edges :: !families
    done
  done;
  (cost, !families)

let solve_with_stars solve_node_list ~tree ~ids =
  let cost, families = star_schedule tree ~ids in
  let labeling = Labeling.create tree in
  Span.with_span "stars" (fun () ->
      Span.add_counter "families" (List.length families);
      List.iter
        (fun edges ->
          solve_node_list tree labeling ~edges;
          (* each family's stars are node-disjoint and solved in parallel:
             gather + redistribute at distance 1 *)
          Round_cost.charge cost "gather-solve(stars)" 2)
        families);
  (labeling, cost)

let edge_coloring_on_tree ~tree ~ids =
  solve_with_stars Tl_problems.Edge_coloring.solve_node_list ~tree ~ids

let matching_on_tree ~tree ~ids =
  solve_with_stars Tl_problems.Matching.solve_node_list ~tree ~ids
