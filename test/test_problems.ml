(* Tests for the node-edge-checkable formalism and the concrete problems. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Props = Tl_graph.Props
module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling
module Nec = Tl_problems.Nec
module Mis = Tl_problems.Mis
module Coloring = Tl_problems.Coloring
module Matching = Tl_problems.Matching
module Edge_coloring = Tl_problems.Edge_coloring
module Orientation = Tl_problems.Orientation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tree_of (n, seed) = Gen.random_tree ~n ~seed

(* ---------- Labeling ---------- *)

let test_labeling_basics () =
  let g = Gen.path 3 in
  let l = Labeling.create g in
  check_int "unlabeled" 4 (Labeling.unlabeled_count l);
  check "not complete" false (Labeling.complete l);
  Labeling.set l 0 "x";
  check "labeled" true (Labeling.is_labeled l 0);
  check "get" true (Labeling.get l 0 = Some "x");
  check "double set raises" true
    (try Labeling.set l 0 "y"; false with Invalid_argument _ -> true);
  Labeling.set_exn_free l 0 "y";
  check "override" true (Labeling.get l 0 = Some "y");
  check "labels at node" true (Labeling.labels_at_node l 0 = [ "y" ]);
  Labeling.set l 1 "z";
  check "labels at edge" true (Labeling.labels_at_edge l 0 = [ "y"; "z" ]);
  check "node 0 fully labeled" true (Labeling.node_fully_labeled l 0);
  check "node 1 not fully labeled" false (Labeling.node_fully_labeled l 1);
  let l' = Labeling.copy l in
  Labeling.set l' 2 "w";
  check "copy independent" false (Labeling.is_labeled l 2)

(* ---------- Validator machinery ---------- *)

let test_validate_reports_missing () =
  let g = Gen.path 3 in
  let l = Labeling.create g in
  let violations = Nec.validate Mis.problem g l in
  check_int "4 missing half-edges" 4
    (List.length
       (List.filter
          (function Nec.Missing_half_edge _ -> true | _ -> false)
          violations))

let test_validate_node_violation () =
  let g = Gen.path 2 in
  let l = Labeling.create g in
  (* both endpoints point P at each other: edge violation and node ok? A
     single P with no O is a legal node config; {P,P} is an illegal edge. *)
  Labeling.set l 0 Mis.P;
  Labeling.set l 1 Mis.P;
  let violations = Nec.validate Mis.problem g l in
  check "has edge violation" true
    (List.exists (function Nec.Edge_violation _ -> true | _ -> false) violations)

let test_validate_semi_ignores_absent () =
  let g = Gen.path 3 in
  let sg = Semi_graph.of_node_subset g [| true; false; false |] in
  let l = Labeling.create g in
  (* only half-edge (0, edge 01) is present; label it M *)
  Labeling.set l (Graph.half_edge g ~edge:0 ~node:0) Mis.M;
  check "valid on semi" true (Nec.validate_semi Mis.problem sg l = []);
  check "invalid on full graph" false (Nec.validate Mis.problem g l = [])

let test_multiset_equal () =
  check "perm" true (Nec.multiset_equal ( = ) [ 1; 2; 2 ] [ 2; 1; 2 ]);
  check "diff" false (Nec.multiset_equal ( = ) [ 1; 2 ] [ 2; 2 ]);
  check "len" false (Nec.multiset_equal ( = ) [ 1 ] [ 1; 1 ]);
  check "empty" true (Nec.multiset_equal ( = ) [] [])

(* ---------- MIS ---------- *)

let test_mis_node_constraint () =
  check "all M" true (Mis.problem.Nec.node_ok [ Mis.M; Mis.M ]);
  check "empty" true (Mis.problem.Nec.node_ok []);
  check "one P rest O" true (Mis.problem.Nec.node_ok [ Mis.O; Mis.P; Mis.O ]);
  check "two P" false (Mis.problem.Nec.node_ok [ Mis.P; Mis.P ]);
  check "all O" false (Mis.problem.Nec.node_ok [ Mis.O; Mis.O ]);
  check "M and O mixed" false (Mis.problem.Nec.node_ok [ Mis.M; Mis.O ])

let test_mis_edge_constraint () =
  check "MP" true (Mis.problem.Nec.edge_ok [ Mis.M; Mis.P ]);
  check "MO" true (Mis.problem.Nec.edge_ok [ Mis.O; Mis.M ]);
  check "OO" true (Mis.problem.Nec.edge_ok [ Mis.O; Mis.O ]);
  check "MM" false (Mis.problem.Nec.edge_ok [ Mis.M; Mis.M ]);
  check "PO" false (Mis.problem.Nec.edge_ok [ Mis.P; Mis.O ]);
  check "PP" false (Mis.problem.Nec.edge_ok [ Mis.P; Mis.P ]);
  check "rank1 M" true (Mis.problem.Nec.edge_ok [ Mis.M ]);
  check "rank1 O" true (Mis.problem.Nec.edge_ok [ Mis.O ]);
  check "rank1 P forbidden" false (Mis.problem.Nec.edge_ok [ Mis.P ]);
  check "rank0" true (Mis.problem.Nec.edge_ok [])

let test_mis_encode_decode () =
  let g = Gen.path 5 in
  let set = [| true; false; true; false; true |] in
  let l = Mis.encode g set in
  check "valid" true (Nec.is_valid Mis.problem g l);
  check "roundtrip" true (Mis.decode g l = set);
  check "bad set raises" true
    (try Mis.encode g [| true; true; false; false; false |] |> ignore; false
     with Invalid_argument _ -> true)

let test_mis_solve_sequential () =
  List.iter
    (fun spec ->
      let g = tree_of spec in
      let l = Mis.solve_sequential g in
      check "valid" true (Nec.is_valid Mis.problem g l);
      check "maximal" true
        (Props.is_maximal_independent_set g (Mis.decode g l)))
    [ (1, 0); (2, 1); (30, 2); (100, 3) ]

let test_mis_solve_with_boundary () =
  (* path 0-1-2: fix node 0's half-edge to M (as if a previous phase put 0
     in the MIS), then complete nodes 1 and 2 *)
  let g = Gen.path 3 in
  let l = Labeling.create g in
  Labeling.set l (Graph.half_edge g ~edge:0 ~node:0) Mis.M;
  Mis.solve_edge_list g l ~nodes:[ 1; 2 ];
  (* node 1 must not join (M neighbor), node 2 must join *)
  check "1 not in mis" true (List.exists (( <> ) Mis.M) (Labeling.labels_at_node l 1));
  check "2 in mis" true (List.for_all (( = ) Mis.M) (Labeling.labels_at_node l 2));
  (* all constraints hold except node 0 (which is only partially labeled
     from the full graph's perspective: its solitary half-edge is fine) *)
  check "complete" true (Labeling.complete l)

(* ---------- Coloring ---------- *)

let test_coloring_constraints () =
  let p = Coloring.problem_deg_plus_one in
  check "same colors" true (p.Nec.node_ok [ 2; 2; 2 ]);
  check "palette bound" false (p.Nec.node_ok [ 5; 5; 5 ]);
  check "mixed" false (p.Nec.node_ok [ 1; 2 ]);
  check "empty" true (p.Nec.node_ok []);
  check "edge differ" true (p.Nec.edge_ok [ 1; 2 ]);
  check "edge clash" false (p.Nec.edge_ok [ 3; 3 ]);
  let q = Coloring.problem_delta_plus_one ~delta:3 in
  check "delta palette ok" true (q.Nec.node_ok [ 4 ]);
  check "delta palette exceeded" false (q.Nec.node_ok [ 5 ])

let test_coloring_encode_decode () =
  let g = Gen.star 4 in
  let colors = [| 1; 2; 2; 2 |] in
  let l = Coloring.encode g colors in
  check "valid" true (Nec.is_valid Coloring.problem_deg_plus_one g l);
  check "decode" true (Coloring.decode g l = colors)

let test_coloring_solver () =
  List.iter
    (fun spec ->
      let g = tree_of spec in
      let l = Coloring.solve_sequential g in
      check "valid" true (Nec.is_valid Coloring.problem_deg_plus_one g l);
      check "proper" true (Props.is_proper_coloring g (Coloring.decode g l)))
    [ (1, 0); (2, 5); (60, 6); (200, 7) ]

let test_coloring_respects_boundary () =
  let g = Gen.path 3 in
  let l = Labeling.create g in
  (* fix node 0's color to 1 *)
  Labeling.set l (Graph.half_edge g ~edge:0 ~node:0) 1;
  Coloring.solve_edge_list g l ~nodes:[ 1; 2 ];
  let c1 = match Labeling.labels_at_node l 1 with c :: _ -> c | [] -> -1 in
  check "node 1 avoids 1" true (c1 <> 1)

(* ---------- Matching ---------- *)

let test_matching_constraints () =
  let p = Matching.problem in
  check "one M" true (p.Nec.node_ok [ Matching.M; Matching.P; Matching.D ]);
  check "two M" false (p.Nec.node_ok [ Matching.M; Matching.M ]);
  check "all O/D" true (p.Nec.node_ok [ Matching.O; Matching.D ]);
  check "P without M" false (p.Nec.node_ok [ Matching.P; Matching.O ]);
  check "MM edge" true (p.Nec.edge_ok [ Matching.M; Matching.M ]);
  check "PO edge" true (p.Nec.edge_ok [ Matching.P; Matching.O ]);
  check "PP edge" true (p.Nec.edge_ok [ Matching.P; Matching.P ]);
  check "OO edge (maximality)" false (p.Nec.edge_ok [ Matching.O; Matching.O ]);
  check "MO edge" false (p.Nec.edge_ok [ Matching.M; Matching.O ]);
  check "MP edge" false (p.Nec.edge_ok [ Matching.M; Matching.P ]);
  check "rank1 D" true (p.Nec.edge_ok [ Matching.D ]);
  check "rank1 M" false (p.Nec.edge_ok [ Matching.M ])

let test_matching_encode_decode () =
  let g = Gen.path 4 in
  let m = [| true; false; true |] in
  let l = Matching.encode g m in
  check "valid" true (Nec.is_valid Matching.problem g l);
  check "decode" true (Matching.decode g l = m)

let test_matching_solver () =
  List.iter
    (fun spec ->
      let g = tree_of spec in
      let l = Matching.solve_sequential g in
      check "valid" true (Nec.is_valid Matching.problem g l);
      check "maximal" true (Props.is_maximal_matching g (Matching.decode g l)))
    [ (2, 0); (30, 8); (150, 9) ]

let test_matching_lemma17_cases () =
  (* star with 3 leaves: center matched once, other edges P/O *)
  let g = Gen.star 4 in
  let l = Labeling.create g in
  Matching.solve_node_list g l ~edges:[ 0; 1; 2 ];
  check "valid" true (Nec.is_valid Matching.problem g l);
  let m = Matching.decode g l in
  check_int "exactly one matched" 1
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m)

(* ---------- Edge coloring ---------- *)

let test_edge_coloring_constraints () =
  let p = Edge_coloring.problem in
  check "node ok" true
    (p.Nec.node_ok [ Edge_coloring.Pair (1, 3); Edge_coloring.Pair (2, 1) ]);
  check "degree part too big" false
    (p.Nec.node_ok [ Edge_coloring.Pair (3, 1); Edge_coloring.Pair (1, 2) ]);
  check "color clash" false
    (p.Nec.node_ok [ Edge_coloring.Pair (1, 2); Edge_coloring.Pair (2, 2) ]);
  check "D ignored in count" true
    (p.Nec.node_ok [ Edge_coloring.Pair (1, 1); Edge_coloring.D ]);
  check "edge ok" true
    (p.Nec.edge_ok [ Edge_coloring.Pair (2, 3); Edge_coloring.Pair (2, 3) ]);
  check "palette certificate" false
    (p.Nec.edge_ok [ Edge_coloring.Pair (1, 3); Edge_coloring.Pair (1, 3) ]);
  check "color mismatch" false
    (p.Nec.edge_ok [ Edge_coloring.Pair (2, 3); Edge_coloring.Pair (2, 4) ]);
  check "rank1 D" true (p.Nec.edge_ok [ Edge_coloring.D ]);
  check "rank1 pair" false (p.Nec.edge_ok [ Edge_coloring.Pair (1, 1) ])

let test_edge_coloring_two_delta () =
  let p = Edge_coloring.problem_two_delta ~delta:2 in
  (* palette bound 2*2-1 = 3 *)
  check "color 3 ok" true
    (p.Nec.edge_ok [ Edge_coloring.Pair (2, 3); Edge_coloring.Pair (2, 3) ]);
  check "color 4 too big" false
    (p.Nec.edge_ok [ Edge_coloring.Pair (2, 4); Edge_coloring.Pair (3, 4) ])

let test_edge_coloring_encode_decode () =
  let g = Gen.path 4 in
  let colors = [| 1; 2; 1 |] in
  let l = Edge_coloring.encode g colors in
  check "valid" true (Nec.is_valid Edge_coloring.problem g l);
  check "decode" true (Edge_coloring.decode g l = colors);
  check "out of palette raises" true
    (try Edge_coloring.encode g [| 5; 2; 1 |] |> ignore; false
     with Invalid_argument _ -> true)

let test_edge_coloring_solver () =
  List.iter
    (fun spec ->
      let g = tree_of spec in
      let l = Edge_coloring.solve_sequential g in
      check "valid" true (Nec.is_valid Edge_coloring.problem g l);
      let colors = Edge_coloring.decode g l in
      check "proper" true (Props.is_proper_edge_coloring g colors);
      check "palette" true
        (Graph.fold_edges
           (fun e _ acc -> acc && colors.(e) <= Props.edge_degree g e + 1)
           g true))
    [ (2, 0); (40, 10); (150, 11) ]

(* ---------- Orientation ---------- *)

let test_orientation_constraints () =
  let p = Orientation.problem in
  check "deg2 all in ok" true (p.Nec.node_ok [ Orientation.In; Orientation.In ]);
  check "deg3 all in bad" false
    (p.Nec.node_ok [ Orientation.In; Orientation.In; Orientation.In ]);
  check "deg3 one out" true
    (p.Nec.node_ok [ Orientation.In; Orientation.Out; Orientation.In ]);
  check "edge consistent" true (p.Nec.edge_ok [ Orientation.In; Orientation.Out ]);
  check "edge both out" false (p.Nec.edge_ok [ Orientation.Out; Orientation.Out ])

let test_orientation_solver () =
  List.iter
    (fun g ->
      let l = Orientation.solve_sequential g in
      check "valid" true (Nec.is_valid Orientation.problem g l))
    [
      Gen.random_tree ~n:50 ~seed:3;
      Gen.cycle 7;
      Gen.complete 5;
      Gen.triangulated_grid 5;
      Gen.star 6;
      Gen.grid 4 4;
    ]

(* ---------- qcheck properties ---------- *)

let arb_tree =
  QCheck.(pair (int_range 1 150) (int_range 0 100000))

let prop_mis_solver_valid =
  QCheck.Test.make ~name:"sequential MIS is valid and maximal" ~count:100
    arb_tree
    (fun spec ->
      let g = tree_of spec in
      let l = Mis.solve_sequential g in
      Nec.is_valid Mis.problem g l
      && Props.is_maximal_independent_set g (Mis.decode g l))

let prop_matching_solver_valid =
  QCheck.Test.make ~name:"sequential matching is valid and maximal" ~count:100
    arb_tree
    (fun spec ->
      let g = tree_of spec in
      let l = Matching.solve_sequential g in
      Nec.is_valid Matching.problem g l
      && Props.is_maximal_matching g (Matching.decode g l))

let prop_edge_coloring_solver_valid =
  QCheck.Test.make ~name:"sequential edge coloring is valid and proper"
    ~count:100 arb_tree
    (fun spec ->
      let g = tree_of spec in
      let l = Edge_coloring.solve_sequential g in
      Nec.is_valid Edge_coloring.problem g l
      && Props.is_proper_edge_coloring g (Edge_coloring.decode g l))

let prop_coloring_solver_valid =
  QCheck.Test.make ~name:"sequential coloring is valid and proper" ~count:100
    arb_tree
    (fun spec ->
      let g = tree_of spec in
      let l = Coloring.solve_sequential g in
      Nec.is_valid Coloring.problem_deg_plus_one g l
      && Props.is_proper_coloring g (Coloring.decode g l))

let prop_solvers_on_arbitrary_graphs =
  QCheck.Test.make ~name:"sequential solvers on bounded-arboricity graphs"
    ~count:60
    QCheck.(triple (int_range 2 80) (int_range 1 4) (int_range 0 100000))
    (fun (n, a, seed) ->
      let g = Gen.forest_union ~n ~arboricity:a ~seed in
      Nec.is_valid Matching.problem g (Matching.solve_sequential g)
      && Nec.is_valid Edge_coloring.problem g (Edge_coloring.solve_sequential g)
      && Nec.is_valid Mis.problem g (Mis.solve_sequential g)
      && Nec.is_valid Coloring.problem_deg_plus_one g (Coloring.solve_sequential g))

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"matching encode/decode roundtrip" ~count:60 arb_tree
    (fun spec ->
      let g = tree_of spec in
      let m = Matching.decode g (Matching.solve_sequential g) in
      Matching.decode g (Matching.encode g m) = m)

(* ---------- failure injection: validator soundness ----------

   Corrupt one half-edge of a valid solution with a random different
   label. A corruption may happen to produce another valid labeling (the
   encodings are not unique), but then it must decode to a semantically
   correct solution: "validator-valid implies referee-correct" is exactly
   the Section 5 equivalence between the node-edge-checkable encodings
   and the classic problems. *)

let corrupt_one g labeling alternatives rng =
  let h = Tl_graph.Gen.Prng.int rng (Graph.n_half_edges g) in
  let current = Labeling.get labeling h in
  let others = List.filter (fun l -> Some l <> current) alternatives in
  let l = List.nth others (Tl_graph.Gen.Prng.int rng (List.length others)) in
  Labeling.set_exn_free labeling h l;
  labeling

let prop_mis_validator_sound =
  QCheck.Test.make ~name:"corrupted MIS: valid => referee-correct" ~count:200
    QCheck.(pair (int_range 2 80) (int_range 0 100000))
    (fun (n, seed) ->
      let g = tree_of (n, seed) in
      let rng = Tl_graph.Gen.Prng.create (seed + 17) in
      let l = corrupt_one g (Mis.solve_sequential g) [ Mis.M; Mis.P; Mis.O ] rng in
      (not (Nec.is_valid Mis.problem g l))
      || Props.is_maximal_independent_set g (Mis.decode g l))

let prop_matching_validator_sound =
  QCheck.Test.make ~name:"corrupted matching: valid => referee-correct"
    ~count:200
    QCheck.(pair (int_range 2 80) (int_range 0 100000))
    (fun (n, seed) ->
      let g = tree_of (n, seed) in
      let rng = Tl_graph.Gen.Prng.create (seed + 19) in
      let l =
        corrupt_one g (Matching.solve_sequential g)
          [ Matching.M; Matching.P; Matching.O; Matching.D ]
          rng
      in
      (not (Nec.is_valid Matching.problem g l))
      || Props.is_maximal_matching g (Matching.decode g l))

let prop_coloring_validator_sound =
  QCheck.Test.make ~name:"corrupted coloring: valid => referee-correct"
    ~count:200
    QCheck.(pair (int_range 2 80) (int_range 0 100000))
    (fun (n, seed) ->
      let g = tree_of (n, seed) in
      let rng = Tl_graph.Gen.Prng.create (seed + 23) in
      let l =
        corrupt_one g (Coloring.solve_sequential g) [ 1; 2; 3; 4; 5 ] rng
      in
      (not (Nec.is_valid Coloring.problem_deg_plus_one g l))
      || Props.is_proper_coloring g (Coloring.decode g l))

let prop_edge_coloring_validator_sound =
  QCheck.Test.make ~name:"corrupted edge coloring: valid => referee-correct"
    ~count:200
    QCheck.(pair (int_range 2 80) (int_range 0 100000))
    (fun (n, seed) ->
      let g = tree_of (n, seed) in
      let rng = Tl_graph.Gen.Prng.create (seed + 29) in
      let alternatives =
        Edge_coloring.D
        :: List.concat_map
             (fun a -> List.map (fun b -> Edge_coloring.Pair (a, b)) [ 1; 2; 3 ])
             [ 1; 2; 3 ]
      in
      let l = corrupt_one g (Edge_coloring.solve_sequential g) alternatives rng in
      (not (Nec.is_valid Edge_coloring.problem g l))
      || Props.is_proper_edge_coloring g (Edge_coloring.decode g l))

let test_specific_corruptions_caught () =
  (* a handful of canonical corruptions that must each be reported *)
  let g = Gen.path 3 in
  (* MIS: make both endpoints of an edge claim membership *)
  let l = Labeling.create g in
  List.iter (fun h -> Labeling.set_exn_free l h Mis.M) [ 0; 1; 2; 3 ];
  check "double M caught" false (Nec.is_valid Mis.problem g l);
  (* matching: an unmatched-unmatched edge (maximality violation) *)
  let l = Labeling.create g in
  List.iter (fun h -> Labeling.set_exn_free l h Matching.O) [ 0; 1; 2; 3 ];
  check "O-O caught" false (Nec.is_valid Matching.problem g l);
  (* coloring: same color across an edge *)
  let l = Labeling.create g in
  List.iter (fun h -> Labeling.set_exn_free l h 1) [ 0; 1; 2; 3 ];
  check "monochromatic caught" false
    (Nec.is_valid Coloring.problem_deg_plus_one g l);
  (* edge coloring: palette certificate failure (1,3)+(1,3) *)
  let l = Labeling.create g in
  List.iter
    (fun h -> Labeling.set_exn_free l h (Edge_coloring.Pair (1, 3)))
    [ 0; 1; 2; 3 ];
  check "palette violation caught" false
    (Nec.is_valid Edge_coloring.problem g l)

(* ---------- the one-pass validator against the list-based one ----------

   The list-based validator that [Nec.validate_semi] replaced, kept as
   its oracle: per node and per edge it builds the half-edge and label
   lists and compares their lengths with [sdeg] / [rank]. The one-pass
   validator must return the same violations in the same order, with
   the same rendered configurations. *)

let render_config pp_label labels =
  Format.asprintf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_label)
    labels

let oracle_validate_semi (problem : _ Nec.t) sg labeling =
  let g = Semi_graph.base sg in
  let violations = ref [] in
  for h = Graph.n_half_edges g - 1 downto 0 do
    if Semi_graph.half_edge_present sg h && not (Labeling.is_labeled labeling h)
    then violations := Nec.Missing_half_edge h :: !violations
  done;
  List.iter
    (fun v ->
      let labels =
        List.filter_map (Labeling.get labeling) (Semi_graph.half_edges_of sg v)
      in
      if List.length labels = Semi_graph.sdeg sg v && not (problem.node_ok labels)
      then
        violations :=
          Nec.Node_violation (v, render_config problem.pp_label labels)
          :: !violations)
    (Semi_graph.nodes sg);
  List.iter
    (fun e ->
      let u, w = Graph.edge_endpoints g e in
      let labels =
        List.filter_map
          (fun node ->
            if Semi_graph.node_present sg node then
              Labeling.get labeling (Graph.half_edge g ~edge:e ~node)
            else None)
          [ u; w ]
      in
      if List.length labels = Semi_graph.rank sg e && not (problem.edge_ok labels)
      then
        violations :=
          Nec.Edge_violation (e, render_config problem.pp_label labels)
          :: !violations)
    (Semi_graph.edges sg);
  List.rev !violations

(* A view of [g]: the whole graph, a node subset (rank-1 edges) or an
   edge subset, then [hide_node] / [hide_edge] masks on top, sometimes
   hiding both endpoints of a present edge (rank 0). *)
let random_view g rng =
  let n = Graph.n_nodes g and m = Graph.n_edges g in
  let coin p = Gen.Prng.float rng < p in
  let sg =
    match Gen.Prng.int rng 3 with
    | 0 -> Semi_graph.of_graph g
    | 1 -> Semi_graph.of_node_subset g (Array.init n (fun _ -> coin 0.6))
    | _ -> Semi_graph.of_edge_subset g (Array.init m (fun _ -> coin 0.7))
  in
  for v = 0 to n - 1 do
    if coin 0.1 then Semi_graph.hide_node sg v
  done;
  for e = 0 to m - 1 do
    if coin 0.1 then Semi_graph.hide_edge sg e
  done;
  (if m > 0 && coin 0.5 then
     let e = Gen.Prng.int rng m in
     if Semi_graph.edge_present sg e then begin
       let u, w = Graph.edge_endpoints g e in
       Semi_graph.hide_node sg u;
       Semi_graph.hide_node sg w
     end);
  sg

(* Each half-edge keeps its label from a valid [solution], takes a
   random label of [alphabet] or stays unlabeled; the mix varies per
   case, from a valid labeling with gaps to pure noise. *)
let random_labeling g rng ~alphabet ~solution =
  let l = Labeling.create g in
  let gap = if Gen.Prng.int rng 3 = 0 then 0. else Gen.Prng.float rng *. 0.2 in
  let keep = Gen.Prng.float rng in
  let k = List.length alphabet in
  for h = 0 to Graph.n_half_edges g - 1 do
    let r = Gen.Prng.float rng in
    if r < gap then ()
    else if r < gap +. keep then
      Option.iter (Labeling.set l h) (Labeling.get solution h)
    else Labeling.set l h (List.nth alphabet (Gen.Prng.int rng k))
  done;
  l

(* Every problem here accepts the empty configuration of a rank-0 edge;
   this variant rejects it, so a validator that skipped rank-0 edges
   would be caught. *)
let mis_rejecting_rank0 =
  {
    Mis.problem with
    Nec.name = "mis-rejecting-rank-0";
    edge_ok = (function [] -> false | labels -> Mis.problem.Nec.edge_ok labels);
  }

let agrees_with_oracle problem sg labeling =
  Nec.validate_semi problem sg labeling = oracle_validate_semi problem sg labeling

let prop_validator_matches_oracle =
  QCheck.Test.make ~name:"one-pass validator = list-based oracle" ~count:300
    QCheck.(triple (int_range 1 60) (int_range 0 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      let g =
        if a = 0 then Gen.random_tree ~n ~seed
        else Gen.power_law_union ~n ~arboricity:a ~seed
      in
      let rng = Gen.Prng.create (seed + 31) in
      let sg = random_view g rng in
      let delta = Gen.Prng.int rng 4 in
      let on problem alphabet solution =
        agrees_with_oracle problem sg
          (random_labeling g rng ~alphabet ~solution)
      in
      let colors = [ 0; 1; 2; 3; 4; 5 ] in
      let pairs =
        Edge_coloring.D
        :: List.concat_map
             (fun a -> List.map (fun b -> Edge_coloring.Pair (a, b)) [ 0; 1; 2; 3; 4 ])
             [ 0; 1; 2; 3 ]
      in
      let mis = Mis.solve_sequential g in
      let coloring = Coloring.solve_sequential g in
      let edge_coloring = Edge_coloring.solve_sequential g in
      on Mis.problem [ Mis.M; Mis.P; Mis.O ] mis
      && on mis_rejecting_rank0 [ Mis.M; Mis.P; Mis.O ] mis
      && on Matching.problem
           [ Matching.M; Matching.P; Matching.O; Matching.D ]
           (Matching.solve_sequential g)
      && on Coloring.problem_deg_plus_one colors coloring
      && on (Coloring.problem_delta_plus_one ~delta) colors coloring
      && on Edge_coloring.problem pairs edge_coloring
      && on (Edge_coloring.problem_two_delta ~delta:(delta + 1)) pairs edge_coloring
      && on Orientation.problem
           [ Orientation.In; Orientation.Out ]
           (Orientation.solve_sequential g))

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

(* Validating a valid MIS labeling allocates one list cell per label,
   at a node and at an edge: about 6 words per half-edge. The list-based
   validator with list-building predicates reads 44 here. *)
let test_validate_allocation_budget () =
  let g = Gen.random_tree ~n:50_000 ~seed:41 in
  let labeling = Mis.solve_sequential g in
  let violations, words =
    allocated_words (fun () -> Nec.validate Mis.problem g labeling)
  in
  check "valid" true (violations = []);
  let per_half_edge = words /. float_of_int (Graph.n_half_edges g) in
  check
    (Printf.sprintf "%.1f words per half-edge within 12" per_half_edge)
    true (per_half_edge <= 12.)

(* The predicates the validator calls once per node and per edge
   allocate nothing: 1,000 rounds over accepted and rejected
   configurations of every problem stay within the measurement's own
   few words. *)
let test_predicates_allocation_free () =
  let rounds (p : _ Nec.t) nodes edges =
    let accepted = ref 0 in
    for _ = 1 to 1000 do
      accepted := !accepted + Nec.count p.node_ok nodes + Nec.count p.edge_ok edges
    done;
    !accepted
  in
  let within name (accepted, words) =
    check (Printf.sprintf "%s accepts some" name) true (accepted > 0);
    check (Printf.sprintf "%s: %.0f words within 100" name words) true (words <= 100.)
  in
  let pair a b = Edge_coloring.Pair (a, b) in
  let ec_nodes = [ [ pair 1 3; pair 2 1; Edge_coloring.D ]; [ pair 1 2; pair 2 2 ] ] in
  let ec_edges = [ [ pair 2 3; pair 2 3 ]; [ pair 1 3; pair 1 3 ]; [ Edge_coloring.D ] ] in
  let colors_nodes = [ [ 2; 2; 2 ]; [ 1; 2 ]; [] ] and colors_edges = [ [ 1; 2 ]; [ 3; 3 ] ] in
  within "mis"
    (allocated_words (fun () ->
         rounds Mis.problem
           [ [ Mis.M; Mis.M ]; [ Mis.O; Mis.P; Mis.O ]; [ Mis.P; Mis.P ]; [] ]
           [ [ Mis.M; Mis.P ]; [ Mis.P; Mis.O ]; [ Mis.O ]; [] ]));
  within "matching"
    (allocated_words (fun () ->
         rounds Matching.problem
           [ [ Matching.M; Matching.P; Matching.D ]; [ Matching.O; Matching.D ];
             [ Matching.P; Matching.O ] ]
           [ [ Matching.M; Matching.M ]; [ Matching.O; Matching.O ]; [ Matching.D ] ]));
  within "deg+1 coloring"
    (allocated_words (fun () ->
         rounds Coloring.problem_deg_plus_one colors_nodes colors_edges));
  within "delta+1 coloring"
    (allocated_words (fun () ->
         rounds (Coloring.problem_delta_plus_one ~delta:3) colors_nodes colors_edges));
  within "edge coloring"
    (allocated_words (fun () -> rounds Edge_coloring.problem ec_nodes ec_edges));
  within "2delta-1 edge coloring"
    (allocated_words (fun () ->
         rounds (Edge_coloring.problem_two_delta ~delta:2) ec_nodes ec_edges));
  within "orientation"
    (allocated_words (fun () ->
         rounds Orientation.problem
           [ [ Orientation.In; Orientation.Out; Orientation.In ];
             [ Orientation.In; Orientation.In; Orientation.In ] ]
           [ [ Orientation.In; Orientation.Out ]; [ Orientation.Out; Orientation.Out ] ]))

(* The MIS Π× solver walks incidence rows and writes shared [Some]
   blocks, so labeling a whole tree allocates nothing per node. Counted
   with [Gc.minor_words], which is exact on OCaml 5.1 (the solver makes
   no major allocation); the list solver read 33 words per node. *)
let test_mis_solver_allocation_free () =
  let n = 20_000 in
  let g = Gen.random_tree ~n ~seed:43 in
  let labeling = Labeling.create g in
  let nodes = List.init n Fun.id in
  let w0 = Gc.minor_words () in
  Mis.solve_edge_list g labeling ~nodes;
  let words = Gc.minor_words () -. w0 in
  check "valid" true (Nec.is_valid Mis.problem g labeling);
  check (Printf.sprintf "%.0f words within 64" words) true (words <= 64.);
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  let h = Graph.half_edge g ~edge:0 ~node:(fst (Graph.edge_endpoints g 0)) in
  check "set_some refuses a labeled half-edge" true
    (raises (fun () -> Labeling.set_some labeling h (Some Mis.M)));
  check "set_some refuses None" true
    (raises (fun () -> Labeling.set_some (Labeling.create g) h None))

(* [Matching.solve_node_list] as it read labels before: a node's labels
   as [Labeling.labels_at_node]'s list, writes through [Labeling.set]. *)
let list_matching_solve g labeling ~edges =
  let matched = Hashtbl.create 16 in
  let has_m v =
    match Hashtbl.find_opt matched v with
    | Some b -> b
    | None ->
      let b = List.exists (( = ) Matching.M) (Labeling.labels_at_node labeling v) in
      Hashtbl.replace matched v b;
      b
  in
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      let hu = Graph.half_edge g ~edge:e ~node:u in
      let hv = Graph.half_edge g ~edge:e ~node:v in
      if Labeling.is_labeled labeling hu || Labeling.is_labeled labeling hv then
        invalid_arg "Matching.solve_node_list: edge already labeled";
      match (has_m u, has_m v) with
      | false, false ->
        Labeling.set labeling hu Matching.M;
        Labeling.set labeling hv Matching.M;
        Hashtbl.replace matched u true;
        Hashtbl.replace matched v true
      | false, true ->
        Labeling.set labeling hu Matching.O;
        Labeling.set labeling hv Matching.P
      | true, false ->
        Labeling.set labeling hu Matching.P;
        Labeling.set labeling hv Matching.O
      | true, true ->
        Labeling.set labeling hu Matching.P;
        Labeling.set labeling hv Matching.P)
    edges

(* Random partial labelings: [density]% of the edges carry arbitrary
   labels on both halves, a few on one half only. The solve list is a
   shuffled share of the unlabeled edges plus, rarely, a labeled one,
   which both forms must refuse after the same writes. *)
let prop_matching_node_list_oracle =
  QCheck.Test.make ~name:"matching solve_node_list = list oracle" ~count:300
    QCheck.(quad (int_range 0 2) (int_range 2 150) (int_range 0 90) (int_range 0 100000))
    (fun (family, n, density, seed) ->
      let g =
        match family with
        | 0 -> Gen.random_tree ~n ~seed
        | 1 -> Gen.forest_union ~n ~arboricity:2 ~seed
        | _ -> Gen.power_law_union ~n ~arboricity:3 ~seed
      in
      let rng = Random.State.make [| seed |] in
      let label () =
        match Random.State.int rng 4 with
        | 0 -> Matching.M
        | 1 -> Matching.P
        | 2 -> Matching.O
        | _ -> Matching.D
      in
      let pre = Labeling.create g in
      let chosen = ref [] in
      for e = 0 to Graph.n_edges g - 1 do
        let r = Random.State.int rng 100 in
        if r < density then begin
          Labeling.set_exn_free pre (2 * e) (label ());
          Labeling.set_exn_free pre ((2 * e) + 1) (label ())
        end
        else if r < density + 3 then
          Labeling.set_exn_free pre ((2 * e) + Random.State.int rng 2) (label ());
        let free = not (Labeling.is_labeled pre (2 * e) || Labeling.is_labeled pre ((2 * e) + 1)) in
        if (free && Random.State.bool rng) || Random.State.int rng 60 = 0 then
          chosen := e :: !chosen
      done;
      let edges = Array.of_list !chosen in
      for i = Array.length edges - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = edges.(i) in
        edges.(i) <- edges.(j);
        edges.(j) <- x
      done;
      let edges = Array.to_list edges in
      let run solve =
        let l = Labeling.copy pre in
        let refused =
          match solve g l ~edges with
          | () -> None
          | exception Invalid_argument msg -> Some msg
        in
        (refused, List.init (Graph.n_half_edges g) (Labeling.get l))
      in
      run Matching.solve_node_list = run list_matching_solve)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mis_solver_valid;
      prop_matching_solver_valid;
      prop_edge_coloring_solver_valid;
      prop_coloring_solver_valid;
      prop_solvers_on_arbitrary_graphs;
      prop_encode_decode_roundtrip;
      prop_mis_validator_sound;
      prop_matching_validator_sound;
      prop_coloring_validator_sound;
      prop_edge_coloring_validator_sound;
      prop_validator_matches_oracle;
      prop_matching_node_list_oracle;
    ]

let () =
  Alcotest.run "tl_problems"
    [
      ( "labeling",
        [ Alcotest.test_case "basics" `Quick test_labeling_basics ] );
      ( "validator",
        [
          Alcotest.test_case "missing half edges" `Quick test_validate_reports_missing;
          Alcotest.test_case "edge violations" `Quick test_validate_node_violation;
          Alcotest.test_case "semi-graph scope" `Quick test_validate_semi_ignores_absent;
          Alcotest.test_case "multiset equality" `Quick test_multiset_equal;
          Alcotest.test_case "allocation budget" `Quick test_validate_allocation_budget;
          Alcotest.test_case "allocation-free predicates" `Quick
            test_predicates_allocation_free;
          Alcotest.test_case "allocation-free MIS solver" `Quick
            test_mis_solver_allocation_free;
        ] );
      ( "mis",
        [
          Alcotest.test_case "node constraint" `Quick test_mis_node_constraint;
          Alcotest.test_case "edge constraint" `Quick test_mis_edge_constraint;
          Alcotest.test_case "encode/decode" `Quick test_mis_encode_decode;
          Alcotest.test_case "sequential solver" `Quick test_mis_solve_sequential;
          Alcotest.test_case "boundary completion" `Quick test_mis_solve_with_boundary;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "constraints" `Quick test_coloring_constraints;
          Alcotest.test_case "encode/decode" `Quick test_coloring_encode_decode;
          Alcotest.test_case "sequential solver" `Quick test_coloring_solver;
          Alcotest.test_case "boundary" `Quick test_coloring_respects_boundary;
        ] );
      ( "matching",
        [
          Alcotest.test_case "constraints (section 5.2)" `Quick test_matching_constraints;
          Alcotest.test_case "encode/decode" `Quick test_matching_encode_decode;
          Alcotest.test_case "sequential solver" `Quick test_matching_solver;
          Alcotest.test_case "lemma 17 labeling process" `Quick test_matching_lemma17_cases;
        ] );
      ( "edge_coloring",
        [
          Alcotest.test_case "constraints (section 5.1)" `Quick test_edge_coloring_constraints;
          Alcotest.test_case "2D-1 variant" `Quick test_edge_coloring_two_delta;
          Alcotest.test_case "encode/decode" `Quick test_edge_coloring_encode_decode;
          Alcotest.test_case "sequential solver" `Quick test_edge_coloring_solver;
        ] );
      ( "orientation",
        [
          Alcotest.test_case "constraints" `Quick test_orientation_constraints;
          Alcotest.test_case "sequential solver" `Quick test_orientation_solver;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "canonical corruptions caught" `Quick
            test_specific_corruptions_caught;
        ] );
      ("properties", qcheck_tests);
    ]
