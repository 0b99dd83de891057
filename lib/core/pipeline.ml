module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Span = Tl_obs.Span

type 'l report = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  total_rounds : int;
  valid : bool;
  k : int;
  violations : Tl_problems.Nec.violation list;
}

let finish problem graph labeling cost k =
  (* referee check: Definition 6 validation of the produced labeling *)
  let violations =
    Span.with_span "validate" (fun () ->
        let v = Tl_problems.Nec.validate problem graph labeling in
        Span.add_counter "violations" (List.length v);
        v)
  in
  {
    labeling;
    cost;
    total_rounds = Round_cost.total cost;
    valid = violations = [];
    k;
    violations;
  }

let mis_spec =
  {
    Theorem1.problem = Tl_problems.Mis.problem;
    base_algorithm = Tl_symmetry.Algos.mis;
    solve_edge_list = Tl_problems.Mis.solve_edge_list;
  }

let coloring_spec =
  {
    Theorem1.problem = Tl_problems.Coloring.problem_deg_plus_one;
    base_algorithm = Tl_symmetry.Algos.deg_plus_one_coloring;
    solve_edge_list = Tl_problems.Coloring.solve_edge_list;
  }

let matching_spec =
  {
    Theorem2.problem = Tl_problems.Matching.problem;
    base_algorithm = Tl_symmetry.Algos.maximal_matching;
    solve_node_list = Tl_problems.Matching.solve_node_list;
  }

let edge_coloring_spec =
  {
    Theorem2.problem = Tl_problems.Edge_coloring.problem;
    base_algorithm = Tl_symmetry.Algos.edge_coloring;
    solve_node_list = Tl_problems.Edge_coloring.solve_node_list;
  }

let mis_on_tree ?workers ?k ~tree ~ids () =
  let r =
    Theorem1.run ?workers ?k ~spec:mis_spec ~tree ~ids ~f:Complexity.f_linear ()
  in
  finish Tl_problems.Mis.problem tree r.labeling r.cost r.k

let coloring_on_tree ?workers ?k ~tree ~ids () =
  let r =
    Theorem1.run ?workers ?k ~spec:coloring_spec ~tree ~ids ~f:Complexity.f_linear ()
  in
  finish Tl_problems.Coloring.problem_deg_plus_one tree r.labeling r.cost r.k

let delta_coloring_on_tree ?workers ?k ~tree ~ids () =
  let r =
    Theorem1.run ?workers ?k ~spec:coloring_spec ~tree ~ids ~f:Complexity.f_linear ()
  in
  let delta = Graph.max_degree tree in
  finish
    (Tl_problems.Coloring.problem_delta_plus_one ~delta)
    tree r.labeling r.cost r.k

let sinkless_orientation_on_tree ~tree ~ids () =
  let labeling, cost = Sinkless.solve_on_tree tree ~ids in
  finish Tl_problems.Orientation.problem tree labeling cost 2

let matching_on_graph ?workers ?rho ?k ~graph ~a ~ids () =
  let r =
    Theorem2.run ?workers ?rho ?k ~spec:matching_spec ~graph ~a ~ids
      ~f:Complexity.f_linear ()
  in
  finish Tl_problems.Matching.problem graph r.labeling r.cost r.k

let edge_coloring_on_graph ?workers ?rho ?k ~graph ~a ~ids () =
  let r =
    Theorem2.run ?workers ?rho ?k ~spec:edge_coloring_spec ~graph ~a ~ids
      ~f:(Complexity.f_polylog ~exponent:12.0) ()
  in
  finish Tl_problems.Edge_coloring.problem graph r.labeling r.cost r.k

let two_delta_edge_coloring_on_graph ?workers ?rho ?k ~graph ~a ~ids () =
  let r =
    Theorem2.run ?workers ?rho ?k ~spec:edge_coloring_spec ~graph ~a ~ids
      ~f:(Complexity.f_polylog ~exponent:12.0) ()
  in
  let delta = Graph.max_degree graph in
  finish
    (Tl_problems.Edge_coloring.problem_two_delta ~delta)
    graph r.labeling r.cost r.k

let direct problem algo ~graph ~ids =
  let labeling = Labeling.create graph in
  let sg = Semi_graph.of_graph graph in
  let cost = Round_cost.create () in
  Span.with_span "base" (fun () ->
      Round_cost.charge cost "base:A(G)" (algo sg ~ids labeling));
  finish problem graph labeling cost 0

let mis_direct ~graph ~ids =
  direct Tl_problems.Mis.problem Tl_symmetry.Algos.mis ~graph ~ids

let coloring_direct ~graph ~ids =
  direct Tl_problems.Coloring.problem_deg_plus_one
    Tl_symmetry.Algos.deg_plus_one_coloring ~graph ~ids

let matching_direct ~graph ~ids =
  direct Tl_problems.Matching.problem Tl_symmetry.Algos.maximal_matching ~graph
    ~ids

let edge_coloring_direct ~graph ~ids =
  direct Tl_problems.Edge_coloring.problem Tl_symmetry.Algos.edge_coloring
    ~graph ~ids
