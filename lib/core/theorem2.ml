module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Arb_decompose = Tl_decompose.Arb_decompose
module Span = Tl_obs.Span
module Pool = Tl_engine.Pool

type 'l spec = {
  problem : 'l Tl_problems.Nec.t;
  base_algorithm :
    Tl_graph.Semi_graph.t -> ids:int array -> 'l Tl_problems.Labeling.t -> int;
  solve_node_list :
    Tl_graph.Graph.t -> 'l Tl_problems.Labeling.t -> edges:int list -> unit;
}

type 'l result = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  decomposition : Tl_decompose.Arb_decompose.t;
  k : int;
  rho : int;
}

(* Debug-mode owner check for the pooled star solving: within one class
   [F_{i,j}] the stars are node-disjoint (the star property of the
   decomposition), so each node — hence each half-edge a solver may read
   or write — belongs to exactly one star of the class. *)
let assert_disjoint_stars graph stars =
  let owner = Array.make (Graph.n_nodes graph) (-1) in
  Array.iteri
    (fun s (center, edges) ->
      let claim v =
        if owner.(v) >= 0 && owner.(v) <> s then
          failwith
            (Printf.sprintf "Theorem2: node %d shared by stars %d and %d" v
               owner.(v) s);
        owner.(v) <- s
      in
      claim center;
      List.iter
        (fun e ->
          let u, v = Graph.edge_endpoints graph e in
          claim u;
          claim v)
        edges)
    stars

let run ?(check_invariants = false) ?workers ?(rho = 2) ?k ~spec ~graph
    ~a ~ids ~f () =
  if a < 1 then invalid_arg "Theorem2.run: a < 1";
  let pool = Pool.create ?workers () in
  let n = Graph.n_nodes graph in
  let k =
    match k with
    | Some k -> k
    | None -> Complexity.choose_k_arb ~f ~n ~a ~rho
  in
  let assert_partial labeling phase =
    if check_invariants then
      match Tl_problems.Nec.validate_partial spec.problem graph labeling with
      | [] -> ()
      | v :: _ ->
        failwith
          (Format.asprintf "Theorem2.run: invariant broken after %s: %a"
             phase Tl_problems.Nec.pp_violation v)
  in
  Span.set_attr "k" (string_of_int k);
  Span.set_attr "a" (string_of_int a);
  let cost = Round_cost.create () in
  (* Phase 1: Decomposition (Algorithm 3) with b = 2a, plus the F_i split
     and the 3-coloring of the forests. The coloring work happens inside
     Arb_decompose.run (its "cv3-forests" sub-span); its LOCAL rounds are
     accounted to the "forest-coloring" phase span below. *)
  let d =
    Span.with_span "decompose" (fun () ->
        let d = Arb_decompose.run graph ~a ~k ~ids in
        Round_cost.charge cost "decompose"
          (Arb_decompose.decomposition_rounds d);
        d)
  in
  Span.with_span "forest-coloring" (fun () ->
      Round_cost.charge cost "forest-3-coloring" (Arb_decompose.cv_rounds d));
  let labeling = Labeling.create graph in
  (* Phase 2: the base algorithm A on G[E₂] (Algorithm 4, line 1). *)
  let g_e2 = Arb_decompose.g_e2 d in
  Span.with_span "base" (fun () ->
      Round_cost.charge cost "base:A(G[E2])"
        (spec.base_algorithm g_e2 ~ids labeling));
  assert_partial labeling "base:A(G[E2])";
  (* Phase 3: Π* on the star families F_{i,j}, sequentially over the 6a
     classes; within a class the stars are node-disjoint and each is
     solved in 2 rounds (gather + redistribute at distance 1). The
     node-disjointness is exactly what lets a class's stars fan over the
     domain pool: no two stars of a class touch the same half-edge, and
     classes stay ordered (later classes read earlier classes' labels). *)
  let b = Arb_decompose.b d in
  Span.with_span "stars" (fun () ->
      Span.add_counter "classes" (3 * b);
      Span.add_counter "pool:workers" (Pool.workers pool);
      (* park the team members before the 6a per-class fan-outs: the
         many small maps below then never pay a domain spawn (the old
         per-map spawn discipline cost one spawn+join per class) *)
      if Pool.workers pool > 1 then Pool.prewarm pool;
      for i = 1 to b do
        for j = 1 to 3 do
          let stars = Array.of_list (Arb_decompose.stars d ~i ~j) in
          Span.add_counter "pool:tasks" (Array.length stars);
          if Pool.workers pool <= 1 || Array.length stars < 2 then
            Array.iter
              (fun (_center, edges) ->
                spec.solve_node_list graph labeling ~edges)
              stars
          else begin
            if check_invariants then assert_disjoint_stars graph stars;
            Pool.map_commit pool ~tasks:stars
              ~work:(fun ~worker:_ ~index:_ (_center, edges) ->
                spec.solve_node_list graph labeling ~edges)
              ~commit:(fun ~index:_ () -> ())
          end;
          assert_partial labeling (Printf.sprintf "stars F_%d,%d" i j);
          Round_cost.charge cost "gather-solve(stars)" 2
        done
      done);
  { labeling; cost; decomposition = d; k; rho }
