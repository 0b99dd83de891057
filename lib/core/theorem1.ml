module Graph = Tl_graph.Graph
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Rake_compress = Tl_decompose.Rake_compress
module Span = Tl_obs.Span
module Pool = Tl_engine.Pool

type 'l spec = {
  problem : 'l Tl_problems.Nec.t;
  base_algorithm :
    Tl_graph.Semi_graph.t -> ids:int array -> 'l Tl_problems.Labeling.t -> int;
  solve_edge_list :
    Tl_graph.Graph.t -> 'l Tl_problems.Labeling.t -> nodes:int list -> unit;
}

type 'l result = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  rc : Tl_decompose.Rake_compress.t;
  k : int;
}

(* Debug-mode owner check for the pooled gather-solve: every half-edge a
   component's solver may write is claimed by exactly one component
   (components are node-disjoint and a node's half-edges belong to it
   alone), so concurrent [solve_edge_list] calls never collide. Verifies
   that claim explicitly before fanning out. *)
let assert_disjoint_owners tree components =
  let owner = Array.make (Graph.n_half_edges tree) (-1) in
  Array.iteri
    (fun c component ->
      List.iter
        (fun v ->
          List.iter
            (fun h ->
              if owner.(h) >= 0 then
                failwith
                  (Printf.sprintf
                     "Theorem1: half-edge %d owned by components %d and %d" h
                     owner.(h) c);
              owner.(h) <- c)
            (Graph.half_edges_of tree v))
        component)
    components

let run ?(check_invariants = false) ?workers ?k ~spec ~tree ~ids ~f () =
  let n = Graph.n_nodes tree in
  let pool = Pool.create ?workers () in
  let k =
    match k with Some k -> k | None -> Complexity.choose_k ~f ~n
  in
  let assert_partial labeling phase =
    if check_invariants then
      match Tl_problems.Nec.validate_partial spec.problem tree labeling with
      | [] -> ()
      | v :: _ ->
        failwith
          (Format.asprintf "Theorem1.run: invariant broken after %s: %a"
             phase Tl_problems.Nec.pp_violation v)
  in
  Span.set_attr "k" (string_of_int k);
  let cost = Round_cost.create () in
  (* Phase 1: rake-and-compress decomposition (Algorithm 1). *)
  let rc =
    Span.with_span "decompose" (fun () ->
        let rc = Rake_compress.run tree ~k ~ids in
        Round_cost.charge cost "decompose"
          (Rake_compress.decomposition_rounds rc);
        rc)
  in
  let labeling = Labeling.create tree in
  (* Phase 2: the base algorithm A on T_C (Algorithm 2, line 1). *)
  Span.with_span "base" (fun () ->
      Round_cost.charge cost "base:A(T_C)"
        (spec.base_algorithm (Rake_compress.t_c rc) ~ids labeling));
  assert_partial labeling "base:A(T_C)";
  (* Phase 3: gather-and-solve Π× on each component of T_R (line 2). All
     components are processed in parallel; the LOCAL cost is the largest
     gather+redistribute distance, i.e. twice the eccentricity of the
     collecting (highest) node. One BFS over the tree's rows restricted
     to raked nodes finds the components, their highest nodes and those
     nodes' eccentricities, so T_R is never compiled. With [workers > 1]
     only the solver calls are fanned over a deterministic domain pool
     (the components are node-disjoint, so the labeling writes never
     collide); a failure re-raises in component order, as sequentially. *)
  Span.with_span "gather-solve" (fun () ->
      let raked = Rake_compress.raked_components rc in
      let components = raked.Rake_compress.members in
      Span.add_counter "components" (Array.length components);
      Span.add_counter "pool:workers" (Pool.workers pool);
      Span.add_counter "pool:tasks" (Array.length components);
      let solve nodes = spec.solve_edge_list tree labeling ~nodes in
      if Pool.workers pool <= 1 || Array.length components < 2 then
        Array.iter
          (fun nodes ->
            solve nodes;
            assert_partial labeling "gather-solve(T_R) component")
          components
      else begin
        if check_invariants then assert_disjoint_owners tree components;
        (* Workers write only the half-edges of their own components;
           spans are untouched off the coordinating domain, and the
           workers are parked team members — no domains are spawned
           here. *)
        Pool.prewarm pool;
        ignore
          (Pool.map pool ~tasks:components ~f:(fun ~worker:_ ~index:_ nodes ->
               solve nodes));
        (* Under pooling the proof invariant is checked once after the
           whole phase: mid-phase checks would observe other components'
           concurrent progress. *)
        assert_partial labeling "gather-solve(T_R)"
      end;
      Round_cost.charge cost "gather-solve(T_R)"
        (Array.fold_left
           (fun acc ecc -> max acc (2 * ecc))
           0 raked.Rake_compress.eccentricity));
  { labeling; cost; rc; k }
