(* Sharded execution: the same Theorem 12 MIS pipeline, bit-identical
   under the sequential stepper and the sharded halo-exchange backend.

   Run with:  dune exec examples/sharded_mis.exe

   The shard backend (lib/shard) partitions a compiled topology into S
   contiguous shards with ghost (halo) vertices; every LOCAL round is
   local step -> batched boundary exchange -> barrier. The pipeline's
   phases are direct loops that make no engine run, so steps 1-3 check
   that the [~engine] knob leaves the result alone, and step 4 runs the
   backend itself. The CLI exposes the backend as
   `chaos ... --engine shard --shards S`.
*)

module Gen = Tl_graph.Gen
module Graph = Tl_graph.Graph
module Ids = Tl_local.Ids
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Theorem1 = Tl_core.Theorem1
module Shard = Tl_shard.Shard

let mis_spec =
  {
    Theorem1.problem = Tl_problems.Mis.problem;
    base_algorithm = Tl_symmetry.Algos.mis;
    solve_edge_list = Tl_problems.Mis.solve_edge_list;
  }

let () =
  let n = 20_000 in
  let tree = Gen.random_tree ~n ~seed:42 in
  let ids = Ids.permuted ~n ~seed:7 in
  Printf.printf "instance: random tree, n = %d\n" n;

  (* 1. the reference: Theorem 12 MIS under the sequential stepper *)
  let seq =
    Theorem1.run ~engine:Engine.Seq ~spec:mis_spec ~tree ~ids
      ~f:Tl_core.Complexity.f_linear ()
  in

  (* 2. the same pipeline on the sharded backend, S = 4 *)
  let sharded =
    Theorem1.run ~engine:(Engine.Shard 4) ~spec:mis_spec ~tree ~ids
      ~f:Tl_core.Complexity.f_linear ()
  in

  (* 3. parity: labelings and round ledgers must be bit-identical *)
  let labels r =
    List.init (Graph.n_half_edges tree) (Labeling.get r.Theorem1.labeling)
  in
  let same_labels = labels seq = labels sharded in
  let same_ledger =
    Round_cost.phases seq.Theorem1.cost
    = Round_cost.phases sharded.Theorem1.cost
  in
  Printf.printf "labelings identical:     %b\n" same_labels;
  Printf.printf "round ledgers identical: %b\n" same_ledger;
  List.iter
    (fun (phase, rounds) -> Printf.printf "  %-22s %5d rounds\n" phase rounds)
    (Round_cost.phases sharded.Theorem1.cost);
  assert (same_labels && same_ledger);

  (* 4. the backend is also callable directly, composing with the pool *)
  let sg = Tl_graph.Semi_graph.of_graph tree in
  let topo = Tl_engine.Topology.compile sg in
  let flood shards =
    let o =
      Shard.run_until_stable ~shards ~pool:1 ~topo
        ~init:(fun v -> v = 0)
        ~step:(fun ~round:_ ~node:_ s ~neighbors ->
          s || List.exists (fun (_, _, su) -> su) neighbors)
        ~equal:Bool.equal ~max_rounds:(n + 1) ()
    in
    (o.Engine.states, o.Engine.rounds)
  in
  let states2, rounds2 = flood 2 in
  let states8, rounds8 = flood 8 in
  Printf.printf "flood from node 0: %d rounds (shards=2) = %d rounds (shards=8)\n"
    rounds2 rounds8;
  assert (states2 = states8 && rounds2 = rounds8);
  Printf.printf "shard counts agree bit-for-bit: confirmed\n"
