(* Sharded execution: an engine workload, bit-identical under the
   sequential stepper and the sharded halo-exchange backend.

   Run with:  dune exec examples/sharded_mis.exe

   The shard backend (lib/shard) partitions a compiled topology into S
   contiguous shards with ghost (halo) vertices; every LOCAL round is
   local step -> batched boundary exchange -> barrier. The paper's
   pipelines (Theorem 12 MIS among them) are direct loops that make no
   engine run, so the backend is shown on engine workloads: steps 1-3
   run the Cole-Vishkin 3-coloring state machine under each mode, and
   step 4 floods the tree through [Engine.run_until_stable]. The mode
   is an argument of each run. The CLI exposes the backend as
   `chaos ... --engine shard --shards S`.
*)

module Gen = Tl_graph.Gen
module Graph = Tl_graph.Graph
module Ids = Tl_local.Ids
module Engine = Tl_engine.Engine
module CV = Tl_symmetry.Cole_vishkin

let () =
  let n = 20_000 in
  let tree = Gen.random_tree ~n ~seed:42 in
  let ids = Ids.permuted ~n ~seed:7 in
  Printf.printf "instance: random tree, n = %d\n" n;
  let sg = Tl_graph.Semi_graph.of_graph tree in
  let parent = Tl_graph.Tree.parents_forest tree in
  let nodes = List.init n Fun.id in

  (* 1. the reference: Cole-Vishkin 3-coloring under the sequential
     stepper *)
  let seq_colors, seq_rounds =
    CV.color3_runtime ~mode:Engine.Seq ~sg ~nodes ~parent ~ids ()
  in

  (* 2. the same state machine on the sharded backend, S = 4 *)
  let colors, rounds =
    CV.color3_runtime ~mode:(Engine.Shard 4) ~sg ~nodes ~parent ~ids ()
  in

  (* 3. parity: colors and rounds must be bit-identical, and proper *)
  let proper =
    List.for_all
      (fun e ->
        let u, v = Graph.edge_endpoints tree e in
        colors.(u) <> colors.(v))
      (List.init (Graph.n_edges tree) Fun.id)
  in
  Printf.printf "3-coloring: %d rounds (seq) = %d rounds (shard:4)\n"
    seq_rounds rounds;
  Printf.printf "colors identical:        %b\n" (colors = seq_colors);
  Printf.printf "proper 3-coloring:       %b\n" proper;
  assert (colors = seq_colors && rounds = seq_rounds && proper);

  (* 4. any engine run takes the backend as its mode *)
  let topo = Tl_engine.Topology.compile sg in
  let flood shards =
    let o =
      Engine.run_until_stable ~mode:(Engine.Shard shards) ~topo
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
