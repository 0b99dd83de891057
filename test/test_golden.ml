(* Golden outputs of the paper pipelines.

   Each row is one pipeline run: its labeling digest
   (Protocol.digest_labeling), its total LOCAL rounds and its Round_cost
   ledger. The rows were recorded from the list-based base algorithm A
   that preceded the bucketed class schedules in Tl_symmetry; any
   simulation speedup must reproduce them bit for bit, since LOCAL rounds
   and labelings are the paper's observables.

   Regenerate the table (only when an intended semantic change lands):
     dune exec test/test_golden.exe -- --print *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Ids = Tl_local.Ids
module Round_cost = Tl_local.Round_cost
module Pipeline = Tl_core.Pipeline
module Protocol = Tl_serve.Protocol

type row = { name : string; digest : string; rounds : int; ledger : string }

let ledger_string cost =
  String.concat ";"
    (List.map (fun (p, r) -> Printf.sprintf "%s=%d" p r) (Round_cost.phases cost))

let row name graph (r : _ Pipeline.report) =
  if not r.Pipeline.valid then failwith (name ^ ": invalid labeling");
  {
    name;
    digest = Protocol.digest_labeling ~graph r.Pipeline.labeling;
    rounds = r.Pipeline.total_rounds;
    ledger = ledger_string r.Pipeline.cost;
  }

let tree_runs family tree ~seed =
  let ids = Ids.permuted ~n:(Graph.n_nodes tree) ~seed in
  let tag p = Printf.sprintf "%s/%s/seed%d" family p seed in
  [
    row (tag "mis") tree (Pipeline.mis_on_tree ~tree ~ids ());
    row (tag "coloring") tree (Pipeline.coloring_on_tree ~tree ~ids ());
    row (tag "matching") tree (Pipeline.matching_on_graph ~graph:tree ~a:1 ~ids ());
    row (tag "edge-coloring") tree
      (Pipeline.edge_coloring_on_graph ~graph:tree ~a:1 ~ids ());
  ]

let power_law_runs graph ~seed =
  let ids = Ids.permuted ~n:(Graph.n_nodes graph) ~seed in
  let tag p = Printf.sprintf "power-law/%s/seed%d" p seed in
  [
    row (tag "matching") graph (Pipeline.matching_on_graph ~graph ~a:2 ~ids ());
    row (tag "edge-coloring") graph
      (Pipeline.edge_coloring_on_graph ~graph ~a:2 ~ids ());
    row (tag "mis-direct") graph (Pipeline.mis_direct ~graph ~ids);
    row (tag "matching-direct") graph (Pipeline.matching_direct ~graph ~ids);
    row (tag "coloring-direct") graph (Pipeline.coloring_direct ~graph ~ids);
    row (tag "edge-coloring-direct") graph
      (Pipeline.edge_coloring_direct ~graph ~ids);
  ]

let runs () =
  List.concat_map
    (fun seed ->
      tree_runs "random-tree" (Gen.random_tree ~n:20_000 ~seed) ~seed
      @ tree_runs "balanced-8" (Gen.balanced_regular_tree ~delta:8 ~n:20_000) ~seed
      @ power_law_runs (Gen.power_law_union ~n:5_000 ~arboricity:2 ~seed) ~seed)
    [ 1; 2; 3 ]

let expected = [
  { name = "random-tree/mis/seed1";
    digest = "5b59ebd159923e1b"; rounds = 93;
    ledger = "decompose=6;base:A(T_C)=87;gather-solve(T_R)=0" };
  { name = "random-tree/coloring/seed1";
    digest = "4ed4b28abef5faae"; rounds = 85;
    ledger = "decompose=6;base:A(T_C)=79;gather-solve(T_R)=0" };
  { name = "random-tree/matching/seed1";
    digest = "dee3f5ca34e98313"; rounds = 328;
    ledger = "decompose=2;forest-3-coloring=0;base:A(G[E2])=314;gather-solve(stars)=12" };
  { name = "random-tree/edge-coloring/seed1";
    digest = "3770cb02bf554b3d"; rounds = 265;
    ledger = "decompose=4;forest-3-coloring=9;base:A(G[E2])=240;gather-solve(stars)=12" };
  { name = "balanced-8/mis/seed1";
    digest = "3adefaa71379aa29"; rounds = 28;
    ledger = "decompose=18;base:A(T_C)=2;gather-solve(T_R)=8" };
  { name = "balanced-8/coloring/seed1";
    digest = "f7b684eab494b9c3"; rounds = 26;
    ledger = "decompose=18;base:A(T_C)=0;gather-solve(T_R)=8" };
  { name = "balanced-8/matching/seed1";
    digest = "8a5baa9ac69ed7d5"; rounds = 440;
    ledger = "decompose=2;forest-3-coloring=0;base:A(G[E2])=426;gather-solve(stars)=12" };
  { name = "balanced-8/edge-coloring/seed1";
    digest = "e7d6ceb28d0dec46"; rounds = 36;
    ledger = "decompose=12;forest-3-coloring=10;base:A(G[E2])=2;gather-solve(stars)=12" };
  { name = "power-law/matching/seed1";
    digest = "9b0edf62d3d97685"; rounds = 1880;
    ledger = "decompose=4;forest-3-coloring=10;base:A(G[E2])=1842;gather-solve(stars)=24" };
  { name = "power-law/edge-coloring/seed1";
    digest = "c4c3f38779564804"; rounds = 556;
    ledger = "decompose=6;forest-3-coloring=10;base:A(G[E2])=516;gather-solve(stars)=24" };
  { name = "power-law/mis-direct/seed1";
    digest = "5a3e69ea2635a74d"; rounds = 2029;
    ledger = "base:A(G)=2029" };
  { name = "power-law/matching-direct/seed1";
    digest = "173893f282756dbb"; rounds = 15892;
    ledger = "base:A(G)=15892" };
  { name = "power-law/coloring-direct/seed1";
    digest = "0b2a21466b6b24ce"; rounds = 1859;
    ledger = "base:A(G)=1859" };
  { name = "power-law/edge-coloring-direct/seed1";
    digest = "dd9e61934806aaf5"; rounds = 15230;
    ledger = "base:A(G)=15230" };
  { name = "random-tree/mis/seed2";
    digest = "3b86e5d00980c505"; rounds = 93;
    ledger = "decompose=6;base:A(T_C)=87;gather-solve(T_R)=0" };
  { name = "random-tree/coloring/seed2";
    digest = "3c25a5ed7a11e16e"; rounds = 85;
    ledger = "decompose=6;base:A(T_C)=79;gather-solve(T_R)=0" };
  { name = "random-tree/matching/seed2";
    digest = "3e87824d5d27281d"; rounds = 328;
    ledger = "decompose=2;forest-3-coloring=0;base:A(G[E2])=314;gather-solve(stars)=12" };
  { name = "random-tree/edge-coloring/seed2";
    digest = "2319c6b23e904a11"; rounds = 266;
    ledger = "decompose=4;forest-3-coloring=10;base:A(G[E2])=240;gather-solve(stars)=12" };
  { name = "balanced-8/mis/seed2";
    digest = "3adefaa71379aa29"; rounds = 28;
    ledger = "decompose=18;base:A(T_C)=2;gather-solve(T_R)=8" };
  { name = "balanced-8/coloring/seed2";
    digest = "f7b684eab494b9c3"; rounds = 26;
    ledger = "decompose=18;base:A(T_C)=0;gather-solve(T_R)=8" };
  { name = "balanced-8/matching/seed2";
    digest = "bc5644f26ad5677d"; rounds = 440;
    ledger = "decompose=2;forest-3-coloring=0;base:A(G[E2])=426;gather-solve(stars)=12" };
  { name = "balanced-8/edge-coloring/seed2";
    digest = "af0fe7001d615e82"; rounds = 36;
    ledger = "decompose=12;forest-3-coloring=10;base:A(G[E2])=2;gather-solve(stars)=12" };
  { name = "power-law/matching/seed2";
    digest = "07a5bd2521c249a3"; rounds = 1699;
    ledger = "decompose=4;forest-3-coloring=9;base:A(G[E2])=1662;gather-solve(stars)=24" };
  { name = "power-law/edge-coloring/seed2";
    digest = "45126ff1070bb98f"; rounds = 556;
    ledger = "decompose=6;forest-3-coloring=10;base:A(G[E2])=516;gather-solve(stars)=24" };
  { name = "power-law/mis-direct/seed2";
    digest = "8263106c4f98fc79"; rounds = 2905;
    ledger = "base:A(G)=2905" };
  { name = "power-law/matching-direct/seed2";
    digest = "f5d5eb45c803a805"; rounds = 16708;
    ledger = "base:A(G)=16708" };
  { name = "power-law/coloring-direct/seed2";
    digest = "21c2dd322b95bc7e"; rounds = 2662;
    ledger = "base:A(G)=2662" };
  { name = "power-law/edge-coloring-direct/seed2";
    digest = "933484a398453ef1"; rounds = 16012;
    ledger = "base:A(G)=16012" };
  { name = "random-tree/mis/seed3";
    digest = "7daced5ce3404277"; rounds = 93;
    ledger = "decompose=6;base:A(T_C)=87;gather-solve(T_R)=0" };
  { name = "random-tree/coloring/seed3";
    digest = "44f71b40983d699c"; rounds = 85;
    ledger = "decompose=6;base:A(T_C)=79;gather-solve(T_R)=0" };
  { name = "random-tree/matching/seed3";
    digest = "6ba0b3cca876d045"; rounds = 436;
    ledger = "decompose=2;forest-3-coloring=0;base:A(G[E2])=422;gather-solve(stars)=12" };
  { name = "random-tree/edge-coloring/seed3";
    digest = "86d50fe55a20214c"; rounds = 266;
    ledger = "decompose=4;forest-3-coloring=10;base:A(G[E2])=240;gather-solve(stars)=12" };
  { name = "balanced-8/mis/seed3";
    digest = "3adefaa71379aa29"; rounds = 28;
    ledger = "decompose=18;base:A(T_C)=2;gather-solve(T_R)=8" };
  { name = "balanced-8/coloring/seed3";
    digest = "f7b684eab494b9c3"; rounds = 26;
    ledger = "decompose=18;base:A(T_C)=0;gather-solve(T_R)=8" };
  { name = "balanced-8/matching/seed3";
    digest = "f9c6d563416fef05"; rounds = 440;
    ledger = "decompose=2;forest-3-coloring=0;base:A(G[E2])=426;gather-solve(stars)=12" };
  { name = "balanced-8/edge-coloring/seed3";
    digest = "4e2a91b217ddb7dd"; rounds = 36;
    ledger = "decompose=12;forest-3-coloring=10;base:A(G[E2])=2;gather-solve(stars)=12" };
  { name = "power-law/matching/seed3";
    digest = "c47754c5a922363d"; rounds = 1736;
    ledger = "decompose=4;forest-3-coloring=10;base:A(G[E2])=1698;gather-solve(stars)=24" };
  { name = "power-law/edge-coloring/seed3";
    digest = "99c7bacdf5e1c561"; rounds = 556;
    ledger = "decompose=6;forest-3-coloring=10;base:A(G[E2])=516;gather-solve(stars)=24" };
  { name = "power-law/mis-direct/seed3";
    digest = "249319c84e60beef"; rounds = 2185;
    ledger = "base:A(G)=2185" };
  { name = "power-law/matching-direct/seed3";
    digest = "f66ab1f185b6f2dd"; rounds = 13828;
    ledger = "base:A(G)=13828" };
  { name = "power-law/coloring-direct/seed3";
    digest = "160f7c8479a34c30"; rounds = 2028;
    ledger = "base:A(G)=2028" };
  { name = "power-law/edge-coloring-direct/seed3";
    digest = "dc09a232b2eb252d"; rounds = 13252;
    ledger = "base:A(G)=13252" };
]

let print () =
  print_endline "let expected = [";
  List.iter
    (fun r ->
      Printf.printf "  { name = %S;\n    digest = %S; rounds = %d;\n    ledger = %S };\n"
        r.name r.digest r.rounds r.ledger)
    (runs ());
  print_endline "]"

let test_golden () =
  let got = runs () in
  Alcotest.(check int) "row count" (List.length expected) (List.length got);
  List.iter2
    (fun e g ->
      Alcotest.(check string) "run" e.name g.name;
      Alcotest.(check string) (e.name ^ " digest") e.digest g.digest;
      Alcotest.(check int) (e.name ^ " rounds") e.rounds g.rounds;
      Alcotest.(check string) (e.name ^ " ledger") e.ledger g.ledger)
    expected got

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then print ()
  else
    Alcotest.run "golden"
      [ ("pipelines", [ Alcotest.test_case "digests, rounds, ledgers" `Slow test_golden ]) ]
