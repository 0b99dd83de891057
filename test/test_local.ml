(* Tests for the LOCAL model's simulation (Definition 5) on the
   production path, Tl_engine.Flat, and for Round_cost, Ids, View and
   Gather. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Round_cost = Tl_local.Round_cost
module Ids = Tl_local.Ids
module View = Tl_local.View

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- synchronous rounds ---------- *)

let topo_of sg = Topology.compile sg

(* A one-word kernel from an int step of the node's own word, halted by
   [halted] on the published word. *)
let own_kernel ?halted ~init step =
  {
    Flat.name = "own";
    slots = 1;
    scratch_words = 0;
    init = (fun ~node:_ ~slot:_ -> init);
    step =
      (fun ctx ~scratch:_ ~round:_ ~node ->
        ctx.Flat.nxt.(node) <- step ctx.Flat.cur.(node));
    halted = Option.map (fun h ctx ~node -> h ctx.Flat.cur.(node)) halted;
  }

(* Flood a token from node 0: after r rounds exactly the r-ball knows it. *)
let flood topo stop =
  Flat.exec ~topo ~kernel:(Flat.Kernels.flood ()) ~stop ()

let test_flooding_rounds () =
  (* halting when flooded: a star floods in 1 round *)
  let topo = topo_of (Semi_graph.of_graph (Gen.star 8)) in
  let o = flood topo (Engine.Halted 10) in
  check_int "star floods in one round" 1 o.Flat.rounds

let test_flooding_completes () =
  (* run until stable: stabilizes exactly when the whole path is flooded *)
  let topo = topo_of (Semi_graph.of_graph (Gen.path 10)) in
  let o = flood topo (Engine.Stable 100) in
  check "all flooded" true (Array.for_all (( = ) 1) (Flat.column o ~slot:0));
  (* path of 10 nodes: 9 rounds to reach the far end *)
  check_int "rounds" 9 o.Flat.rounds

let test_halted_early_exit () =
  (* every node halts immediately: 0 rounds *)
  let o =
    Flat.exec
      ~topo:(topo_of (Semi_graph.of_graph (Gen.star 6)))
      ~kernel:(own_kernel ~halted:(fun s -> s = 1) ~init:1 Fun.id)
      ~stop:(Engine.Halted 10) ()
  in
  check_int "zero rounds" 0 o.Flat.rounds

let test_max_rounds_guard () =
  let topo = topo_of (Semi_graph.of_graph (Gen.path 3)) in
  Alcotest.(check (option string))
    "raises the max_rounds failure"
    (Some "Engine.run: max_rounds=5 exceeded")
    (match
       Flat.exec ~topo
         ~kernel:(own_kernel ~halted:(fun _ -> false) ~init:0 succ)
         ~stop:(Engine.Halted 5) ()
     with
    | exception Failure m -> Some m
    | _ -> None)

let test_runtime_respects_semi_graph () =
  (* flooding must not cross rank-1 edges *)
  let g = Gen.path 5 in
  let sg = Semi_graph.of_node_subset g [| true; true; false; true; true |] in
  let o = flood (topo_of sg) (Engine.Stable 50) in
  check "reached 1" true (Flat.read o ~node:1 ~slot:0 = 1);
  check "did not cross the gap" true (Flat.read o ~node:3 ~slot:0 = 0)

let test_swap_is_synchronous () =
  (* two words per node, (value, last round): each round a node takes
     its one neighbor's published value, halting after round 2 *)
  let kernel =
    {
      Flat.name = "swap";
      slots = 2;
      scratch_words = 0;
      init = (fun ~node ~slot -> if slot = 0 then node else 0);
      step =
        (fun ctx ~scratch:_ ~round ~node ->
          let u = ctx.Flat.adj.(ctx.Flat.off.(node)) in
          ctx.Flat.nxt.(node * 2) <- ctx.Flat.cur.(u * 2);
          ctx.Flat.nxt.((node * 2) + 1) <- round);
      halted = Some (fun ctx ~node -> ctx.Flat.cur.((node * 2) + 1) >= 2);
    }
  in
  let o =
    Flat.exec
      ~topo:(topo_of (Semi_graph.of_graph (Gen.path 2)))
      ~kernel ~stop:(Engine.Halted 10) ()
  in
  (* after 2 swaps states are back *)
  check_int "node 0 state" 0 (Flat.read o ~node:0 ~slot:0);
  check_int "node 1 state" 1 (Flat.read o ~node:1 ~slot:0);
  check_int "rounds" 2 o.Flat.rounds

(* ---------- Round_cost ---------- *)

let test_round_cost () =
  let c = Round_cost.create () in
  check_int "empty total" 0 (Round_cost.total c);
  Round_cost.charge c "a" 5;
  Round_cost.charge c "b" 3;
  Round_cost.charge c "a" 2;
  check_int "total" 10 (Round_cost.total c);
  check_int "a" 7 (Round_cost.get c "a");
  check_int "b" 3 (Round_cost.get c "b");
  check_int "missing" 0 (Round_cost.get c "zzz");
  check "order" true (Round_cost.phases c = [ ("a", 7); ("b", 3) ]);
  let d = Round_cost.create () in
  Round_cost.charge d "b" 1;
  Round_cost.merge_into ~dst:c ~src:d;
  check_int "merged" 4 (Round_cost.get c "b");
  check "negative raises" true
    (try Round_cost.charge c "x" (-1); false with Invalid_argument _ -> true)

(* ---------- Ids ---------- *)

let test_ids () =
  check "identity unique" true (Ids.check_unique (Ids.identity 50));
  check "reversed unique" true (Ids.check_unique (Ids.reversed 50));
  check "permuted unique" true (Ids.check_unique (Ids.permuted ~n:50 ~seed:1));
  check "spread unique" true (Ids.check_unique (Ids.spread ~n:50 ~c:2 ~seed:1));
  check_int "identity max" 50 (Ids.max_id (Ids.identity 50));
  check "spread can exceed n" true
    (Ids.max_id (Ids.spread ~n:50 ~c:2 ~seed:1) > 50);
  check "duplicate detected" false (Ids.check_unique [| 1; 2; 2 |]);
  check "nonpositive detected" false (Ids.check_unique [| 0; 1 |])

let prop_permuted_is_permutation =
  QCheck.Test.make ~name:"permuted ids are a permutation of 1..n" ~count:50
    QCheck.(pair (int_range 1 200) (int_range 0 100000))
    (fun (n, seed) ->
      let ids = Ids.permuted ~n ~seed in
      let sorted = Array.copy ids in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i + 1))

(* ---------- View ---------- *)

let test_ball () =
  let g = Gen.path 7 in
  let sg = Semi_graph.of_graph g in
  check "ball 0" true (View.ball sg ~center:3 ~radius:0 = [ 3 ]);
  check "ball 1" true (View.ball sg ~center:3 ~radius:1 = [ 2; 3; 4 ]);
  check "ball big" true
    (View.ball sg ~center:3 ~radius:10 = [ 0; 1; 2; 3; 4; 5; 6 ])

let test_gather_cost () =
  let g = Gen.path 5 in
  let sg = Semi_graph.of_graph g in
  check_int "center of path" (2 * 2) (View.gather_cost sg ~center:2);
  check_int "end of path" (2 * 4) (View.gather_cost sg ~center:0);
  let comp = [ 0; 1; 2; 3; 4 ] in
  check_int "radius needed" 4 (View.radius_needed sg ~component:comp ~center:0)

let test_gather_flooding_matches_eccentricity () =
  (* the executable full-information flooding must cost exactly the
     eccentricity the analytic charge assumes *)
  List.iter
    (fun (g, center) ->
      let sg = Semi_graph.of_graph g in
      check_int "flooding = eccentricity"
        (Semi_graph.underlying_eccentricity sg center)
        (Tl_local.Gather.knowledge_rounds sg ~center);
      check_int "round trip = 2 ecc"
        (View.gather_cost sg ~center)
        (Tl_local.Gather.round_trip_cost sg ~center))
    [
      (Gen.path 9, 0);
      (Gen.path 9, 4);
      (Gen.star 12, 0);
      (Gen.star 12, 3);
      (Gen.random_tree ~n:60 ~seed:8, 17);
      (Gen.path 1, 0);
    ]

let test_gather_many_small_components () =
  (* Regression: the flooding scratch must be component-indexed, not
     n-indexed. Each round used to [Array.copy] an n-sized state array,
     so sweeping a forest of many tiny components cost O(n) per
     component — quadratic overall — and this test would take minutes. *)
  let n = 120_000 and trees = 30_000 in
  let g = Gen.random_forest ~n ~trees ~seed:11 in
  let sg = Semi_graph.of_graph g in
  let components = Semi_graph.underlying_components sg in
  check_int "component count" trees (Array.length components);
  let total = ref 0 in
  Array.iteri
    (fun i component ->
      match component with
      | [] -> ()
      | center :: _ ->
        let r = Tl_local.Gather.knowledge_rounds sg ~center in
        total := !total + r;
        (* spot-check correctness against the analytic value *)
        if i < 50 then
          check_int "flooding = eccentricity"
            (Semi_graph.underlying_eccentricity sg center)
            r)
    components;
  check "total rounds bounded by n" true (!total < n)

let prop_gather_matches_eccentricity =
  QCheck.Test.make ~name:"flooding rounds equal eccentricity" ~count:40
    QCheck.(triple (int_range 1 120) (int_range 0 100000) (int_range 0 1000))
    (fun (n, seed, c) ->
      let g = Gen.random_tree ~n ~seed in
      let center = c mod n in
      let sg = Semi_graph.of_graph g in
      Tl_local.Gather.knowledge_rounds sg ~center
      = Semi_graph.underlying_eccentricity sg center)

let () =
  Alcotest.run "tl_local"
    [
      ( "runtime",
        [
          Alcotest.test_case "flooding" `Quick test_flooding_rounds;
          Alcotest.test_case "flooding completes" `Quick test_flooding_completes;
          Alcotest.test_case "halted early exit" `Quick test_halted_early_exit;
          Alcotest.test_case "max rounds guard" `Quick test_max_rounds_guard;
          Alcotest.test_case "semi-graph restriction" `Quick test_runtime_respects_semi_graph;
          Alcotest.test_case "synchronous swap" `Quick test_swap_is_synchronous;
        ] );
      ("round_cost", [ Alcotest.test_case "ledger" `Quick test_round_cost ]);
      ( "ids",
        [
          Alcotest.test_case "assignments" `Quick test_ids;
          QCheck_alcotest.to_alcotest prop_permuted_is_permutation;
        ] );
      ( "view",
        [
          Alcotest.test_case "balls" `Quick test_ball;
          Alcotest.test_case "gather cost" `Quick test_gather_cost;
        ] );
      ( "gather",
        [
          Alcotest.test_case "flooding = eccentricity" `Quick
            test_gather_flooding_matches_eccentricity;
          Alcotest.test_case "many small components" `Quick
            test_gather_many_small_components;
          QCheck_alcotest.to_alcotest prop_gather_matches_eccentricity;
        ] );
    ]
