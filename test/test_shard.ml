(* Differential battery for the sharded halo-exchange backend: plans,
   shard:{2,4,8} x pool:{1,4} bit-identical to the sequential stepper
   (labelings, per-round trace records, round ledgers, failure
   behavior) on random / balanced / path trees and forest unions. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Trace = Tl_engine.Trace
module Pool = Tl_engine.Pool
module Plan = Tl_shard.Plan
module Shard = Tl_shard.Shard
module Ids = Tl_local.Ids
module Span = Tl_obs.Span

(* The battery runs the backend only through [Engine.run ~mode:(Shard s)],
   which names no symbol of [Shard]: reference it so the linker keeps the
   module whose initialization installs the backend. *)
let () = Shard.register ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let shard_counts = [ 2; 4; 8 ]
let pool_widths = [ 1; 4 ]

(* The acceptance families: random trees, balanced regular trees, paths
   and forest unions. *)
let family ~n ~seed ~pick =
  let n = max 2 n in
  match pick mod 4 with
  | 0 -> Gen.random_tree ~n ~seed
  | 1 -> Gen.balanced_regular_tree ~delta:(2 + (seed mod 4)) ~n
  | 2 -> Gen.path n
  | _ -> Gen.forest_union ~n ~arboricity:2 ~seed

let flood_step ~round:_ ~node:_ s ~neighbors =
  s || List.exists (fun (_, _, su) -> su) neighbors

let mis_step ids ~round:_ ~node:v s ~neighbors =
  if s <> 0 then s
  else if List.exists (fun (_, _, su) -> su = 1) neighbors then 2
  else if
    List.for_all (fun (u, _, su) -> su <> 0 || ids.(u) < ids.(v)) neighbors
  then 1
  else 0

(* ---------- plan invariants ---------- *)

let plan_invariants topo s =
  let plan = Plan.build ~topo ~shards:s in
  let shards = plan.Plan.shards in
  let np = topo.Topology.n_present in
  (* owned slices partition present_nodes in order *)
  let concat =
    Array.concat (Array.to_list (Array.map (fun sh -> sh.Plan.owned) shards))
  in
  concat = topo.Topology.present_nodes
  && Array.length shards = max 1 (min s (max 1 np))
  && Array.for_all
       (fun sh ->
         (* each owned row reproduces the global CSR row, remapped *)
         let ok = ref (sh.Plan.n_owned <= sh.Plan.n_local) in
         for l = 0 to sh.Plan.n_owned - 1 do
           let v = sh.Plan.l2g.(l) in
           let row_g =
             List.init
               (topo.Topology.off.(v + 1) - topo.Topology.off.(v))
               (fun i ->
                 ( topo.Topology.adj.(topo.Topology.off.(v) + i),
                   topo.Topology.eid.(topo.Topology.off.(v) + i) ))
           in
           let row_l =
             List.init
               (sh.Plan.off.(l + 1) - sh.Plan.off.(l))
               (fun i ->
                 ( sh.Plan.l2g.(sh.Plan.adj.(sh.Plan.off.(l) + i)),
                   sh.Plan.eid.(sh.Plan.off.(l) + i) ))
           in
           if row_g <> row_l then ok := false
         done;
         (* every ghost is owned by some other shard at the routed slot *)
         for h = sh.Plan.n_owned to sh.Plan.n_local - 1 do
           let v = sh.Plan.l2g.(h) in
           let o = plan.Plan.owner.(v) in
           if o = sh.Plan.id || o < 0 then ok := false
         done;
         !ok)
       shards
  (* a cross edge is counted by both endpoint shards *)
  && Plan.cut_edges_total plan mod 2 = 0
  && Plan.imbalance_permille plan >= 1000

let prop_plan_invariants =
  QCheck.Test.make ~name:"Plan.build invariants across families" ~count:60
    QCheck.(
      quad (int_range 2 150) (int_range 0 100000) (int_range 0 3)
        (int_range 1 9))
    (fun (n, seed, pick, s) ->
      let g = family ~n ~seed ~pick in
      plan_invariants (Topology.compile (Semi_graph.of_graph g)) s)

let prop_plan_on_subsets =
  QCheck.Test.make ~name:"Plan.build on masked views" ~count:40
    QCheck.(triple (int_range 3 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let keep = Array.init (Graph.n_nodes g) (fun v -> v mod 3 <> 2) in
      let topo = Topology.compile (Semi_graph.of_node_subset g keep) in
      List.for_all (fun s -> plan_invariants topo s) [ 1; 2; 4; 8 ])

(* ---------- engine-level differential: states, rounds, traces ---------- *)

(* Runs [f] once per backend and compares outcomes AND the per-round
   trace records: the sharded stepper must reproduce the sequential
   active/changed/unhalted counts round by round, not just the final
   labeling (the "round ledger" at engine level). *)
let record_key r = (r.Trace.round, r.Trace.active, r.Trace.changed, r.Trace.unhalted)

let outcome_and_records f mode =
  let trace = Trace.create ~label:"diff" () in
  let o = f ~mode ~trace in
  (o, List.map record_key (Trace.records trace))

let shard_matches_seq ?(pools = pool_widths) f =
  let seq_o, seq_r = outcome_and_records f Engine.Seq in
  List.for_all
    (fun s ->
      List.for_all
        (fun w ->
          let saved = !Pool.default_workers in
          Pool.default_workers := w;
          Fun.protect
            ~finally:(fun () -> Pool.default_workers := saved)
            (fun () ->
              let o, r = outcome_and_records f (Engine.Shard s) in
              o.Engine.rounds = seq_o.Engine.rounds
              && o.Engine.states = seq_o.Engine.states
              && r = seq_r))
        pools)
    shard_counts

let prop_flood_differential =
  QCheck.Test.make ~name:"flood: shard x pool == seq (states + records)"
    ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      (* the full view, and the masked view of prop_plan_on_subsets *)
      let keep = Array.init (Graph.n_nodes g) (fun v -> v mod 3 <> 2) in
      List.for_all
        (fun sg ->
          let topo = Topology.compile sg in
          List.for_all
            (fun sched ->
              shard_matches_seq (fun ~mode ~trace ->
                  Engine.run_until_stable ~mode ~sched ~trace ~topo
                    ~init:(fun v -> v = 0)
                    ~step:flood_step ~equal:Bool.equal
                    ~max_rounds:(Graph.n_nodes g + 1)
                    ()))
            [ Engine.Active_set; Engine.Full_scan ])
        [ Semi_graph.of_graph g; Semi_graph.of_node_subset g keep ])

let prop_mis_differential =
  QCheck.Test.make ~name:"MIS machine: shard x pool == seq" ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      shard_matches_seq (fun ~mode ~trace ->
          Engine.run ~mode ~trace ~topo
            ~init:(fun _ -> 0)
            ~step:(mis_step ids)
            ~halted:(fun s -> s <> 0)
            ~max_rounds:(n + 1) ()))

let prop_run_rounds_differential =
  QCheck.Test.make ~name:"run_rounds: shard x pool == seq, exact count"
    ~count:30
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 5) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 3 + (seed mod 5) in
      let seq, shard_outcomes =
        ( Engine.run_rounds ~mode:Engine.Seq ~topo
            ~init:(fun v -> ids.(v))
            ~step:(fun ~round:_ ~node:_ s ~neighbors ->
              List.fold_left (fun acc (_, _, su) -> max acc su) s neighbors)
            ~rounds:r (),
          List.map
            (fun s ->
              Engine.run_rounds ~mode:(Engine.Shard s) ~topo
                ~init:(fun v -> ids.(v))
                ~step:(fun ~round:_ ~node:_ s ~neighbors ->
                  List.fold_left (fun acc (_, _, su) -> max acc su) s neighbors)
                ~rounds:r ())
            shard_counts )
      in
      seq.Engine.rounds = r
      && List.for_all
           (fun o ->
             o.Engine.rounds = r && o.Engine.states = seq.Engine.states)
           shard_outcomes)

(* ---------- failure parity ---------- *)

let failure_message f =
  match f () with exception Failure m -> Some m | _ -> None

let test_failure_parity () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 9)) in
  let frozen mode () =
    Engine.run ~mode ~topo
      ~init:(fun _ -> 0)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s)
      ~halted:(fun _ -> false)
      ~max_rounds:10 ()
  in
  let blinker mode () =
    Engine.run_until_stable ~mode ~topo
      ~init:(fun _ -> false)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> not s)
      ~equal:Bool.equal ~max_rounds:7 ()
  in
  let m_frozen = failure_message (frozen Engine.Seq) in
  let m_blinker = failure_message (blinker Engine.Seq) in
  check "seq frozen raises" true (m_frozen <> None);
  check "seq blinker raises" true (m_blinker <> None);
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        (Printf.sprintf "frozen parity shard:%d" s)
        m_frozen
        (failure_message (frozen (Engine.Shard s)));
      Alcotest.(check (option string))
        (Printf.sprintf "blinker parity shard:%d" s)
        m_blinker
        (failure_message (blinker (Engine.Shard s))))
    shard_counts

let test_unlinked_backend_message () =
  (* the hook is installed by linking tl_shard; pulling it out must
     produce the documented failure, and restoring it must recover *)
  let saved = !Engine.shard_backend in
  Engine.shard_backend := None;
  Fun.protect
    ~finally:(fun () -> Engine.shard_backend := saved)
    (fun () ->
      let topo = Topology.compile (Semi_graph.of_graph (Gen.path 3)) in
      match
        Engine.run ~mode:(Engine.Shard 2) ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s)
          ~halted:(fun _ -> true)
          ~max_rounds:1 ()
      with
      | exception Failure m ->
        check "unlinked failure message" true
          (m = "Engine: shard mode requested but the tl_shard backend is \
                not linked")
      | _ -> Alcotest.fail "expected Failure without a backend")

let test_empty_present_set () =
  let g = Gen.path 4 in
  let topo = Topology.compile (Semi_graph.of_node_subset g (Array.make 4 false)) in
  List.iter
    (fun s ->
      let o =
        Engine.run ~mode:(Engine.Shard s) ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:_ st ~neighbors:_ -> st + 1)
          ~halted:(fun _ -> false)
          ~max_rounds:5 ()
      in
      check_int (Printf.sprintf "empty view costs 0 rounds shard:%d" s) 0
        o.Engine.rounds)
    shard_counts

(* ---------- mode strings ---------- *)

let test_mode_strings () =
  List.iter
    (fun m ->
      check
        ("round-trip " ^ Engine.mode_to_string m)
        true
        (Engine.mode_of_string ~count:4 (Engine.mode_to_string m) = m))
    [ Engine.Shard 1; Engine.Shard 2; Engine.Shard 16 ];
  check "bare \"shard\" takes the count argument" true
    (Engine.mode_of_string ~count:6 "shard" = Engine.Shard 6);
  check "an inline count wins over the argument" true
    (Engine.mode_of_string ~count:6 "shard:3" = Engine.Shard 3);
  check "bare \"shard\" rejects a count below 1" true
    (match Engine.mode_of_string ~count:0 "shard" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (match Engine.mode_of_string ~count:4 s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "shard:0"; "shard:x"; "shard:" ]

(* ---------- spans: the per-shard observability contract ---------- *)

let rec find_spans pred s =
  let here = if pred s then [ s ] else [] in
  here @ List.concat_map (find_spans pred) (Span.children s)

let test_shard_spans () =
  let g = Gen.random_tree ~n:500 ~seed:11 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  Plan.clear_cache ();
  let (), root =
    Span.run "shard-span-test" (fun () ->
        ignore
          (Engine.run_until_stable ~mode:(Engine.Shard 4) ~topo
             ~init:(fun v -> v = 0)
             ~step:flood_step ~equal:Bool.equal ~max_rounds:501 ()))
  in
  let shard_spans =
    find_spans
      (fun s ->
        String.length (Span.name s) > 6
        && String.sub (Span.name s) 0 6 = "shard:")
      root
  in
  check_int "one child span per shard" 4 (List.length shard_spans);
  List.iter
    (fun s ->
      let c = Span.counters s in
      List.iter
        (fun key ->
          check
            (Printf.sprintf "%s carries %s" (Span.name s) key)
            true (List.mem_assoc key c))
        [
          "shard:cut_edges"; "shard:halo_words"; "shard:imbalance";
          "shard:exchange_rounds"; "shard:owned"; "shard:halo";
        ])
    shard_spans;
  let root_counters = Span.counters root in
  check_int "aggregate shard count" 4
    (List.assoc "shard:shards" root_counters);
  check "plan miss counted" true
    (List.mem_assoc "shard:plan_miss" root_counters);
  (* flood floods the whole tree: every cross-boundary edge carried at
     least one message, so the aggregate halo traffic is positive and at
     least the directed cut size *)
  check "halo traffic at least cut size" true
    (List.assoc "shard:halo_words" root_counters
    >= List.assoc "shard:cut_edges" root_counters / 2)

let test_plan_cache () =
  Plan.clear_cache ();
  let g = Gen.random_tree ~n:80 ~seed:3 in
  let sg = Semi_graph.of_graph g in
  let topo = Topology.compile sg in
  let _, hit1 = Plan.build_cached ~topo ~shards:4 in
  let p2, hit2 = Plan.build_cached ~topo ~shards:4 in
  let _, hit3 = Plan.build_cached ~topo ~shards:8 in
  check "first build misses" true (not hit1);
  check "second build hits" true hit2;
  check "different shard count misses" true (not hit3);
  check "cached plan reuses the topology" true (p2.Plan.topo == topo);
  (* masking a node bumps the generation: the stale plan is unreachable *)
  Semi_graph.hide_node sg 0;
  let topo2 = Topology.compile sg in
  let _, hit4 = Plan.build_cached ~topo:topo2 ~shards:4 in
  check "mutation invalidates the plan" true (not hit4)

(* Both caches under interleaved lookups — the serving daemon's access
   pattern, where batched same-topology requests alternate with other
   topologies and shard counts. Hit/miss counters must account for
   every lookup exactly, and a generation bump must never let a stale
   snapshot or plan resurface. *)
let test_cache_interleaved () =
  Topology.clear_cache ();
  Plan.clear_cache ();
  let th0, tm0 = Topology.cache_stats () in
  let ph0, pm0 = Plan.cache_stats () in
  let sg_a = Semi_graph.of_graph (Gen.random_tree ~n:60 ~seed:5) in
  let sg_b = Semi_graph.of_graph (Gen.path 40) in
  (* interleave the two views: A miss, B miss, A hit, B hit *)
  let ta, ha = Topology.compile_cached_stat sg_a in
  let tb, hb = Topology.compile_cached_stat sg_b in
  let ta', ha' = Topology.compile_cached_stat sg_a in
  let tb', hb' = Topology.compile_cached_stat sg_b in
  check "interleaved misses then hits" true
    ((not ha) && (not hb) && ha' && hb');
  check "snapshots interleave-stable" true (ta == ta' && tb == tb');
  (* interleave plans across topologies and shard counts *)
  let _, p1 = Plan.build_cached ~topo:ta ~shards:2 in
  let _, p2 = Plan.build_cached ~topo:tb ~shards:2 in
  let _, p3 = Plan.build_cached ~topo:ta ~shards:3 in
  let _, p4 = Plan.build_cached ~topo:ta ~shards:2 in
  let _, p5 = Plan.build_cached ~topo:tb ~shards:2 in
  check "plan keying is (view, shards)" true
    ((not p1) && (not p2) && (not p3) && p4 && p5);
  let th1, tm1 = Topology.cache_stats () in
  let ph1, pm1 = Plan.cache_stats () in
  check_int "topology hits accounted" 2 (th1 - th0);
  check_int "topology misses accounted" 2 (tm1 - tm0);
  check_int "plan hits accounted" 2 (ph1 - ph0);
  check_int "plan misses accounted" 3 (pm1 - pm0);
  (* hide an edge of A: its generation bumps, so both the snapshot and
     every plan derived from it must be rebuilt — while B's entries
     survive the interleaving untouched *)
  let slots t = t.Topology.off.(Array.length t.Topology.off - 1) in
  Semi_graph.hide_edge sg_a 0;
  let ta2, ha2 = Topology.compile_cached_stat sg_a in
  check "hide_edge invalidates the snapshot" true (not ha2);
  check "fresh snapshot, not the stale one" true (not (ta2 == ta));
  check_int "mutation visible in the recompile" (slots ta - 2) (slots ta2);
  let _, p6 = Plan.build_cached ~topo:ta2 ~shards:2 in
  check "stale-generation plan not reused" true (not p6);
  let _, p7 = Plan.build_cached ~topo:tb ~shards:2 in
  check "unrelated view's plan survives" true p7;
  check "unrelated snapshot survives" true
    (snd (Topology.compile_cached_stat sg_b))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "tl_shard"
    [
      ( "plan",
        qsuite [ prop_plan_invariants; prop_plan_on_subsets ]
        @ [
            Alcotest.test_case "plan cache" `Quick test_plan_cache;
            Alcotest.test_case "interleaved topo+plan caches" `Quick
              test_cache_interleaved;
          ] );
      ( "differential",
        qsuite
          [
            prop_flood_differential;
            prop_mis_differential;
            prop_run_rounds_differential;
          ] );
      ( "failure",
        [
          Alcotest.test_case "max_rounds and stall parity" `Quick
            test_failure_parity;
          Alcotest.test_case "unlinked backend message" `Quick
            test_unlinked_backend_message;
          Alcotest.test_case "empty present set" `Quick
            test_empty_present_set;
        ] );
      ( "api",
        [
          Alcotest.test_case "mode strings" `Quick test_mode_strings;
        ] );
      ( "obs",
        [ Alcotest.test_case "per-shard spans" `Quick test_shard_spans ] );
    ]
