(* The batch workloads: Theorem 12 or Theorem 15 pipeline calls on an
   instance generated from the seed.

   A sample is one fresh child process (this executable re-run with
   --sample) that plays a fixed sequence of calls: set up the instance,
   solve it once cold (the first solve of a fresh process, as a one-shot
   user meets it), then [warm_solves] more times warm. OCaml 5.1 never
   compacts the heap and Topology.compile_cached pins up to 64 snapshots,
   so many solves in one process grow the heap and drift; fresh
   processes, a dropped snapshot cache and a full major collection before
   each warm solve keep the solves alike. The parent plays the sequence
   again and again, one process per pass, and keeps each call's fastest
   pass.

   Untraced samples call the public Pipeline entry points, exactly as a
   user would. Traced samples rebuild the same pipeline from
   Theorem1/Theorem2 with the spec callbacks (base algorithm A, the
   gather and star solvers) wrapped in spans, read the decomposition time
   from the theorem's own "decompose" span, then replay
   Algos.proper_coloring step by step (line graph, compile, Linial,
   Kuhn-Wattenhofer, to_bound) on the very semi-graph the base algorithm
   coloured. No library code is changed or instrumented. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Nec = Tl_problems.Nec
module Mis = Tl_problems.Mis
module Matching = Tl_problems.Matching
module Pipeline = Tl_core.Pipeline
module Complexity = Tl_core.Complexity
module Theorem1 = Tl_core.Theorem1
module Theorem2 = Tl_core.Theorem2
module Rake_compress = Tl_decompose.Rake_compress
module Arb_decompose = Tl_decompose.Arb_decompose
module Algos = Tl_symmetry.Algos
module Linial = Tl_symmetry.Linial
module Reduce = Tl_symmetry.Reduce
module Topology = Tl_engine.Topology
module Protocol = Tl_serve.Protocol
module Span = Tl_obs.Span
module Json = Tl_obs.Json

type pipeline = Theorem12_mis | Theorem15_matching of { a : int }

type workload = {
  name : string;
  default_n : int;
  build : n:int -> seed:int -> Graph.t;
  pipeline : pipeline;
}

(* Why these three: tree-mis puts nearly every node in T_C, so the base
   algorithm dominates; tree-mis-balanced runs the same code on the
   paper's lower-bound instance, where Δ > k leaves T_C almost empty and
   decomposition, gather-solve and validation dominate (a base-layer
   change is predicted to leave it unchanged); arb-matching runs all four
   Theorem 15 phases, the base algorithm on a line graph with a much
   larger palette.

   The balanced tree has one shape per n, and the arb-matching graph is
   drawn once, from generator seed 1: on these two workloads the seed
   draws the node ids only. A power-law graph's hubs set the line graph's
   degree, and with it the Kuhn-Wattenhofer round count, so a graph per
   seed would make the round count and the solve time differ from seed
   to seed by more than a regression bound may. *)
let workloads =
  [
    {
      name = "tree-mis";
      default_n = 50_000;
      build = (fun ~n ~seed -> Gen.random_tree ~n ~seed);
      pipeline = Theorem12_mis;
    };
    {
      name = "tree-mis-balanced";
      default_n = 50_000;
      build = (fun ~n ~seed:_ -> Gen.balanced_regular_tree ~delta:8 ~n);
      pipeline = Theorem12_mis;
    };
    {
      name = "arb-matching";
      default_n = 10_000;
      build = (fun ~n ~seed:_ -> Gen.power_law_union ~n ~arboricity:2 ~seed:1);
      pipeline = Theorem15_matching { a = 2 };
    };
  ]

let now = Unix.gettimeofday

type outcome = { valid : bool; rounds : int; digest : string }

(* Drop the snapshots earlier solves left in Topology's cache and collect
   the heap, so that the next timed call starts from the same state. *)
let settle () =
  Topology.clear_cache ();
  Gc.full_major ()

let outcome_of (r : _ Pipeline.report) graph =
  {
    valid = r.Pipeline.valid;
    rounds = r.Pipeline.total_rounds;
    digest = Protocol.digest_labeling ~graph r.Pipeline.labeling;
  }

(* One public pipeline call, timed; the digest is taken after the clock
   stops. *)
let solve_plain w graph ids =
  let timed solve =
    let t0 = now () in
    let r = solve () in
    let dt = now () -. t0 in
    (dt, outcome_of r graph)
  in
  match w.pipeline with
  | Theorem12_mis -> timed (fun () -> Pipeline.mis_on_tree ~tree:graph ~ids ())
  | Theorem15_matching { a } ->
    timed (fun () -> Pipeline.matching_on_graph ~graph ~a ~ids ())

(* ---------- traced solve ---------- *)

(* Algos.proper_coloring, one step per span, on the same semi-graph and
   ids. Fails unless the colors come out identical to
   Algos.proper_coloring's; returns the rounds of the Kuhn-Wattenhofer
   step, the present nodes and the maximum degree. *)
let replay_coloring sg ~ids =
  let n = Graph.n_nodes (Semi_graph.base sg) in
  let nodes = Semi_graph.nodes sg in
  let topo = Tracer.span "replay.compile" (fun () -> Topology.compile sg) in
  let max_degree = Topology.max_degree topo in
  let colors = Array.make n (-1) in
  List.iter (fun v -> colors.(v) <- ids.(v)) nodes;
  let palette0 = 1 + List.fold_left (fun acc v -> max acc ids.(v)) 0 nodes in
  let neighbors v = Topology.neighbor_nodes topo v in
  let kw_rounds =
    if max_degree = 0 then begin
      List.iter (fun v -> colors.(v) <- 0) nodes;
      0
    end
    else begin
      let palette1, _ =
        Tracer.span "replay.linial" (fun () ->
            Linial.reduce_topo ~topo ~nodes ~colors ~palette:palette0 ~max_degree)
      in
      let palette2, kw_rounds =
        Tracer.span "replay.kw" (fun () ->
            Reduce.kw_to_delta_plus_one ~neighbors ~nodes ~colors
              ~palette:palette1 ~delta:max_degree)
      in
      let bound v = Semi_graph.underlying_degree sg v + 1 in
      ignore
        (Tracer.span "replay.to_bound" (fun () ->
             Reduce.to_bound ~neighbors ~nodes ~colors ~palette:palette2 ~bound));
      kw_rounds
    end
  in
  let reference, _, _ = Algos.proper_coloring sg ~ids in
  if reference <> colors then
    failwith "replayed colors differ from Algos.proper_coloring";
  (kw_rounds, Topology.n_present topo, max_degree)

(* The line-graph ids Algos derives from endpoint ids (not exported). *)
let line_ids sg edge_of ids =
  let base = Semi_graph.base sg in
  let width = 1 + Array.fold_left max 0 ids in
  Array.map
    (fun e ->
      let u, v = Graph.edge_endpoints base e in
      (min ids.(u) ids.(v) * width) + max ids.(u) ids.(v))
    edge_of

let count_metric name v = (name, float_of_int v)

(* Theorem1 and Theorem2 time their own decomposition in a Tl_obs span
   named "decompose"; running the theorem under a root span exposes that
   time without touching the library. *)
let run_theorem run =
  let r, root = Span.run "theorem" run in
  let decompose_s =
    List.fold_left
      (fun acc c -> if Span.name c = "decompose" then acc +. Span.elapsed_s c else acc)
      0. (Span.children root)
  in
  (r, decompose_s)

(* Solve, validate and digest under spans, as Pipeline would; [parts]
   reads the labeling and ledger out of the theorem's result. *)
let traced_theorem ~problem graph run parts =
  let (r, decompose_s), violations =
    Tracer.span "solve" (fun () ->
        let ((r, _) as theorem) = Tracer.span "theorem" (fun () -> run_theorem run) in
        let labeling, _ = parts r in
        (theorem, Tracer.span "validate" (fun () -> Nec.validate problem graph labeling)))
  in
  let labeling, cost = parts r in
  let digest = Tracer.span "digest" (fun () -> Protocol.digest_labeling ~graph labeling) in
  (r, decompose_s, { valid = violations = []; rounds = Tl_local.Round_cost.total cost; digest })

(* Words the decomposition allocates. The theorem runs it inside itself,
   where no benchmark-side span can reach it, so this is the one layer
   called a second time, directly, after the traced solve; only its
   allocation is reported. *)
let decompose_alloc_mw decompose =
  settle ();
  ignore (Tracer.span "decompose.direct" decompose);
  Tracer.total_mw "decompose.direct"

(* Run one traced solve; returns the outcome and the layer metrics that
   do not come from the benchmark's own spans. *)
let solve_traced w graph ids =
  match w.pipeline with
  | Theorem12_mis ->
    let spec =
      {
        Theorem1.problem = Mis.problem;
        base_algorithm =
          (fun sg ~ids l -> Tracer.span "base" (fun () -> Algos.mis sg ~ids l));
        solve_edge_list =
          (fun g l ~nodes ->
            Tracer.span "gather" (fun () -> Mis.solve_edge_list g l ~nodes));
      }
    in
    let r, decompose_s, outcome =
      traced_theorem ~problem:Mis.problem graph
        (fun () -> Theorem1.run ~spec ~tree:graph ~ids ~f:Complexity.f_linear ())
        (fun r -> (r.Theorem1.labeling, r.Theorem1.cost))
    in
    let rc = r.Theorem1.rc in
    let alloc_mw =
      decompose_alloc_mw (fun () -> Rake_compress.run graph ~k:r.Theorem1.k ~ids)
    in
    settle ();
    let kw_rounds, present, max_degree =
      Tracer.span "replay" (fun () -> replay_coloring (Rake_compress.t_c rc) ~ids)
    in
    ( outcome,
      [
        ("decompose.s", decompose_s);
        ("decompose.alloc_mw", alloc_mw);
        count_metric "decompose.iterations" (Rake_compress.iterations rc);
        count_metric "decompose.compressed_nodes"
          (List.length (Rake_compress.compressed_nodes rc));
        count_metric "base.kw_rounds" kw_rounds;
        count_metric "base.present_nodes" present;
        count_metric "base.max_degree" max_degree;
      ] )
  | Theorem15_matching { a } ->
    let spec =
      {
        Theorem2.problem = Matching.problem;
        base_algorithm =
          (fun sg ~ids l ->
            Tracer.span "base" (fun () -> Algos.maximal_matching sg ~ids l));
        solve_node_list =
          (fun g l ~edges ->
            Tracer.span "stars" (fun () -> Matching.solve_node_list g l ~edges));
      }
    in
    let r, decompose_s, outcome =
      traced_theorem ~problem:Matching.problem graph
        (fun () -> Theorem2.run ~spec ~graph ~a ~ids ~f:Complexity.f_linear ())
        (fun r -> (r.Theorem2.labeling, r.Theorem2.cost))
    in
    let d = r.Theorem2.decomposition in
    let alloc_mw =
      decompose_alloc_mw (fun () -> Arb_decompose.run graph ~a ~k:r.Theorem2.k ~ids)
    in
    settle ();
    let lg, (kw_rounds, present, max_degree) =
      Tracer.span "replay" (fun () ->
          let g_e2 = Arb_decompose.g_e2 d in
          let lg, lsg, lids =
            Tracer.span "replay.line_structure" (fun () ->
                let lg, edge_of = Algos.line_structure g_e2 in
                (lg, Semi_graph.of_graph lg, line_ids g_e2 edge_of ids))
          in
          (lg, replay_coloring lsg ~ids:lids))
    in
    ( outcome,
      [
        ("decompose.s", decompose_s);
        ("decompose.alloc_mw", alloc_mw);
        count_metric "decompose.iterations" (Arb_decompose.iterations d);
        count_metric "decompose.atypical_edges"
          (List.length (Arb_decompose.atypical_edges d));
        count_metric "base.kw_rounds" kw_rounds;
        count_metric "base.present_nodes" present;
        count_metric "base.max_degree" max_degree;
        count_metric "base.line_nodes" (Graph.n_nodes lg);
        count_metric "base.line_edges" (Graph.n_edges lg);
      ] )

(* The per-layer metrics of one traced sample: the spans' times, plus
   [extra] from the theorem's result and its decompose span. *)
let layer_metrics ~gen_s ~extra =
  let s = Tracer.total_s in
  let substeps =
    [ "replay.line_structure"; "replay.compile"; "replay.linial"; "replay.kw";
      "replay.to_bound" ]
  in
  let decompose_s = List.assoc "decompose.s" extra in
  [
    ("graph.gen_s", gen_s);
    ( "core.glue_s",
      s "theorem" -. s "base" -. s "gather" -. s "stars" -. decompose_s );
    ("base.s", s "base");
    ("base.alloc_mw", Tracer.total_mw "base");
    ("base.line_structure_s", s "replay.line_structure");
    ("base.compile_s", s "replay.compile");
    ("base.linial_s", s "replay.linial");
    ("base.kw_s", s "replay.kw");
    ("base.kw_alloc_mw", Tracer.total_mw "replay.kw");
    ("base.to_bound_s", s "replay.to_bound");
    ("base.rest_s", List.fold_left (fun acc name -> acc -. s name) (s "base") substeps);
    ("gather.s", s "gather");
    ("gather.calls", float_of_int (Tracer.calls "gather"));
    ("stars.s", s "stars");
    ("stars.calls", float_of_int (Tracer.calls "stars"));
    ("validate.s", s "validate");
    ("validate.alloc_mw", Tracer.total_mw "validate");
    ("digest.s", s "digest");
    ("trace.solve_s", s "solve");
  ]
  @ extra

(* ---------- one sample (child process side) ---------- *)

(* Warm solves after the cold one in an untraced sample, each after
   [settle]. With 4, one call in 5 is a process's first. *)
let warm_solves = 4

let sample w ~n ~seed ~traced =
  let t0 = now () in
  let graph = w.build ~n ~seed in
  let gen_s = now () -. t0 in
  let ids = Ids.permuted ~n:(Graph.n_nodes graph) ~seed:(seed + 1) in
  let setup_s = now () -. t0 in
  let cold_s, cold = solve_plain w graph ids in
  let outcomes, times, layers =
    if traced then begin
      settle ();
      Tracer.enabled := true;
      let o, extra = solve_traced w graph ids in
      Tracer.enabled := false;
      ([ o ], [ cold_s ], layer_metrics ~gen_s ~extra)
    end
    else begin
      let runs =
        List.init warm_solves (fun _ ->
            settle ();
            solve_plain w graph ids)
      in
      (List.map snd runs, cold_s :: List.map fst runs, [])
    end
  in
  List.iter
    (fun o ->
      if o.digest <> cold.digest || o.rounds <> cold.rounds then
        failwith "two solves of one instance in one process disagree")
    outcomes;
  let outcomes = cold :: outcomes in
  let failed = List.length (List.filter (fun o -> not o.valid) outcomes) in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let num x = Json.Num x in
  Json.Obj
    [
      ("digest", Json.Str cold.digest);
      ("rounds", num (float_of_int cold.rounds));
      ("attempted", num (float_of_int (List.length outcomes)));
      ("failed", num (float_of_int failed));
      ("times", Json.Arr (List.map num times));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, num v))
             ([
                ("setup_s", setup_s);
                ("gen_s", gen_s);
                ("peak_rss_mb", Tracer.peak_rss_mb "self");
                ("top_heap_mb", top_heap_mb);
              ]
             @ layers)) );
      ("spans", Json.Arr (List.map Tracer.to_json (Tracer.spans ())));
    ]
