(* The serving layer: job-queue semantics, protocol round-trips, knob
   validation, the admission/batching/drain cycle with backpressure, and
   the differential battery — a daemon-served request is bit-identical
   (digest, rounds, ledger) to a direct one-shot run for every
   (engine, pool) knob. The tail runs the real daemon binary as a
   subprocess over pipes. *)

module Json = Tl_obs.Json
module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Pipeline = Tl_core.Pipeline
module P = Tl_serve.Protocol
module Jobq = Tl_serve.Jobq
module Server = Tl_serve.Server
module Metrics = Tl_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qsuite = List.map (QCheck_alcotest.to_alcotest ~verbose:false)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- jobq ---------- *)

let test_jobq_basics () =
  (match Jobq.create ~depth:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "depth 0 must raise");
  let q = Jobq.create ~depth:3 in
  check_int "depth" 3 (Jobq.depth q);
  check "empty" true (Jobq.is_empty q);
  check "admit 1" true (Jobq.admit q 1);
  check "admit 2" true (Jobq.admit q 2);
  check "admit 3" true (Jobq.admit q 3);
  check "admit 4 rejected" false (Jobq.admit q 4);
  check "admit 5 rejected" false (Jobq.admit q 5);
  check_int "length" 3 (Jobq.length q);
  check "drain order" true (Jobq.drain q = [ 1; 2; 3 ]);
  check "drained empty" true (Jobq.is_empty q);
  (* counters are totals, not per-cycle *)
  check "admit after drain" true (Jobq.admit q 6);
  check_int "admitted total" 4 (Jobq.admitted q);
  check_int "rejected total" 2 (Jobq.rejected q)

(* ---------- protocol round-trips ---------- *)

let test_request_roundtrip () =
  let specs =
    [
      P.Family { family = "path"; n = 17; seed = 9; a = 2; delta = 3 };
      P.Edges { n = 4; edges = [ (0, 1); (1, 2); (2, 3) ]; seed = 5 };
    ]
  in
  List.iter
    (fun spec ->
      let r =
        P.request ~id:"x1" ~problem:"matching" ~method_:"direct" ~spec ~k:6
          ~engine:"proc:3" ~pool:4 ~want_span:false ()
      in
      match P.incoming_of_json (P.request_to_json r) with
      | Ok (P.Request r') -> check "request round-trips" true (r = r')
      | _ -> Alcotest.fail "request did not round-trip")
    specs;
  (* defaults mirror the CLI defaults *)
  (match P.incoming_of_json (Json.parse "{\"v\":1}") with
  | Ok (P.Request r) ->
    check "default problem" true (r.P.problem = "mis");
    check "default method" true (r.P.method_ = "transform");
    check "default engine" true (r.P.engine = "seq");
    check_int "default pool" 1 r.P.pool;
    check "default spec" true (r.P.spec = P.default_spec)
  | _ -> Alcotest.fail "bare request rejected");
  (* version gate *)
  (match P.incoming_of_json (Json.parse "{\"v\":2}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted");
  match P.incoming_of_json (Json.parse "{\"v\":1,\"id\":\"c\",\"cmd\":\"ping\"}") with
  | Ok (P.Control ("c", P.Ping)) -> ()
  | _ -> Alcotest.fail "ping control did not parse"

let test_response_roundtrip () =
  let cases =
    [
      {
        P.rid = "a";
        outcome =
          P.Solved
            {
              P.digest = "00ff";
              total_rounds = 12;
              ledger = [ ("decompose", 5); ("base", 7) ];
              valid = true;
              engine_rounds = 13;
              cache_hit = true;
              span = None;
            };
      };
      { P.rid = "b"; outcome = P.Pong };
      { P.rid = "c"; outcome = P.Stats_report [ ("served", 3) ] };
      {
        P.rid = "m";
        outcome =
          P.Metrics_report
            (Json.Obj
               [
                 ("tl_metrics", Json.Num 1.);
                 ("counters", Json.Obj [ ("serve_served_total", Json.Num 3.) ]);
                 ("gauges", Json.Obj []);
                 ("histograms", Json.Obj []);
               ]);
      };
      {
        P.rid = "t";
        outcome =
          P.Tail_report
            [
              Json.Obj
                [
                  ("ts", Json.Num 1.5); ("kind", Json.Str "request");
                  ("key", Json.Str "k"); ("detail", Json.Str "");
                  ("outcome", Json.Str "ok"); ("latency_s", Json.Num 0.01);
                ];
            ];
      };
      { P.rid = "d"; outcome = P.Error (P.Rejected, "queue full (depth 2)") };
      { P.rid = "e"; outcome = P.Error (P.Bad_request, "nope") };
      { P.rid = "f"; outcome = P.Error (P.Failed, "boom") };
    ]
  in
  List.iter
    (fun resp ->
      match P.response_of_json (P.response_to_json resp) with
      | Ok resp' -> check ("round-trip " ^ resp.P.rid) true (resp = resp')
      | Error msg -> Alcotest.fail ("response did not parse: " ^ msg))
    cases

(* Edge-list spec keys digest every endpoint: lists that agree on a
   long prefix (where Hashtbl.hash stops looking) still key apart, so
   the instance cache and the batcher never conflate them. *)
let test_spec_key_edges () =
  let path_edges n = List.init (n - 1) (fun i -> (i, i + 1)) in
  let key edges = P.spec_key (P.Edges { n = 40; edges; seed = 1 }) in
  let e1 = path_edges 40 in
  let e2 = List.mapi (fun i e -> if i = 38 then (0, 39) else e) e1 in
  check "equal lists, equal keys" true (key e1 = key (path_edges 40));
  check "shared prefix, distinct keys" false (key e1 = key e2);
  (* a proper prefix keys apart too: the edge count is part of the key *)
  let prefix = List.filteri (fun i _ -> i < 38) e1 in
  check "proper prefix, distinct keys" false (key e1 = key prefix);
  check "seed is part of the key" false
    (key e1 = P.spec_key (P.Edges { n = 40; edges = e1; seed = 2 }))

(* ---------- knob validation ---------- *)

let test_resolve_knobs () =
  let ok engine pool n =
    match P.resolve_knobs ~engine ~pool ~n with
    | Ok m -> m
    | Error msg -> Alcotest.fail ("unexpected rejection: " ^ msg)
  in
  let err engine pool n =
    match P.resolve_knobs ~engine ~pool ~n with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail "expected a rejection"
  in
  check "seq" true (ok "seq" 1 10 = Engine.Seq);
  check "par:2" true (ok "par:2" 1 10 = Engine.Par 2);
  check "proc:3" true (ok "proc:3" 1 10 = Engine.Proc 3);
  (* the count is part of the mode string *)
  check "bare proc names proc:N" true (contains_sub (err "proc" 1 10) "proc:N");
  ignore (err "shard:2" 1 10);
  (* ... and the daemon answers both with bad_request *)
  List.iter
    (fun engine ->
      match
        Server.handle_request (Server.create ())
          (P.request ~problem:"flood" ~engine ~want_span:false ())
      with
      | { P.outcome = P.Error (P.Bad_request, _); _ } -> ()
      | _ -> Alcotest.failf "engine %S must be a bad_request" engine)
    [ "proc"; "shard:4"; "naive" ];
  check "proc count over n" true
    (P.resolve_knobs ~engine:"proc:11" ~pool:1 ~n:10 |> Result.is_error);
  let m = err "proc:50" 1 20 in
  check "friendly procs>n message" true (contains_sub m "proc count 50");
  ignore (err "warp" 1 10);
  ignore (err "seq" 0 10);
  ignore (err "seq" 65 10);
  ignore (err "seq" 1 0);
  (* served runs step flat kernels, which have no naive mode *)
  check "naive names the served modes" true
    (err "naive" 1 10
    = "invalid engine \"naive\" (expected seq, par:N or proc:N)")

(* ---------- differential battery ---------- *)

(* The reference side rebuilds the instance and runs the pipelines
   directly — no serve code beyond the shared digest — with the pool
   width set process-wide, exactly like a one-shot CLI run. Its flood is
   the naive oracle's boxed machine (test/naive.ml), while the daemon
   serves the flat kernel in the request's mode: an independent
   differential of the two. *)

let build_ref_graph = function
  | P.Edges { n; edges; _ } -> Graph.of_edges ~n edges
  | P.Family { family; n; seed; a; delta } -> (
    match family with
    | "random-tree" -> Gen.random_tree ~n ~seed
    | "path" -> Gen.path n
    | "balanced-tree" -> Gen.balanced_regular_tree ~delta ~n
    | "forest-union" -> Gen.forest_union ~n ~arboricity:a ~seed
    | other -> failwith ("unexpected test family " ^ other))

let reference (r : P.request) =
  let g = build_ref_graph r.P.spec in
  let seed =
    match r.P.spec with P.Family { seed; _ } | P.Edges { seed; _ } -> seed
  in
  let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 1) in
  let a = match r.P.spec with P.Family { a; _ } -> a | P.Edges _ -> 1 in
  let workers = r.P.pool in
  match (r.P.problem, r.P.method_) with
  | "flood", _ ->
    let topo = Topology.compile (Semi_graph.of_graph g) in
    let o =
      Naive.run_until_stable ~topo
        ~init:(fun v -> v = 0)
        ~step:Naive.flood_step ~equal:Bool.equal
        ~max_rounds:(Graph.n_nodes g + 1)
    in
    ( P.digest_array (fun b -> if b then 1 else 0) o.Naive.states,
      o.Naive.rounds,
      [ ("flood", o.Naive.rounds) ] )
  | "mis", "transform" ->
    let r = Pipeline.mis_on_tree ~workers ~tree:g ~ids () in
    ( P.digest_labeling ~graph:g r.Pipeline.labeling,
      r.Pipeline.total_rounds,
      Round_cost.phases r.Pipeline.cost )
  | "coloring", "direct" ->
    let r = Pipeline.coloring_direct ~graph:g ~ids in
    ( P.digest_labeling ~graph:g r.Pipeline.labeling,
      r.Pipeline.total_rounds,
      Round_cost.phases r.Pipeline.cost )
  | "matching", "transform" ->
    let r = Pipeline.matching_on_graph ~workers ~graph:g ~a ~ids () in
    ( P.digest_labeling ~graph:g r.Pipeline.labeling,
      r.Pipeline.total_rounds,
      Round_cost.phases r.Pipeline.cost )
  | "edge-coloring", "direct" ->
    let r = Pipeline.edge_coloring_direct ~graph:g ~ids in
    ( P.digest_labeling ~graph:g r.Pipeline.labeling,
      r.Pipeline.total_rounds,
      Round_cost.phases r.Pipeline.cost )
  | p, m -> failwith ("unexpected test problem " ^ p ^ "/" ^ m)

let combo_gen =
  QCheck.Gen.(
    let* pick = int_range 0 4 in
    let* fam = int_range 0 2 in
    let* n = int_range 20 80 in
    let* seed = int_range 1 1000 in
    let* eng = int_range 0 1 in
    let* pool = oneofl [ 1; 4 ] in
    let problem, method_ =
      match pick with
      | 0 -> ("flood", "transform")
      | 1 -> ("mis", "transform")
      | 2 -> ("coloring", "direct")
      | 3 -> ("matching", "transform")
      | _ -> ("edge-coloring", "direct")
    in
    (* mis/transform needs a tree instance *)
    let family =
      match fam with
      | 0 -> "random-tree"
      | 1 -> "path"
      | _ -> if problem = "mis" then "balanced-tree" else "forest-union"
    in
    let a = if family = "forest-union" then 2 else 1 in
    let spec = P.Family { family; n; seed; a; delta = 3 } in
    let engine = match eng with 0 -> "seq" | _ -> "par:3" in
    return
      (P.request ~id:"q" ~problem ~method_ ~spec ~engine ~pool
         ~want_span:false ()))

let combo_print (r : P.request) =
  Printf.sprintf "%s/%s %s engine=%s pool=%d" r.P.problem r.P.method_
    (P.spec_key r.P.spec) r.P.engine r.P.pool

let prop_serve_differential =
  QCheck.Test.make ~count:40
    ~name:"served response bit-identical to a one-shot run"
    (QCheck.make ~print:combo_print combo_gen)
    (fun r ->
      let server = Server.create () in
      let resp = Server.handle_request server r in
      let resp2 = Server.handle_request server r in
      match (resp.P.outcome, resp2.P.outcome) with
      | P.Solved s, P.Solved s2 ->
        (match
           P.resolve_knobs ~engine:r.P.engine ~pool:r.P.pool
             ~n:(P.spec_n r.P.spec)
         with
        | Ok _ -> ()
        | Error msg -> QCheck.Test.fail_report msg);
        let digest, rounds, ledger = reference r in
        if s.P.digest <> digest then
          QCheck.Test.fail_reportf "digest %s <> reference %s" s.P.digest
            digest;
        if s.P.total_rounds <> rounds then
          QCheck.Test.fail_reportf "rounds %d <> reference %d" s.P.total_rounds
            rounds;
        if s.P.ledger <> ledger then QCheck.Test.fail_report "ledger differs";
        if not s.P.valid then QCheck.Test.fail_report "labeling invalid";
        (* the warm repeat is served from cache and still bit-identical *)
        if not s2.P.cache_hit then QCheck.Test.fail_report "no warm cache hit";
        s2.P.digest = digest && s2.P.total_rounds = rounds
        && s2.P.ledger = ledger
      | o, _ ->
        QCheck.Test.fail_reportf "request failed: %s"
          (match o with
          | P.Error (_, m) -> m
          | _ -> "unexpected outcome kind"))

(* ---------- the cycle: batching, ordering, backpressure ---------- *)

let req_line ?(id = "r") ?(problem = "flood") ?(n = 40) ?(seed = 1)
    ?(engine = "seq") () =
  Printf.sprintf
    "{\"v\":1,\"id\":%S,\"problem\":%S,\"engine\":%S,\"span\":false,\"graph\":{\"family\":\"random-tree\",\"n\":%d,\"seed\":%d}}"
    id problem engine n seed

let parse_resp line =
  match P.response_of_json (Json.parse (String.trim line)) with
  | Ok r -> r
  | Error msg -> Alcotest.fail ("bad response line: " ^ msg)

let test_cycle_batching_and_order () =
  let server = Server.create () in
  let lines =
    [
      req_line ~id:"a1" ~seed:1 ();
      req_line ~id:"b1" ~seed:2 ();
      req_line ~id:"a2" ~seed:1 ();
      req_line ~id:"b2" ~seed:2 ();
    ]
  in
  let resps = List.map parse_resp (Server.handle_lines server lines) in
  check "responses in arrival order" true
    (List.map (fun r -> r.P.rid) resps = [ "a1"; "b1"; "a2"; "b2" ]);
  let hit id =
    match
      (List.find (fun r -> r.P.rid = id) resps).P.outcome
    with
    | P.Solved s -> s.P.cache_hit
    | _ -> Alcotest.fail (id ^ " not solved")
  in
  (* batching: the repeat of each spec lands on the cached instance even
     within a single cycle *)
  check "a1 cold" false (hit "a1");
  check "b1 cold" false (hit "b1");
  check "a2 warm" true (hit "a2");
  check "b2 warm" true (hit "b2");
  let digest id =
    match (List.find (fun r -> r.P.rid = id) resps).P.outcome with
    | P.Solved s -> s.P.digest
    | _ -> assert false
  in
  check_str "batched repeat identical" (digest "a1") (digest "a2");
  let st = Server.stats server in
  check_int "one batch" 1 (List.assoc "batches" st);
  check_int "batch size" 4 (List.assoc "max_batch" st);
  check_int "two cold instances" 2 (List.assoc "serve:cache_miss" st);
  check_int "two warm instances" 2 (List.assoc "serve:cache_hit" st)

let test_cycle_backpressure () =
  let server =
    Server.create
      ~config:{ Server.default_config with Server.depth = 2 }
      ()
  in
  let lines = List.init 5 (fun i -> req_line ~id:(Printf.sprintf "r%d" i) ()) in
  let resps = List.map parse_resp (Server.handle_lines server lines) in
  let outcomes =
    List.map
      (fun r ->
        match r.P.outcome with
        | P.Solved _ -> "ok"
        | P.Error (P.Rejected, msg) ->
          check "rejection names the depth" true
            (msg = "queue full (depth 2)");
          "rejected"
        | _ -> "other")
      resps
  in
  check "first fills the queue, rest rejected" true
    (outcomes = [ "ok"; "ok"; "rejected"; "rejected"; "rejected" ]);
  let st = Server.stats server in
  check_int "rejections counted" 3 (List.assoc "rejected" st);
  check_int "served counted" 2 (List.assoc "served" st);
  (* the next cycle starts from an empty queue *)
  let resps2 = List.map parse_resp (Server.handle_lines server [ req_line () ]) in
  check "queue drained between cycles" true
    (match (List.hd resps2).P.outcome with P.Solved _ -> true | _ -> false)

let test_cycle_errors_and_controls () =
  let server = Server.create () in
  let lines =
    [
      "{oops";
      "{\"v\":1,\"id\":\"u\",\"problem\":\"frobnicate\",\"span\":false}";
      "{\"v\":1,\"id\":\"p\",\"cmd\":\"ping\"}";
      "{\"v\":1,\"id\":\"s\",\"cmd\":\"stats\"}";
      req_line ~id:"good" ();
      "{\"v\":1,\"id\":\"q\",\"cmd\":\"shutdown\"}";
    ]
  in
  let resps = List.map parse_resp (Server.handle_lines server lines) in
  check_int "every line answered" 6 (List.length resps);
  (match (List.nth resps 0).P.outcome with
  | P.Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "malformed json must be bad_request");
  (match (List.nth resps 1).P.outcome with
  | P.Error (P.Bad_request, msg) ->
    check "names the unknown problem" true
      (msg = "unknown problem \"frobnicate\"")
  | _ -> Alcotest.fail "unknown problem must be bad_request");
  check "ping answered" true ((List.nth resps 2).P.outcome = P.Pong);
  (match (List.nth resps 3).P.outcome with
  | P.Stats_report kvs ->
    (* controls run after the cycle's jobs: the good request is visible *)
    check_int "stats sees the served job" 1 (List.assoc "served" kvs)
  | _ -> Alcotest.fail "stats must report");
  (match (List.nth resps 4).P.outcome with
  | P.Solved _ -> ()
  | _ -> Alcotest.fail "good request must be served");
  check "shutdown acks" true ((List.nth resps 5).P.outcome = P.Pong);
  check "shutdown latched" true (Server.shutdown_requested server)

(* An unknown family is refused while the request is decoded, from the
   family table the CLI shares: a bad_request naming it, never a failed
   job. *)
let test_unknown_family_is_bad_request () =
  let server = Server.create () in
  let line family =
    Printf.sprintf
      "{\"v\":1,\"id\":\"f\",\"problem\":\"mis\",\"span\":false,\
       \"graph\":{\"family\":\"%s\",\"n\":40}}"
      family
  in
  let resps =
    List.map parse_resp (Server.handle_lines server [ line "nosuch"; line "path" ])
  in
  (match (List.nth resps 0).P.outcome with
  | P.Error (P.Bad_request, msg) ->
    check "names the unknown family" true
      (String.starts_with ~prefix:"unknown family \"nosuch\"" msg)
  | _ -> Alcotest.fail "unknown family must be bad_request");
  check "answer carries the request id" true ((List.nth resps 0).P.rid = "f");
  (match (List.nth resps 1).P.outcome with
  | P.Solved _ -> ()
  | _ -> Alcotest.fail "a known family is served");
  check "decoding refuses it" true
    (match P.incoming_of_json (Json.parse (line "nosuch")) with
    | Error _ -> true
    | Ok _ -> false);
  check "build_graph refuses it" true
    (match
       P.build_graph (P.Family { family = "nosuch"; n = 4; seed = 1; a = 1; delta = 3 })
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_span_report_on_request () =
  let server = Server.create () in
  let run id =
    match
      Server.handle_request server
        (P.request ~id ~problem:"flood"
           ~spec:(P.Family { family = "path"; n = 30; seed = 1; a = 1; delta = 3 })
           ~want_span:true ())
    with
    | { P.outcome = P.Solved s; _ } -> s
    | _ -> Alcotest.fail "flood request failed"
  in
  let _cold = run "c" in
  let warm = run "w" in
  check "warm hit flagged" true warm.P.cache_hit;
  match warm.P.span with
  | None -> Alcotest.fail "span requested but missing"
  | Some report ->
    check "report schema marker" true
      (Option.bind (Json.member "tl_obs_report" report) Json.to_int = Some 1);
    let span = Option.get (Json.member "span" report) in
    check "span is the request span" true
      (Option.bind (Json.member "name" span) Json.to_str
      = Some "serve:request");
    let counters =
      Option.value ~default:[]
        (Option.bind (Json.member "counters" span) Json.to_assoc)
    in
    check "serve:cache_hit counter in the span" true
      (List.assoc_opt "serve:cache_hit" counters = Some (Json.Num 1.))

(* grid builds floor(sqrt n)^2 nodes, so a proc count can clear
   admission against the declared n yet exceed the built graph — that
   must still be a structured bad_request, not a generic failure. The
   in-bounds run forks its workers, so the cycle group runs before the
   differential battery can spawn a domain. *)
let test_shard_vs_built_n () =
  let server = Server.create () in
  let spec = P.Family { family = "grid"; n = 10; seed = 1; a = 1; delta = 3 } in
  (match
     Server.handle_request server
       (P.request ~id:"g" ~problem:"flood" ~spec ~engine:"proc:10"
          ~want_span:false ())
   with
  | { P.outcome = P.Error (P.Bad_request, msg); _ } ->
    check "names the built size" true
      (contains_sub msg "built instance size 9")
  | { P.outcome = P.Error (_, msg); _ } ->
    Alcotest.fail ("wrong error kind: " ^ msg)
  | _ -> Alcotest.fail "oversized proc count must be rejected");
  match
    Server.handle_request server
      (P.request ~id:"g2" ~problem:"flood" ~spec ~engine:"proc:4"
         ~want_span:false ())
  with
  | { P.outcome = P.Solved _; _ } -> ()
  | _ -> Alcotest.fail "in-bounds proc request failed"

(* Served flood's [valid] is Repair's checker verdict, not a constant.
   On a disconnected edge list only node 0's component floods; the
   checker accepts that labeling and rejects one that floods too far. *)
let test_flood_valid_is_checked () =
  let edges = [ (0, 1); (1, 2); (3, 4) ] in
  let spec = P.Edges { n = 6; edges; seed = 1 } in
  let sg = Semi_graph.of_graph (Graph.of_edges ~n:6 edges) in
  let verdict labels = Tl_fault.Repair.check_flood ~sg ~source:0 ~labels in
  let flooded = [| 1; 1; 1; 0; 0; 0 |] in
  check "checker accepts the component" true (verdict flooded);
  check "checker rejects a leak" false (verdict [| 1; 1; 1; 1; 0; 0 |]);
  match
    Server.handle_request (Server.create ())
      (P.request ~id:"f" ~problem:"flood" ~spec ~want_span:false ())
  with
  | { P.outcome = P.Solved s; _ } ->
    check_str "served the component" (P.digest_array Fun.id flooded) s.P.digest;
    check "valid is the checker's verdict" (verdict flooded) s.P.valid
  | _ -> Alcotest.fail "flood on an edge list failed"

let test_instance_cache_eviction () =
  let server =
    Server.create
      ~config:{ Server.default_config with Server.cache_slots = 1 }
      ()
  in
  let solve seed =
    match
      Server.handle_request server
        (P.request ~problem:"flood"
           ~spec:
             (P.Family
                { family = "random-tree"; n = 30; seed; a = 1; delta = 3 })
           ~want_span:false ())
    with
    | { P.outcome = P.Solved s; _ } -> s.P.cache_hit
    | _ -> Alcotest.fail "request failed"
  in
  check "A cold" false (solve 1);
  check "A warm" true (solve 1);
  check "B evicts A" false (solve 2);
  check "A cold again" false (solve 1);
  check "A warm again" true (solve 1)

(* ---------- snapshot reuse lives in the instance entry ---------- *)

let one_slot () =
  Server.create
    ~config:{ Server.default_config with Server.cache_slots = 1 }
    ()

let serve server ?(method_ = "transform") ?faults ?(n = 30) ~seed problem =
  match
    Server.handle_request server
      (P.request ~problem ~method_ ?faults
         ~spec:
           (P.Family { family = "random-tree"; n; seed; a = 1; delta = 3 })
         ~want_span:false ())
  with
  | { P.outcome = P.Solved s; _ } -> check "valid" true s.P.valid
  | _ -> Alcotest.failf "%s/%s on seed %d failed" problem method_ seed

let topo_counters server =
  let st = Server.stats server in
  (List.assoc "topo:cache_hit" st, List.assoc "topo:cache_miss" st)

(* With one cache slot, flood on a stream of distinct trees keeps one
   instance and its snapshot alive, not one per request: the heap after
   twelve floods exceeds the heap after the first by less than one
   n = 20,000 instance (3.4 MB). *)
let test_flood_heap_bounded () =
  let server = one_slot () in
  let live_mb () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
    /. 1048576.
  in
  serve server ~n:20_000 ~seed:1 "flood";
  let after_first = live_mb () in
  for seed = 2 to 12 do
    serve server ~n:20_000 ~seed "flood"
  done;
  let growth = live_mb () -. after_first in
  (* the server stays reachable past the measurement, so what it holds
     is counted *)
  check_int "one instance built per flood" 12
    (List.assoc "serve:cache_miss" (Server.stats server));
  if growth >= 3.4 then
    Alcotest.failf "live heap grew %.1f MB over 11 evicted instances" growth

let test_topo_counters () =
  let server = one_slot () in
  serve server ~seed:1 "flood";
  serve server ~seed:1 "flood";
  check "two floods on one instance: one hit, one miss" true
    (topo_counters server = (1, 1));
  (* an MIS request on another spec evicts the flooded instance without
     touching any snapshot; flooding it again compiles afresh *)
  serve server ~seed:2 "mis";
  check "mis moves neither counter" true (topo_counters server = (1, 1));
  serve server ~seed:1 "flood";
  check "the evicted instance misses again" true
    (topo_counters server = (1, 2));
  serve server ~method_:"chaos" ~faults:"seed=3;crash@2:1" ~seed:1 "flood";
  serve server ~method_:"chaos" ~seed:1 "mis";
  check "chaos moves neither counter" true (topo_counters server = (1, 2))

let test_topo_counters_per_server () =
  let first = Server.create () in
  serve first ~seed:1 "flood";
  let second = Server.create () in
  check "a new server starts at zero" true (topo_counters second = (0, 0));
  serve second ~seed:1 "flood";
  check "its first flood misses" true (topo_counters second = (0, 1));
  check "the first server keeps its own" true (topo_counters first = (0, 1))

(* ---------- the daemon as a subprocess ---------- *)

let daemon = "../bin/tree_local_serve.exe"

let with_daemon args f =
  let cmd = Printf.sprintf "%s %s" daemon args in
  let inc, out = Unix.open_process cmd in
  Fun.protect
    ~finally:(fun () -> ignore (Unix.close_process (inc, out)))
    (fun () -> f inc out)

let test_subprocess_roundtrip () =
  with_daemon "" (fun inc out ->
      output_string out (req_line ~id:"e2e" ());
      output_string out "\n{\"v\":1,\"id\":\"bye\",\"cmd\":\"shutdown\"}\n";
      flush out;
      let r1 = parse_resp (input_line inc) in
      let r2 = parse_resp (input_line inc) in
      check_str "request id echoed" "e2e" r1.P.rid;
      (match r1.P.outcome with
      | P.Solved s ->
        (* the daemon's digest equals an in-process one-shot: digests are
           process-independent *)
        let server = Server.create () in
        let local =
          match
            Server.handle_request server
              (P.request ~id:"local" ~problem:"flood"
                 ~spec:
                   (P.Family
                      { family = "random-tree"; n = 40; seed = 1; a = 1; delta = 3 })
                 ~want_span:false ())
          with
          | { P.outcome = P.Solved s; _ } -> s
          | _ -> Alcotest.fail "local run failed"
        in
        check_str "digest stable across processes" local.P.digest s.P.digest
      | _ -> Alcotest.fail "daemon did not solve");
      check "shutdown acked" true (r2.P.outcome = P.Pong);
      check "daemon exits after shutdown" true
        (match input_line inc with
        | exception End_of_file -> true
        | _ -> false))

(* A client that hangs up before reading its answer: the response write
   fails with EPIPE, which must end the serve loop like EOF — exit 0,
   no uncaught exception. *)
let test_subprocess_client_hangup () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_f = Filename.temp_file "tl_serve_err" ".txt" in
  let err_fd = Unix.openfile err_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process daemon [| daemon |] in_r out_w err_fd in
  List.iter Unix.close [ in_r; out_w; err_fd ];
  (* nobody will read the answer *)
  Unix.close out_r;
  let ping = "{\"v\":1,\"id\":\"a\",\"cmd\":\"ping\"}\n" in
  ignore (Unix.write_substring in_w ping 0 (String.length ping));
  Unix.close in_w;
  let _, status = Unix.waitpid [] pid in
  let ic = open_in_bin err_f in
  let err = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err_f;
  check "daemon exits 0" true (status = Unix.WEXITED 0);
  check "no uncaught exception" false (contains_sub err "uncaught exception")

(* Deterministic subprocess backpressure: the whole burst goes down the
   pipe in one write well under PIPE_BUF, so the daemon's greedy read
   phase sees all lines in a single admission cycle. *)
let test_subprocess_backpressure () =
  with_daemon "--depth 2" (fun inc out ->
      let burst =
        String.concat ""
          (List.init 6 (fun i ->
               req_line ~id:(Printf.sprintf "r%d" i) ~n:30 () ^ "\n"))
      in
      check "burst fits one atomic pipe write" true
        (String.length burst < 4096);
      output_string out burst;
      flush out;
      let resps = List.init 6 (fun _ -> parse_resp (input_line inc)) in
      let tally p = List.length (List.filter p resps) in
      check_int "exactly depth jobs served" 2
        (tally (fun r ->
             match r.P.outcome with P.Solved _ -> true | _ -> false));
      check_int "the overflow rejected" 4
        (tally (fun r ->
             match r.P.outcome with
             | P.Error (P.Rejected, _) -> true
             | _ -> false));
      check "responses in arrival order" true
        (List.map (fun r -> r.P.rid) resps
        = List.init 6 (Printf.sprintf "r%d"));
      output_string out "{\"v\":1,\"cmd\":\"shutdown\"}\n";
      flush out;
      ignore (input_line inc))

(* The observability controls through the real daemon: `metrics` returns
   a decodable tl_metrics = 1 snapshot whose serving counters and
   latency histogram agree with the requests just served (and with the
   `stats` control's own numbers), `tail` returns the flight recorder's
   view of the same burst. *)
let test_subprocess_metrics_and_tail () =
  with_daemon "" (fun inc out ->
      let served = 3 in
      for i = 1 to served do
        output_string out (req_line ~id:(Printf.sprintf "r%d" i) ~seed:i ());
        output_char out '\n'
      done;
      output_string out "{\"v\":1,\"id\":\"st\",\"cmd\":\"stats\"}\n";
      output_string out "{\"v\":1,\"id\":\"m\",\"cmd\":\"metrics\"}\n";
      output_string out "{\"v\":1,\"id\":\"t\",\"cmd\":\"tail\"}\n";
      output_string out "{\"v\":1,\"id\":\"bye\",\"cmd\":\"shutdown\"}\n";
      flush out;
      for i = 1 to served do
        match (parse_resp (input_line inc)).P.outcome with
        | P.Solved _ -> ()
        | _ -> Alcotest.failf "request %d not solved" i
      done;
      let stats =
        match (parse_resp (input_line inc)).P.outcome with
        | P.Stats_report kvs -> kvs
        | _ -> Alcotest.fail "stats control did not answer"
      in
      let snap =
        match (parse_resp (input_line inc)).P.outcome with
        | P.Metrics_report j -> (
          match Metrics.snapshot_of_json j with
          | Ok s -> s
          | Error msg -> Alcotest.fail ("snapshot did not decode: " ^ msg))
        | _ -> Alcotest.fail "metrics control did not answer"
      in
      let counter name =
        Option.value ~default:(-1) (List.assoc_opt name snap.Metrics.counters)
      in
      check_int "served counter" served (counter "serve_served_total");
      check_int "received counter" served (counter "serve_received_total");
      check_int "stats agrees with registry" (counter "serve_served_total")
        (Option.get (List.assoc_opt "served" stats));
      (* the aggregate latency histogram holds exactly one observation
         per served request *)
      (match List.assoc_opt "serve_request_seconds" snap.Metrics.histograms with
      | None -> Alcotest.fail "aggregate latency histogram missing"
      | Some h ->
        check_int "histogram count == served" served h.Metrics.h_count;
        check "latency sum positive" true (h.Metrics.h_sum > 0.));
      (* ...and the per-(problem, engine) labeled histogram exists *)
      check "labeled latency histogram" true
        (List.mem_assoc
           "serve_request_seconds{problem=\"flood\",engine=\"seq\"}"
           snap.Metrics.histograms);
      (* the flight recorder saw the whole burst, in order, all ok *)
      let events =
        match (parse_resp (input_line inc)).P.outcome with
        | P.Tail_report js -> List.filter_map Metrics.Recorder.event_of_json js
        | _ -> Alcotest.fail "tail control did not answer"
      in
      check_int "no event lost in decode" (List.length events)
        (List.length
           (List.filter
              (fun e -> e.Metrics.Recorder.kind = "request")
              events));
      check_int "one event per request" served (List.length events);
      check "all ok" true
        (List.for_all (fun e -> e.Metrics.Recorder.outcome = "ok") events);
      ignore (input_line inc))

(* Socket-path claiming: a stale socket file is replaced, a path a
   running daemon answers on is refused without unlinking it, and a
   non-socket file is never touched. *)

let connect_probe path =
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect s (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let wait_for_socket path =
  let rec go tries =
    if tries = 0 then Alcotest.fail "daemon never came up on its socket"
    else if not (connect_probe path) then begin
      Unix.sleepf 0.02;
      go (tries - 1)
    end
  in
  go 250

let spawn_socket_daemon path =
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process daemon
      [| daemon; "--socket"; path |]
      dev_null dev_null dev_null
  in
  Unix.close dev_null;
  pid

let test_socket_path_claiming () =
  (* a regular file at the path is refused and left alone *)
  let file = Filename.temp_file "tl_serve_not_a_socket" "" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "%s --socket %s 2>/dev/null" daemon
             (Filename.quote file))
      in
      check "non-socket path refused" true (rc <> 0);
      check "non-socket file untouched" true (Sys.file_exists file));
  let path = Filename.temp_file "tl_serve" ".sock" in
  Unix.unlink path;
  (* leave a stale socket behind: bound once, nobody accepting *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  let pid = spawn_socket_daemon path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* the daemon replaced the stale socket and accepts *)
      wait_for_socket path;
      (* a second daemon on the live path refuses, promptly *)
      let rc =
        Sys.command
          (Printf.sprintf "%s --socket %s 2>/dev/null" daemon
             (Filename.quote path))
      in
      check "second daemon refused" true (rc <> 0);
      (* ... and did not unlink the live daemon's socket: it still answers *)
      let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect s (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr s
      and oc = Unix.out_channel_of_descr s in
      output_string oc "{\"v\":1,\"id\":\"bye\",\"cmd\":\"shutdown\"}\n";
      flush oc;
      let r = parse_resp (input_line ic) in
      check "live daemon still answers" true (r.P.outcome = P.Pong);
      (try Unix.close s with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      check "socket removed on shutdown" false (Sys.file_exists path))

let () =
  Alcotest.run "tl_serve"
    [
      ("jobq", [ Alcotest.test_case "bounded fifo" `Quick test_jobq_basics ]);
      ( "protocol",
        [
          Alcotest.test_case "request round-trip + defaults" `Quick
            test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "edge-list spec keys" `Quick test_spec_key_edges;
          Alcotest.test_case "knob validation" `Quick test_resolve_knobs;
        ] );
      ( "cycle",
        [
          Alcotest.test_case "batching + arrival order" `Quick
            test_cycle_batching_and_order;
          Alcotest.test_case "backpressure rejects, never hangs" `Quick
            test_cycle_backpressure;
          Alcotest.test_case "errors and controls" `Quick
            test_cycle_errors_and_controls;
          Alcotest.test_case "per-request span report" `Quick
            test_span_report_on_request;
          Alcotest.test_case "shard bound on the built graph" `Quick
            test_shard_vs_built_n;
          Alcotest.test_case "instance cache eviction" `Quick
            test_instance_cache_eviction;
          Alcotest.test_case "flood heap bounded by cache_slots" `Quick
            test_flood_heap_bounded;
          Alcotest.test_case "snapshot reuse counters" `Quick
            test_topo_counters;
          Alcotest.test_case "snapshot counters per server" `Quick
            test_topo_counters_per_server;
          Alcotest.test_case "flood validity is checked" `Quick
            test_flood_valid_is_checked;
          Alcotest.test_case "unknown family -> bad_request" `Quick
            test_unknown_family_is_bad_request;
        ] );
      ("differential", qsuite [ prop_serve_differential ]);
      ( "daemon",
        [
          Alcotest.test_case "stdio round-trip + shutdown" `Quick
            test_subprocess_roundtrip;
          Alcotest.test_case "client hang-up ends the loop cleanly" `Quick
            test_subprocess_client_hangup;
          Alcotest.test_case "burst backpressure" `Quick
            test_subprocess_backpressure;
          Alcotest.test_case "metrics + tail controls" `Quick
            test_subprocess_metrics_and_tail;
          Alcotest.test_case "socket-path claiming" `Quick
            test_socket_path_claiming;
        ] );
    ]
