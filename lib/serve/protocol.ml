module Json = Tl_obs.Json
module Graph = Tl_graph.Graph
module Props = Tl_graph.Props
module Labeling = Tl_problems.Labeling
module Nec = Tl_problems.Nec
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Pipeline = Tl_core.Pipeline
module Baseline = Tl_core.Baseline

let version = 1

(* FNV-1a, 64-bit: the digest primitive shared by the solution digests
   below and the Edges spec key (which must fold every endpoint —
   Hashtbl.hash only looks at a bounded prefix of a list). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_fold h x = Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

(* ---------- requests ---------- *)

type graph_spec =
  | Family of { family : string; n : int; seed : int; a : int; delta : int }
  | Edges of { n : int; edges : (int * int) list; seed : int }

let spec_key = function
  | Family { family; n; seed; a; delta } ->
    Printf.sprintf "family:%s:%d:%d:%d:%d" family n seed a delta
  | Edges { n; edges; seed } ->
    (* explicit edge lists are digested, not inlined, to keep keys
       short: FNV-1a over every endpoint plus the edge count, so lists
       sharing a prefix (or a proper prefix of another) key apart *)
    let h =
      List.fold_left (fun h (u, v) -> fnv_fold (fnv_fold h u) v) fnv_offset
        edges
    in
    Printf.sprintf "edges:%d:%d:%d:%016Lx" n seed (List.length edges) h

let spec_n = function Family { n; _ } | Edges { n; _ } -> n

module Gen = Tl_graph.Gen

let square_side n = max 1 (int_of_float (Float.sqrt (float_of_int n)))

let families =
  [
    ("random-tree", fun ~n ~seed ~a:_ ~delta:_ -> Gen.random_tree ~n ~seed);
    ( "balanced-tree",
      fun ~n ~seed:_ ~a:_ ~delta -> Gen.balanced_regular_tree ~delta ~n );
    ("path", fun ~n ~seed:_ ~a:_ ~delta:_ -> Gen.path n);
    ("star", fun ~n ~seed:_ ~a:_ ~delta:_ -> Gen.star n);
    ( "caterpillar",
      fun ~n ~seed:_ ~a:_ ~delta:_ -> Gen.caterpillar ~spine:(max 1 (n / 4)) ~legs:3 );
    ("power-law", fun ~n ~seed ~a:_ ~delta:_ -> Gen.power_law_tree ~n ~seed);
    ( "forest-union",
      fun ~n ~seed ~a ~delta:_ -> Gen.forest_union ~n ~arboricity:a ~seed );
    ( "planar",
      fun ~n ~seed:_ ~a:_ ~delta:_ -> Gen.triangulated_grid (max 2 (square_side n)) );
    ( "grid",
      fun ~n ~seed:_ ~a:_ ~delta:_ ->
        let side = square_side n in
        Gen.grid side side );
  ]

let family_names = List.map fst families

let unknown_family family =
  Printf.sprintf "unknown family %S (known: %s)" family
    (String.concat ", " family_names)

let build_graph = function
  | Edges { n; edges; _ } -> Graph.of_edges ~n edges
  | Family { family; n; seed; a; delta } -> (
    match List.assoc_opt family families with
    | Some build -> build ~n ~seed ~a ~delta
    | None -> invalid_arg (unknown_family family))

type request = {
  id : string;
  problem : string;
  method_ : string;
  spec : graph_spec;
  k : int option;
  engine : string;
  pool : int;
  want_span : bool;
  faults : string option;
}

let default_spec =
  Family { family = "random-tree"; n = 1000; seed = 1; a = 1; delta = 8 }

let request ?(id = "") ?(problem = "mis") ?(method_ = "transform")
    ?(spec = default_spec) ?k ?(engine = "seq") ?(pool = 1) ?(want_span = true)
    ?faults () =
  { id; problem; method_; spec; k; engine; pool; want_span; faults }

type control = Ping | Stats | Shutdown | Metrics | Tail

type incoming = Request of request | Control of string * control

(* ---------- json helpers ---------- *)

let str_of key ~default j =
  Option.value ~default (Option.bind (Json.member key j) Json.to_str)

let int_of key ~default j =
  Option.value ~default (Option.bind (Json.member key j) Json.to_int)

let bool_of key ~default j =
  match Json.member key j with Some (Json.Bool b) -> b | _ -> default

let spec_of_json j =
  match Json.member "edges" j with
  | Some edges_j -> (
    let n = int_of "n" ~default:0 j and seed = int_of "seed" ~default:1 j in
    let base_error () = Error "graph.edges must be an array of [u,v] pairs" in
    let pair = function
      | Json.Arr [ u; v ] -> (
        match (Json.to_int u, Json.to_int v) with
        | Some u, Some v -> Ok (u, v)
        | _ -> base_error ())
      | _ -> base_error ()
    in
    match Json.to_list edges_j with
    | None -> Error "graph.edges must be an array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok (Edges { n; edges = List.rev acc; seed })
        | e :: rest -> (
          match pair e with Ok p -> go (p :: acc) rest | Error _ as err -> err)
      in
      go [] items)
  | None ->
    let family = str_of "family" ~default:"random-tree" j in
    if not (List.mem_assoc family families) then Error (unknown_family family)
    else
      Ok
        (Family
           {
             family;
             n = int_of "n" ~default:1000 j;
             seed = int_of "seed" ~default:1 j;
             a = int_of "a" ~default:1 j;
             delta = int_of "delta" ~default:8 j;
           })

let incoming_of_json j =
  match j with
  | Json.Obj _ -> (
    let v = int_of "v" ~default:(-1) j in
    if v <> version then
      Error
        (Printf.sprintf "unsupported protocol version %d (this daemon speaks v%d)"
           v version)
    else
      let id = str_of "id" ~default:"" j in
      match Option.bind (Json.member "cmd" j) Json.to_str with
      | Some "ping" -> Ok (Control (id, Ping))
      | Some "stats" -> Ok (Control (id, Stats))
      | Some "shutdown" -> Ok (Control (id, Shutdown))
      | Some "metrics" -> Ok (Control (id, Metrics))
      | Some "tail" -> Ok (Control (id, Tail))
      | Some other -> Error (Printf.sprintf "unknown cmd %S" other)
      | None -> (
        let spec_j =
          Option.value ~default:(Json.Obj []) (Json.member "graph" j)
        in
        match spec_of_json spec_j with
        | Error msg -> Error msg
        | Ok spec ->
          Ok
            (Request
               {
                 id;
                 problem = str_of "problem" ~default:"mis" j;
                 method_ = str_of "method" ~default:"transform" j;
                 spec;
                 k = Option.bind (Json.member "k" j) Json.to_int;
                 engine = str_of "engine" ~default:"seq" j;
                 pool = int_of "pool" ~default:1 j;
                 want_span = bool_of "span" ~default:true j;
                 faults = Option.bind (Json.member "faults" j) Json.to_str;
               })))
  | _ -> Error "a request must be a JSON object"

let spec_to_json = function
  | Family { family; n; seed; a; delta } ->
    Json.Obj
      [
        ("family", Json.Str family);
        ("n", Json.Num (float_of_int n));
        ("seed", Json.Num (float_of_int seed));
        ("a", Json.Num (float_of_int a));
        ("delta", Json.Num (float_of_int delta));
      ]
  | Edges { n; edges; seed } ->
    Json.Obj
      [
        ("n", Json.Num (float_of_int n));
        ( "edges",
          Json.Arr
            (List.map
               (fun (u, v) ->
                 Json.Arr
                   [ Json.Num (float_of_int u); Json.Num (float_of_int v) ])
               edges) );
        ("seed", Json.Num (float_of_int seed));
      ]

let request_to_json r =
  Json.Obj
    ([
       ("v", Json.Num (float_of_int version));
       ("id", Json.Str r.id);
       ("problem", Json.Str r.problem);
       ("method", Json.Str r.method_);
       ("graph", spec_to_json r.spec);
       ("engine", Json.Str r.engine);
       ("pool", Json.Num (float_of_int r.pool));
     ]
    @ (match r.k with
      | None -> []
      | Some k -> [ ("k", Json.Num (float_of_int k)) ])
    @ [ ("span", Json.Bool r.want_span) ]
    @
    match r.faults with
    | None -> []
    | Some f -> [ ("faults", Json.Str f) ])

let control_to_json ?(id = "") c =
  Json.Obj
    [
      ("v", Json.Num (float_of_int version));
      ("id", Json.Str id);
      ( "cmd",
        Json.Str
          (match c with
          | Ping -> "ping"
          | Stats -> "stats"
          | Shutdown -> "shutdown"
          | Metrics -> "metrics"
          | Tail -> "tail") );
    ]

(* ---------- responses ---------- *)

type error_kind = Rejected | Bad_request | Failed

let error_kind_to_string = function
  | Rejected -> "rejected"
  | Bad_request -> "bad_request"
  | Failed -> "failed"

let error_kind_of_string = function
  | "rejected" -> Some Rejected
  | "bad_request" -> Some Bad_request
  | "failed" -> Some Failed
  | _ -> None

type solved = {
  digest : string;
  total_rounds : int;
  ledger : (string * int) list;
  valid : bool;
  engine_rounds : int;
  cache_hit : bool;
  span : Json.t option;
}

type outcome =
  | Solved of solved
  | Pong
  | Stats_report of (string * int) list
  | Metrics_report of Json.t  (** tl_metrics=1 snapshot, passed verbatim *)
  | Tail_report of Json.t list  (** flight-recorder events, oldest first *)
  | Error of error_kind * string

type response = { rid : string; outcome : outcome }

let response_to_json { rid; outcome } =
  let base ok = [ ("v", Json.Num (float_of_int version));
                  ("id", Json.Str rid); ("ok", Json.Bool ok) ] in
  match outcome with
  | Solved s ->
    Json.Obj
      (base true
      @ [
          ("digest", Json.Str s.digest);
          ("rounds", Json.Num (float_of_int s.total_rounds));
          ("valid", Json.Bool s.valid);
          ("engine_rounds", Json.Num (float_of_int s.engine_rounds));
          ("cache_hit", Json.Bool s.cache_hit);
          ( "ledger",
            Json.Obj
              (List.map
                 (fun (phase, r) -> (phase, Json.Num (float_of_int r)))
                 s.ledger) );
        ]
      @ match s.span with None -> [] | Some sp -> [ ("span", sp) ])
  | Pong -> Json.Obj (base true @ [ ("pong", Json.Bool true) ])
  | Stats_report kvs ->
    Json.Obj
      (base true
      @ [
          ( "stats",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) kvs) );
        ])
  | Metrics_report snap -> Json.Obj (base true @ [ ("metrics", snap) ])
  | Tail_report events ->
    Json.Obj (base true @ [ ("tail", Json.Arr events) ])
  | Error (kind, msg) ->
    Json.Obj
      (base false
      @ [
          ( "error",
            Json.Obj
              [
                ("kind", Json.Str (error_kind_to_string kind));
                ("msg", Json.Str msg);
              ] );
        ])

let response_of_json j =
  match j with
  | Json.Obj _ -> (
    let v = int_of "v" ~default:(-1) j in
    if v <> version then
      Stdlib.Error (Printf.sprintf "unsupported version %d" v)
    else
      let rid = str_of "id" ~default:"" j in
      match Json.member "ok" j with
      | Some (Json.Bool false) -> (
        match Json.member "error" j with
        | Some err -> (
          let kind_s = str_of "kind" ~default:"failed" err in
          let msg = str_of "msg" ~default:"" err in
          match error_kind_of_string kind_s with
          | Some kind -> Ok { rid; outcome = Error (kind, msg) }
          | None ->
            Stdlib.Error (Printf.sprintf "unknown error kind %S" kind_s))
        | None -> Stdlib.Error "ok=false response without an error object")
      | Some (Json.Bool true) ->
        if bool_of "pong" ~default:false j then Ok { rid; outcome = Pong }
        else (
          match Json.member "stats" j with
          | Some stats_j -> (
            match Json.to_assoc stats_j with
            | None -> Stdlib.Error "stats must be an object"
            | Some kvs ->
              let ints =
                List.filter_map
                  (fun (k, v) ->
                    Option.map (fun i -> (k, i)) (Json.to_int v))
                  kvs
              in
              Ok { rid; outcome = Stats_report ints })
          | None ->
          match Json.member "metrics" j with
          | Some snap -> Ok { rid; outcome = Metrics_report snap }
          | None -> (
          match Json.member "tail" j with
          | Some tail_j -> (
            match Json.to_list tail_j with
            | None -> Stdlib.Error "tail must be an array"
            | Some events -> Ok { rid; outcome = Tail_report events })
          | None -> (
            match
              ( Option.bind (Json.member "digest" j) Json.to_str,
                Option.bind (Json.member "rounds" j) Json.to_int )
            with
            | Some digest, Some total_rounds ->
              let ledger =
                Option.bind (Json.member "ledger" j) Json.to_assoc
                |> Option.value ~default:[]
                |> List.filter_map (fun (k, v) ->
                       Option.map (fun i -> (k, i)) (Json.to_int v))
              in
              Ok
                {
                  rid;
                  outcome =
                    Solved
                      {
                        digest;
                        total_rounds;
                        ledger;
                        valid = bool_of "valid" ~default:false j;
                        engine_rounds = int_of "engine_rounds" ~default:0 j;
                        cache_hit = bool_of "cache_hit" ~default:false j;
                        span = Json.member "span" j;
                      };
                }
            | _ -> Stdlib.Error "solved response missing digest/rounds")))
      | _ -> Stdlib.Error "response missing ok field")
  | _ -> Stdlib.Error "a response must be a JSON object"

(* ---------- digests ---------- *)

let digest_array f arr =
  Printf.sprintf "%016Lx"
    (Array.fold_left (fun h x -> fnv_fold h (f x)) fnv_offset arr)

let digest_labeling ~graph l =
  let h = ref fnv_offset in
  for he = 0 to Graph.n_half_edges graph - 1 do
    h := fnv_fold !h (Hashtbl.hash (Labeling.get l he))
  done;
  Printf.sprintf "%016Lx" !h

(* ---------- workloads ---------- *)

type solution = {
  digest : string;
  rounds : int;
  ledger : (string * int) list;
  k : int;
  valid : bool;
  violations : string list;
}

let of_report ~graph (r : _ Pipeline.report) =
  {
    digest = digest_labeling ~graph r.Pipeline.labeling;
    rounds = r.Pipeline.total_rounds;
    ledger = Round_cost.phases r.Pipeline.cost;
    k = r.Pipeline.k;
    valid = r.Pipeline.valid;
    violations =
      List.filteri (fun i _ -> i < 5) r.Pipeline.violations
      |> List.map (Format.asprintf "%a" Nec.pp_violation);
  }

let of_raw ~graph ~problem (labeling, cost) =
  {
    digest = digest_labeling ~graph labeling;
    rounds = Round_cost.total cost;
    ledger = Round_cost.phases cost;
    k = 0;
    valid = Nec.is_valid problem graph labeling;
    violations = [];
  }

type pipeline = {
  title : string;
  solve :
    graph:Graph.t -> ids:int array -> a:int -> k:int option -> workers:int ->
    (solution, string) result;
}

type workload = Solve of pipeline | Flood | Chaos

let pipeline ?tree_only title run =
  let solve ~graph ~ids ~a ~k ~workers =
    match tree_only with
    | Some msg when not (Props.is_tree graph) -> Stdlib.Error msg
    | _ -> Ok (run ~graph ~ids ~a ~k ~workers)
  in
  Solve { title; solve }

let theorem12 name = name ^ " via Theorem 12 needs a tree instance"
let baseline name = "the baseline " ^ name ^ " needs a tree instance"

let workloads =
  [
    ( ("mis", "transform"),
      pipeline ~tree_only:(theorem12 "mis") "MIS (Theorem 12)"
        (fun ~graph ~ids ~a:_ ~k ~workers ->
          of_report ~graph
            (Pipeline.mis_on_tree ~workers ?k ~tree:graph ~ids ())) );
    ( ("coloring", "transform"),
      pipeline ~tree_only:(theorem12 "coloring") "(deg+1)-coloring (Theorem 12)"
        (fun ~graph ~ids ~a:_ ~k ~workers ->
          of_report ~graph
            (Pipeline.coloring_on_tree ~workers ?k ~tree:graph ~ids ())) );
    ( ("matching", "transform"),
      pipeline "maximal matching (Theorem 15)"
        (fun ~graph ~ids ~a ~k ~workers ->
          of_report ~graph
            (Pipeline.matching_on_graph ~workers ?k ~graph ~a ~ids ())) );
    ( ("edge-coloring", "transform"),
      pipeline "(edge-degree+1)-edge coloring (Theorem 15)"
        (fun ~graph ~ids ~a ~k ~workers ->
          of_report ~graph
            (Pipeline.edge_coloring_on_graph ~workers ?k ~graph ~a ~ids ())) );
    ( ("mis", "direct"),
      pipeline "MIS (direct)" (fun ~graph ~ids ~a:_ ~k:_ ~workers:_ ->
          of_report ~graph (Pipeline.mis_direct ~graph ~ids)) );
    ( ("coloring", "direct"),
      pipeline "(deg+1)-coloring (direct)"
        (fun ~graph ~ids ~a:_ ~k:_ ~workers:_ ->
          of_report ~graph (Pipeline.coloring_direct ~graph ~ids)) );
    ( ("matching", "direct"),
      pipeline "maximal matching (direct)"
        (fun ~graph ~ids ~a:_ ~k:_ ~workers:_ ->
          of_report ~graph (Pipeline.matching_direct ~graph ~ids)) );
    ( ("edge-coloring", "direct"),
      pipeline "(edge-degree+1)-edge coloring (direct)"
        (fun ~graph ~ids ~a:_ ~k:_ ~workers:_ ->
          of_report ~graph (Pipeline.edge_coloring_direct ~graph ~ids)) );
    ( ("matching", "baseline"),
      pipeline ~tree_only:(baseline "matching")
        "maximal matching (BE13-style baseline)"
        (fun ~graph ~ids ~a:_ ~k:_ ~workers:_ ->
          of_raw ~graph ~problem:Tl_problems.Matching.problem
            (Baseline.matching_on_tree ~tree:graph ~ids)) );
    ( ("edge-coloring", "baseline"),
      pipeline ~tree_only:(baseline "edge-coloring")
        "(edge-degree+1)-edge coloring (BE13-style baseline)"
        (fun ~graph ~ids ~a:_ ~k:_ ~workers:_ ->
          of_raw ~graph ~problem:Tl_problems.Edge_coloring.problem
            (Baseline.edge_coloring_on_tree ~tree:graph ~ids)) );
    (("flood", "transform"), Flood);
    (("flood", "direct"), Flood);
    (("flood", "baseline"), Flood);
    (("flood", "chaos"), Chaos);
    (("mis", "chaos"), Chaos);
  ]

let find_workload ~problem ~method_ =
  match List.assoc_opt (problem, method_) workloads with
  | Some w -> Ok w
  | None ->
    if List.exists (fun ((p, _), _) -> p = problem) workloads then
      Stdlib.Error
        (Printf.sprintf "problem %S has no method %S" problem method_)
    else Stdlib.Error (Printf.sprintf "unknown problem %S" problem)

(* ---------- knob validation ---------- *)

let invalid_engine engine =
  Printf.sprintf "invalid engine %S (expected seq, par:N or proc:N)" engine

let resolve_knobs ~engine ~pool ~n =
  if n < 1 then
    Stdlib.Error (Printf.sprintf "instance size %d is not positive" n)
  else if pool < 1 || pool > 64 then
    Stdlib.Error
      (Printf.sprintf "invalid pool size %d (expected 1 <= N <= 64)" pool)
  else
    match Engine.mode_of_string engine with
    | exception Invalid_argument _ -> Stdlib.Error (invalid_engine engine)
    | Engine.Proc p when p > n ->
      Stdlib.Error
        (Printf.sprintf
           "proc count %d exceeds the instance size n = %d (each worker \
            needs at least one node)"
           p n)
    | m -> Ok m
