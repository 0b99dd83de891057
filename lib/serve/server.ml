module Json = Tl_obs.Json
module Span = Tl_obs.Span
module Report = Tl_obs.Report
module Metrics = Tl_obs.Metrics
module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Topology = Tl_engine.Topology
module Trace = Tl_engine.Trace
module Proc = Tl_proc.Coordinator
module P = Protocol

type config = { depth : int; cache_slots : int; max_n : int }

let default_config = { depth = 64; cache_slots = 32; max_n = 2_000_000 }

let now = Unix.gettimeofday

(* Serving counters live in the process-wide metrics registry (the
   [metrics] control scrapes them); each server value remembers the
   registry values at creation and reports deltas, so the [stats]
   control keeps its per-server semantics (and its exact JSON shape)
   while every increment feeds the registry. *)
let m_received = Metrics.counter "serve_received_total"
let m_served = Metrics.counter "serve_served_total"
let m_rejected = Metrics.counter "serve_rejected_total"
let m_errors = Metrics.counter "serve_errors_total"
let m_batches = Metrics.counter "serve_batches_total"
let m_cache_hits = Metrics.counter "serve_cache_hits_total"
let m_cache_misses = Metrics.counter "serve_cache_misses_total"
let g_jobq = Metrics.gauge "serve_jobq_depth"
let g_max_batch = Metrics.gauge "serve_max_batch"
let h_latency = Metrics.histogram "serve_request_seconds"
let h_batch = Metrics.histogram "serve_batch_size"

type base = {
  b_received : int;
  b_served : int;
  b_rejected : int;
  b_errors : int;
  b_batches : int;
  b_cache_hits : int;
  b_cache_misses : int;
}

(* One cached instance per spec key. The semi-graph and its compiled
   snapshot are lazy so pipeline problems (which build their own
   internal views) never pay for them; served flood forces [topo] once
   per instance, and warm flood requests reuse it. The entry is the only
   holder of the snapshot, so evicting it frees the snapshot with the
   graph: [cache_slots] bounds what the daemon keeps. *)
type instance = {
  graph : Graph.t;
  ids : int array;
  sg : Semi_graph.t Lazy.t;
  topo : Topology.t Lazy.t;
}

type t = {
  cfg : config;
  queue : (int * P.request) Jobq.t;
  cache : (string, instance) Hashtbl.t;
  cache_order : string Queue.t;
  base : base;
  mutable max_batch : int;  (* a maximum, not a counter: kept per server *)
  (* snapshot reuse across requests, per server like [max_batch] *)
  mutable topo_hits : int;
  mutable topo_misses : int;
  mutable shutdown : bool;
}

let create ?(config = default_config) () =
  if config.cache_slots < 0 then invalid_arg "Server.create: cache_slots < 0";
  if config.max_n < 1 then invalid_arg "Server.create: max_n < 1";
  (* every daemon turns the registry (and the engine bridge) on: the
     metrics control must see live engine/proc/pool counters too *)
  Metrics.enable ();
  {
    cfg = config;
    queue = Jobq.create ~depth:config.depth;
    cache = Hashtbl.create 64;
    cache_order = Queue.create ();
    base =
      {
        b_received = Metrics.counter_value m_received;
        b_served = Metrics.counter_value m_served;
        b_rejected = Metrics.counter_value m_rejected;
        b_errors = Metrics.counter_value m_errors;
        b_batches = Metrics.counter_value m_batches;
        b_cache_hits = Metrics.counter_value m_cache_hits;
        b_cache_misses = Metrics.counter_value m_cache_misses;
      };
    max_batch = 0;
    topo_hits = 0;
    topo_misses = 0;
    shutdown = false;
  }

let config t = t.cfg
let shutdown_requested t = t.shutdown

let stats t =
  [
    ("received", Metrics.counter_value m_received - t.base.b_received);
    ("served", Metrics.counter_value m_served - t.base.b_served);
    ("rejected", Metrics.counter_value m_rejected - t.base.b_rejected);
    ("errors", Metrics.counter_value m_errors - t.base.b_errors);
    ("batches", Metrics.counter_value m_batches - t.base.b_batches);
    ("max_batch", t.max_batch);
    ("queue_depth", t.cfg.depth);
    ("serve:cache_hit", Metrics.counter_value m_cache_hits - t.base.b_cache_hits);
    ( "serve:cache_miss",
      Metrics.counter_value m_cache_misses - t.base.b_cache_misses );
    ("topo:cache_hit", t.topo_hits);
    ("topo:cache_miss", t.topo_misses);
  ]

(* ---------- instances ---------- *)

(* The family table lives in Protocol, shared with the CLI, so a daemon
   request and a one-shot CLI run over the same spec see the same graph. *)
let build_instance spec =
  let graph = P.build_graph spec in
  let seed =
    match spec with P.Family { seed; _ } | P.Edges { seed; _ } -> seed
  in
  (* same ID derivation as the CLI: permuted on seed + 1 *)
  let ids = Ids.permuted ~n:(Graph.n_nodes graph) ~seed:(seed + 1) in
  let sg = lazy (Semi_graph.of_graph graph) in
  { graph; ids; sg; topo = lazy (Topology.compile (Lazy.force sg)) }

(* FIFO-bounded lookup; counts a hit/miss in the server stats and
   returns whether this call was served from cache. *)
let instance t spec =
  let key = P.spec_key spec in
  match Hashtbl.find_opt t.cache key with
  | Some inst ->
    Metrics.incr m_cache_hits 1;
    (inst, true)
  | None ->
    Metrics.incr m_cache_misses 1;
    let inst = build_instance spec in
    if t.cfg.cache_slots > 0 then begin
      while Queue.length t.cache_order >= t.cfg.cache_slots do
        Hashtbl.remove t.cache (Queue.pop t.cache_order)
      done;
      Hashtbl.add t.cache key inst;
      Queue.push key t.cache_order
    end;
    (inst, false)

(* ---------- validation ---------- *)

(* The daemon accepts the inline fault-spec forms only (compact grammar
   or inline JSON) — never a client-named file path. *)
let parse_faults = function
  | None -> Ok Tl_fault.Schedule.empty
  | Some s ->
    if String.length s > 0 && s.[0] = '{' then (
      match Json.parse s with
      | j -> Tl_fault.Schedule.of_json j
      | exception Json.Parse_error msg -> Error ("faults: " ^ msg))
    else Tl_fault.Schedule.of_spec s

let validate t (r : P.request) =
  let n = P.spec_n r.spec in
  match P.find_workload ~problem:r.problem ~method_:r.method_ with
  | Error msg -> Error msg
  | Ok workload -> (
    if n > t.cfg.max_n then
      Error
        (Printf.sprintf "instance size %d exceeds the admission limit %d" n
           t.cfg.max_n)
    else
      match
        if workload = P.Chaos then Result.map ignore (parse_faults r.faults)
        else Ok ()
      with
      | Error msg -> Error msg
      | Ok () ->
        Result.map (fun mode -> (workload, mode))
          (P.resolve_knobs ~engine:r.engine ~pool:r.pool ~n))

(* ---------- execution ---------- *)

(* Collect every engine trace of [f] (chaining to any outer sink) to
   report the measured engine rounds per request. *)
let with_trace_collector f =
  let traces = ref [] in
  let saved = !Engine.trace_sink in
  Engine.trace_sink :=
    Some
      (fun tr ->
        traces := tr :: !traces;
        match saved with Some outer -> outer tr | None -> ());
  Fun.protect
    ~finally:(fun () -> Engine.trace_sink := saved)
    (fun () ->
      let result = f () in
      (result, List.rev !traces))

(* The instance's snapshot, counting whether an earlier request had
   already compiled it. *)
let snapshot t inst =
  if Lazy.is_val inst.topo then t.topo_hits <- t.topo_hits + 1
  else t.topo_misses <- t.topo_misses + 1;
  Lazy.force inst.topo

(* Flooding to a fixed point from node 0 — the flat flood kernel,
   served straight off the instance's snapshot. The verdict is Repair's
   O(n + m) checker: exactly node 0's component is flooded. *)
let flood t ~mode inst =
  let sg = Lazy.force inst.sg in
  let topo = snapshot t inst in
  let n = Graph.n_nodes inst.graph in
  let tr = Trace.create ~label:"serve:flood" () in
  let o =
    Proc.run_kernel ~mode ~trace:tr ~topo
      ~kernel_for:(Proc.Kernels.flood ())
      ~stop:(Engine.Stable (n + 1)) ()
  in
  Span.add_trace tr;
  let cost = Round_cost.create () in
  Round_cost.charge cost "flood" o.Flat.rounds;
  (* one word per node: the slab is the 0/1 labeling *)
  let labels = o.Flat.slab in
  {
    P.digest = P.digest_array Fun.id labels;
    rounds = o.Flat.rounds;
    ledger = Round_cost.phases cost;
    k = 0;
    valid = Tl_fault.Repair.check_flood ~sg ~source:0 ~labels;
    violations = [];
  }

(* A chaos run builds its own presence-masked views over the instance
   graph (crashes shrink them in place), so it must never touch the
   cached [inst.sg] or [inst.topo] — warm flood requests keep their
   snapshot. *)
let chaos (r : P.request) ~mode inst =
  let schedule =
    match parse_faults r.faults with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let problem =
    match r.problem with
    | "flood" -> Tl_fault.Chaos.Flood { source = 0 }
    | _ -> Tl_fault.Chaos.Mis { ids = inst.ids }
  in
  let rep = Tl_fault.Chaos.run ~mode ~graph:inst.graph ~problem ~schedule () in
  Span.add_counter "fault:crashes" rep.Tl_fault.Chaos.crashes;
  Span.add_counter "fault:recoveries" rep.Tl_fault.Chaos.recoveries;
  Span.add_counter "fault:drops" rep.Tl_fault.Chaos.drops;
  Span.add_counter "fault:repairs" rep.Tl_fault.Chaos.repairs;
  Span.add_counter "fault:relabeled" rep.Tl_fault.Chaos.relabeled;
  {
    P.digest = Printf.sprintf "%016Lx" rep.Tl_fault.Chaos.digest;
    rounds = rep.Tl_fault.Chaos.rounds;
    ledger =
      [
        ("chaos", rep.Tl_fault.Chaos.rounds);
        ("repair", rep.Tl_fault.Chaos.repairs);
      ];
    k = 0;
    valid = rep.Tl_fault.Chaos.valid;
    violations = [];
  }

let dispatch t (r : P.request) ~workload ~mode inst =
  match workload with
  | P.Flood -> flood t ~mode inst
  | P.Chaos -> chaos r ~mode inst
  | P.Solve p -> (
    let a = match r.spec with P.Family { a; _ } -> a | P.Edges _ -> 1 in
    match
      p.P.solve ~graph:inst.graph ~ids:inst.ids ~a ~k:r.k ~workers:r.pool
    with
    | Ok s -> s
    | Error msg -> failwith msg)

let error_message = function
  | Failure msg -> msg
  | Invalid_argument msg -> msg
  | e -> Printexc.to_string e

(* Raised by exec when a post-build admission check fails; answered as
   a bad_request, not a generic failure. *)
exception Inadmissible of string

(* Execute one validated request under its knobs, inside a per-request
   span whose report (phases, round charges, engine child spans) goes
   back to the client on demand. *)
let exec t (r : P.request) ~workload ~mode =
  let inst, cache_hit = instance t r.spec in
  (* grid/planar/caterpillar build close to — not exactly — the spec's
     n, so the proc bound admitted against the declared n must be
     re-checked against the graph that was actually built *)
  (match mode with
  | Engine.Proc p when p > Graph.n_nodes inst.graph ->
    raise
      (Inadmissible
         (Printf.sprintf
            "proc count %d exceeds the built instance size %d (the spec's \
             n = %d is approximate for this family)"
            p (Graph.n_nodes inst.graph) (P.spec_n r.spec)))
  | _ -> ());
  let (solution, traces), span =
    Span.run "serve:request" (fun () ->
        Span.set_attr "problem" r.problem;
        Span.set_attr "method" r.method_;
        Span.set_attr "engine" (Engine.mode_to_string mode);
        Span.set_attr "pool" (string_of_int r.pool);
        Span.set_attr "spec" (P.spec_key r.spec);
        Span.add_counter "serve:cache_hit" (if cache_hit then 1 else 0);
        Span.add_counter "serve:cache_miss" (if cache_hit then 0 else 1);
        with_trace_collector (fun () -> dispatch t r ~workload ~mode inst))
  in
  let engine_rounds =
    List.fold_left (fun acc tr -> acc + (Trace.metrics tr).Trace.rounds) 0
      traces
  in
  {
    P.digest = solution.P.digest;
    total_rounds = solution.P.rounds;
    ledger = solution.P.ledger;
    valid = solution.P.valid;
    engine_rounds;
    cache_hit;
    span = (if r.want_span then Some (Report.to_json span) else None);
  }

let knobs_of (r : P.request) =
  Printf.sprintf "%s/%s engine=%s pool=%d" r.problem r.method_ r.engine r.pool

let record_request (r : P.request) ~outcome ~latency_s =
  Metrics.Recorder.record
    {
      Metrics.Recorder.ts = now ();
      kind = "request";
      key = P.spec_key r.spec;
      detail = knobs_of r;
      outcome;
      latency_s;
    }

(* Error accounting: count, flight-record, and dump the recorder's
   recent past to stderr — a failed request carries its own context out
   of the daemon instead of leaving "it was slow" unanswerable. *)
let fail (r : P.request) ~t0 ~kind msg =
  Metrics.incr m_errors 1;
  record_request r
    ~outcome:("error:" ^ P.error_kind_to_string kind)
    ~latency_s:(now () -. t0);
  Metrics.Recorder.dump ~limit:4 stderr;
  { P.rid = r.id; outcome = P.Error (kind, msg) }

(* Validate and execute an already-admitted job (the request was
   validated at admission, so a validation error here is impossible in
   practice — still handled, for safety). Never raises. *)
let exec_admitted t (r : P.request) =
  let t0 = now () in
  match validate t r with
  | Error msg -> fail r ~t0 ~kind:P.Bad_request msg
  | Ok (workload, mode) -> (
    match exec t r ~workload ~mode with
    | solved ->
      let dt = now () -. t0 in
      Metrics.incr m_served 1;
      (* the aggregate histogram counts exactly the served requests
         (the metrics-smoke invariant); the labeled one splits the
         distribution per (kernel, engine) *)
      Metrics.observe h_latency dt;
      Metrics.observe
        (Metrics.histogram
           ~labels:
             [
               ("problem", r.problem);
               ("engine", Engine.mode_to_string mode);
             ]
           "serve_request_seconds")
        dt;
      record_request r ~outcome:"ok" ~latency_s:dt;
      { P.rid = r.id; outcome = P.Solved solved }
    | exception Inadmissible msg -> fail r ~t0 ~kind:P.Bad_request msg
    | exception e -> fail r ~t0 ~kind:P.Failed (error_message e))

let handle_request t (r : P.request) =
  Metrics.incr m_received 1;
  exec_admitted t r

(* ---------- the admission / batching / drain cycle ---------- *)

let control_response t id = function
  | P.Ping -> { P.rid = id; outcome = P.Pong }
  | P.Stats -> { P.rid = id; outcome = P.Stats_report (stats t) }
  | P.Metrics ->
    {
      P.rid = id;
      outcome = P.Metrics_report (Metrics.snapshot_to_json (Metrics.snapshot ()));
    }
  | P.Tail ->
    {
      P.rid = id;
      outcome =
        P.Tail_report
          (List.map Metrics.Recorder.event_to_json (Metrics.Recorder.tail ()));
    }
  | P.Shutdown ->
    t.shutdown <- true;
    { P.rid = id; outcome = P.Pong }

let handle_lines t lines =
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let slots : P.response option array = Array.make n None in
  let controls = ref [] in
  (* admission *)
  Array.iteri
    (fun i line ->
      match Json.parse line with
      | exception Json.Parse_error msg ->
        slots.(i) <-
          Some { P.rid = ""; outcome = P.Error (P.Bad_request, msg) }
      | j -> (
        match P.incoming_of_json j with
        | Error msg ->
          let rid =
            Option.value ~default:""
              (Option.bind (Json.member "id" j) Json.to_str)
          in
          slots.(i) <- Some { P.rid; outcome = P.Error (P.Bad_request, msg) }
        | Ok (P.Control (id, c)) -> controls := (i, id, c) :: !controls
        | Ok (P.Request r) -> (
          Metrics.incr m_received 1;
          match validate t r with
          | Error msg ->
            Metrics.incr m_errors 1;
            slots.(i) <-
              Some { P.rid = r.id; outcome = P.Error (P.Bad_request, msg) }
          | Ok _ ->
            if not (Jobq.admit t.queue (i, r)) then begin
              Metrics.incr m_rejected 1;
              slots.(i) <-
                Some
                  {
                    P.rid = r.id;
                    outcome =
                      P.Error
                        ( P.Rejected,
                          Printf.sprintf "queue full (depth %d)"
                            (Jobq.depth t.queue) );
                  }
            end)))
    lines;
  (* drain, batching same-topology jobs back to back *)
  Metrics.set_gauge g_jobq (Jobq.length t.queue);
  let batch = Jobq.drain t.queue in
  if batch <> [] then begin
    let len = List.length batch in
    Metrics.incr m_batches 1;
    t.max_batch <- max t.max_batch len;
    Metrics.gauge_max g_max_batch len;
    Metrics.observe h_batch (float_of_int len)
  end;
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (i, r) ->
      let key = P.spec_key r.P.spec in
      Hashtbl.replace by_key key
        ((i, r) :: Option.value ~default:[] (Hashtbl.find_opt by_key key)))
    batch;
  let done_keys = Hashtbl.create 16 in
  List.iter
    (fun (_, r) ->
      let key = P.spec_key r.P.spec in
      if not (Hashtbl.mem done_keys key) then begin
        Hashtbl.add done_keys key ();
        let group = List.rev (Hashtbl.find by_key key) in
        List.iter (fun (i, r) -> slots.(i) <- Some (exec_admitted t r)) group
      end)
    batch;
  Metrics.set_gauge g_jobq (Jobq.length t.queue);
  (* controls observe the cycle's post-batch state *)
  List.iter
    (fun (i, id, c) -> slots.(i) <- Some (control_response t id c))
    (List.rev !controls);
  Array.to_list slots
  |> List.filter_map (Option.map (fun r -> Json.to_line (P.response_to_json r)))

(* ---------- IO loops ---------- *)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* Socket I/O rides the process backend's transport loops: reads restart
   on EINTR and park in select on EAGAIN, writes survive partial
   delivery — one hardened implementation for daemon, client and worker
   channels alike. *)
let run_fd t fd_in fd_out =
  let chunk = Bytes.create 65536 in
  let tail = Buffer.create 4096 in
  let eof = ref false in
  let read_once () =
    let n = Tl_proc.Transport.read_some fd_in chunk 0 (Bytes.length chunk) in
    if n = 0 then eof := true else Buffer.add_subbytes tail chunk 0 n
  in
  let readable_now () =
    match restart_on_eintr (fun () -> Unix.select [ fd_in ] [] [] 0.0) with
    | [ _ ], _, _ -> true
    | _ -> false
  in
  (* complete lines out of [tail], the partial last line kept buffered *)
  let split_lines () =
    let s = Buffer.contents tail in
    let rec go start acc =
      match String.index_from_opt s start '\n' with
      | None ->
        Buffer.clear tail;
        Buffer.add_substring tail s start (String.length s - start);
        List.rev acc
      | Some nl -> go (nl + 1) (String.sub s start (nl - start) :: acc)
    in
    go 0 []
  in
  while not (!eof || t.shutdown) do
    (* block for input, then greedily take everything already available
       — that burst is one admission/batching cycle *)
    ignore (restart_on_eintr (fun () -> Unix.select [ fd_in ] [] [] (-1.0)));
    read_once ();
    while (not !eof) && readable_now () do
      read_once ()
    done;
    let lines = split_lines () in
    let lines =
      if !eof && Buffer.length tail > 0 then begin
        let last = Buffer.contents tail in
        Buffer.clear tail;
        lines @ [ last ]
      end
      else lines
    in
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    if lines <> [] then
      try
        List.iter
          (fun resp -> Tl_proc.Transport.write_string fd_out resp)
          (handle_lines t lines)
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* the client hung up: nobody is left to answer *)
        eof := true
  done

let serve_stdio t = run_fd t Unix.stdin Unix.stdout

(* Only replace what is provably a stale socket file: probing with a
   connect distinguishes an abandoned socket (ECONNREFUSED) from a live
   daemon, which must not have its socket unlinked out from under it. *)
let claim_socket_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () ->
          try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
    in
    if live then
      failwith
        (Printf.sprintf
           "socket %s is in use by a running daemon (shut it down or pick \
            another --socket path)"
           path)
    else Unix.unlink path
  | _ ->
    failwith
      (Printf.sprintf
         "refusing to replace %s: it exists and is not a socket" path)

let listen_unix t ~path =
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      while not t.shutdown do
        let client, _ = restart_on_eintr (fun () -> Unix.accept sock) in
        (* a dying client must not kill the daemon *)
        (try run_fd t client client
         with Unix.Unix_error _ | Sys_error _ -> ());
        try Unix.close client with Unix.Unix_error _ -> ()
      done)
