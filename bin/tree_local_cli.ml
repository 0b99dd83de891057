(* tree-local: command-line front end.

   Subcommands:
     generate   build an instance and print its statistics
     solve      run a problem through the paper's transformation (or the
                direct truly local baseline) and report rounds + validity
     decompose  run rake-and-compress / Algorithm 3 and print certificates
     predict    evaluate g(n) and the predicted round counts for a model f
     client     send one request to a running tree-local-serve daemon
*)

open Cmdliner

module Gen = Tl_graph.Gen
module Graph = Tl_graph.Graph
module Props = Tl_graph.Props
module Ids = Tl_local.Ids
module Pipeline = Tl_core.Pipeline
module Complexity = Tl_core.Complexity
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Trace = Tl_engine.Trace
module Span = Tl_obs.Span
module Report = Tl_obs.Report

(* ---------- shared arguments ---------- *)

let family_arg =
  let doc =
    "Instance family: random-tree, balanced-tree, path, star, caterpillar, \
     power-law, forest-union, planar, grid."
  in
  Arg.(value & opt string "random-tree" & info [ "family" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(value & opt int 1000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let a_arg =
  Arg.(
    value & opt int 1
    & info [ "a"; "arboricity" ] ~docv:"A" ~doc:"Arboricity bound (forest-union, planar).")

let delta_arg =
  Arg.(
    value & opt int 8
    & info [ "delta" ] ~docv:"D" ~doc:"Degree for balanced-tree.")

(* ---------- engine selection and tracing ---------- *)

(* Kept as a (validated) string until the command runs: "shard" or
   "proc" without a count resolves against --shards, through
   [with_knobs]. *)
let engine_arg =
  let doc =
    "Execution engine: naive (the legacy full-scan reference stepper), \
     seq (compiled topology + active-set scheduler, the default), \
     par:N (the same stepper with the per-round compute spread over N \
     OCaml domains), shard / shard:S (sharded halo-exchange backend; \
     the shard count comes from $(b,--shards) unless given inline), or \
     proc / proc:S (one worker process per shard, halos over the tlp \
     binary wire protocol; a bare proc also takes its count from \
     $(b,--shards); run proc work before any par/shard run — OCaml \
     forbids forking after domains exist). All modes are \
     deterministic and bit-identical."
  in
  let mode =
    let parse s =
      match Engine.mode_of_string s with
      | _ -> Ok s
      | exception Invalid_argument _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid engine %S (expected naive, seq, par:N, shard, \
                shard:S, proc or proc:S)"
               s))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  Arg.(value & opt mode "seq" & info [ "engine" ] ~docv:"MODE" ~doc)

let shards_arg =
  let doc =
    "Shard count for $(b,--engine) shard: partition the compiled \
     topology into $(docv) contiguous shards with ghost (halo) \
     vertices, each round running as local step / batched boundary \
     exchange / barrier. Results are bit-identical for any shard count; \
     composes with $(b,--pool) (shards fan over the domain pool)."
  in
  let shards =
    let parse s =
      match int_of_string_opt s with
      | Some c when c >= 1 -> Ok c
      | _ ->
        Error
          (`Msg (Printf.sprintf "invalid shard count %S (expected S >= 1)" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt shards 4 & info [ "shards" ] ~docv:"S" ~doc)

let pool_arg =
  let doc =
    "Component-solve pool width: fan the per-component gather-solve of \
     Theorem 12 and the per-star solving of Theorem 15 over $(docv) \
     OCaml domains (deterministic fixed chunking; results are \
     bit-identical to --pool 1)."
  in
  let workers =
    let parse s =
      match int_of_string_opt s with
      | Some p when p >= 1 -> Ok p
      | _ -> Error (`Msg (Printf.sprintf "invalid pool size %S (expected N >= 1)" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt workers 1 & info [ "pool" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Profile every engine-backed execution: write the per-round traces \
     as a JSON array to $(docv) and print a metrics summary alongside \
     the round ledger."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.json" ~doc)

let collected_traces : Trace.t list ref = ref []

(* ---------- unified exit flush ----------

   --trace and --profile both write at process exit (so their outputs
   survive the [exit 1] of a failed validity check). They used to each
   register their own [at_exit] callback; a crash inside one writer
   could then truncate or interleave the other's output depending on
   registration order. Instead, one [at_exit] runs every registered
   flusher in a fixed order — most recently registered first, matching
   the old LIFO at_exit behavior — each behind its own exception guard:
   a flusher that raises is reported and the remaining flushers still
   run to completion. *)
let exit_flushers : (string * (unit -> unit)) list ref = ref []
let exit_flush_installed = ref false

let at_exit_flush name f =
  exit_flushers := (name, f) :: !exit_flushers;
  if not !exit_flush_installed then begin
    exit_flush_installed := true;
    at_exit (fun () ->
        List.iter
          (fun (name, f) ->
            try f ()
            with e ->
              Printf.eprintf "%s: exit flush failed (%s)\n" name
                (Printexc.to_string e))
          !exit_flushers)
  end

let setup_engine mode trace_file =
  Engine.default_mode := mode;
  match trace_file with
  | None -> ()
  | Some file ->
    Engine.trace_sink :=
      Some (fun t -> collected_traces := t :: !collected_traces);
    (* write on exit so traces survive the [exit 1] of a failed report *)
    at_exit_flush "trace" (fun () ->
        let ts = List.rev !collected_traces in
        match Trace.write_json ~file ts with
        | () ->
          Printf.printf "trace:       %d engine run(s) -> %s\n"
            (List.length ts) file
        | exception Sys_error msg ->
          Printf.eprintf "trace:       cannot write %s (%s)\n" file msg)

(* ---------- whole-run profiling (tl_obs span reports) ---------- *)

let profile_arg =
  let doc =
    "Profile the whole run as a hierarchical span report (phases, round \
     charges, engine runs) and write it as JSON to $(docv). The \
     enclosing directory must exist; a write failure at exit degrades \
     to a warning."
  in
  let writable_path =
    let parse s =
      let dir = Filename.dirname s in
      if Sys.file_exists dir && Sys.is_directory dir then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "invalid --profile %S: directory %S does not exist"
                s dir))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  Arg.(
    value
    & opt (some writable_path) None
    & info [ "profile" ] ~docv:"FILE.json" ~doc)

let report_fmt_arg =
  let doc =
    "Print the span report on stdout after the run: $(b,tree) (indented \
     human view), $(b,json) (the report object) or $(b,csv) (flat \
     per-span rows)."
  in
  Arg.(
    value
    & opt (some (enum [ ("tree", `Tree); ("json", `Json); ("csv", `Csv) ])) None
    & info [ "report" ] ~docv:"FMT" ~doc)

(* The report is finished and written through the unified exit flush so
   it survives the [exit 1] of a failed validity check, mirroring
   --trace (and cannot interleave with it). *)
let setup_profile profile report_fmt =
  if profile <> None || report_fmt <> None then begin
    let root = Span.create "solve" in
    Span.install_root root;
    at_exit_flush "profile" (fun () ->
        Span.finish root;
        (match report_fmt with
        | None -> ()
        | Some `Tree -> Format.printf "%a" Report.pp_tree root
        | Some `Json -> print_string (Report.json_string root)
        | Some `Csv -> print_string (Report.to_csv root));
        match profile with
        | None -> ()
        | Some file -> (
          match Report.write_json ~file root with
          | () -> Printf.printf "profile:     span report -> %s\n" file
          | exception Sys_error msg ->
            Printf.eprintf "profile:     cannot write %s (%s)\n" file msg))
  end

(* Engine metrics merged into a round ledger and printed with the report.
   The measured engine rounds live in their own ledger: the report's own
   ledger counts the rounds the paper's accounting charges, and the
   engine rows show where the simulator actually spent its executions. *)
let print_trace_summary () =
  match List.rev !collected_traces with
  | [] -> ()
  | ts ->
    let ledger = Round_cost.create () in
    List.iter (fun t -> Tl_local.Runtime.charge_trace ledger t) ts;
    Printf.printf "engine:      %d run(s), %d measured rounds\n"
      (List.length ts) (Round_cost.total ledger);
    List.iter
      (fun (phase, rounds) -> Printf.printf "  %-24s %6d\n" phase rounds)
      (Round_cost.phases ledger);
    List.iteri
      (fun i t ->
        if i < 8 then Format.printf "  %a@." Trace.pp_summary t
        else if i = 8 then Printf.printf "  ...\n")
      ts

let build_instance family n seed a delta =
  match family with
  | "random-tree" -> Gen.random_tree ~n ~seed
  | "balanced-tree" -> Gen.balanced_regular_tree ~delta ~n
  | "path" -> Gen.path n
  | "star" -> Gen.star n
  | "caterpillar" -> Gen.caterpillar ~spine:(max 1 (n / 4)) ~legs:3
  | "power-law" -> Gen.power_law_tree ~n ~seed
  | "forest-union" -> Gen.forest_union ~n ~arboricity:a ~seed
  | "planar" ->
    Gen.triangulated_grid (max 2 (int_of_float (Float.sqrt (float_of_int n))))
  | "grid" ->
    let side = max 1 (int_of_float (Float.sqrt (float_of_int n))) in
    Gen.grid side side
  | other -> failwith (Printf.sprintf "unknown family %s" other)

(* ---------- generate ---------- *)

let generate family n seed a delta =
  let g = build_instance family n seed a delta in
  let lo, hi = Props.arboricity_interval g in
  Printf.printf "family:      %s\n" family;
  Printf.printf "nodes:       %d\n" (Graph.n_nodes g);
  Printf.printf "edges:       %d\n" (Graph.n_edges g);
  Printf.printf "max degree:  %d\n" (Graph.max_degree g);
  Printf.printf "max e-deg:   %d\n" (Props.max_edge_degree g);
  Printf.printf "arboricity:  in [%d, %d]\n" lo hi;
  Printf.printf "forest:      %b\n" (Props.is_forest g);
  if Props.is_tree g then
    Printf.printf "diameter:    %d\n" (Tl_graph.Tree.tree_diameter g)

let generate_cmd =
  let doc = "Build an instance and print its statistics." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const generate $ family_arg $ n_arg $ seed_arg $ a_arg $ delta_arg)

(* ---------- solve ---------- *)

let problem_arg =
  let doc = "Problem: mis, coloring, matching, edge-coloring." in
  Arg.(value & opt string "mis" & info [ "problem" ] ~docv:"P" ~doc)

let method_arg =
  let doc = "Method: transform (the paper's pipeline), direct (run the \
             truly local base algorithm on the whole graph), or baseline \
             (the [BE13]-style O(log n) forest-split algorithm; matching \
             and edge-coloring on trees only)."
  in
  Arg.(value & opt string "transform" & info [ "method" ] ~docv:"M" ~doc)

let k_arg =
  Arg.(
    value & opt (some int) None
    & info [ "k"; "param-k" ] ~docv:"K" ~doc:"Decomposition parameter (default g(n)).")

let report_raw name problem g labeling cost =
  Printf.printf "problem:     %s\n" name;
  Printf.printf "rounds:      %d\n" (Round_cost.total cost);
  List.iter
    (fun (phase, rounds) -> Printf.printf "  %-24s %6d\n" phase rounds)
    (Round_cost.phases cost);
  print_trace_summary ();
  let valid = Tl_problems.Nec.is_valid problem g labeling in
  Printf.printf "valid:       %b\n" valid;
  if not valid then exit 1

let report name (r : _ Pipeline.report) =
  Printf.printf "problem:     %s\n" name;
  Printf.printf "rounds:      %d\n" r.Pipeline.total_rounds;
  List.iter
    (fun (phase, rounds) -> Printf.printf "  %-24s %6d\n" phase rounds)
    (Round_cost.phases r.Pipeline.cost);
  if r.Pipeline.k > 0 then Printf.printf "k:           %d\n" r.Pipeline.k;
  print_trace_summary ();
  Printf.printf "valid:       %b\n" r.Pipeline.valid;
  if not r.Pipeline.valid then begin
    List.iteri
      (fun i v ->
        if i < 5 then
          Format.printf "  violation: %a@." Tl_problems.Nec.pp_violation v)
      r.Pipeline.violations;
    exit 1
  end

let solve problem method_ family n seed a delta k engine shards pool trace
    profile report_fmt =
  setup_engine engine trace;
  Tl_engine.Pool.default_workers := pool;
  setup_profile profile report_fmt;
  Span.set_attr "problem" problem;
  Span.set_attr "method" method_;
  Span.set_attr "family" family;
  Span.set_attr "n" (string_of_int n);
  Span.set_attr "seed" (string_of_int seed);
  Span.set_attr "engine" (Engine.mode_to_string engine);
  Span.set_attr "shards" (string_of_int shards);
  Span.set_attr "pool" (string_of_int pool);
  let g = Span.with_span "instance" (fun () -> build_instance family n seed a delta) in
  let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 1) in
  let must_tree name =
    if not (Props.is_tree g) then
      failwith (name ^ " via Theorem 12 needs a tree instance")
  in
  match (problem, method_) with
  | "mis", "transform" ->
    must_tree "mis";
    report "MIS (Theorem 12)" (Pipeline.mis_on_tree ?k ~tree:g ~ids ())
  | "coloring", "transform" ->
    must_tree "coloring";
    report "(deg+1)-coloring (Theorem 12)"
      (Pipeline.coloring_on_tree ?k ~tree:g ~ids ())
  | "matching", "transform" ->
    report "maximal matching (Theorem 15)"
      (Pipeline.matching_on_graph ?k ~graph:g ~a ~ids ())
  | "edge-coloring", "transform" ->
    report "(edge-degree+1)-edge coloring (Theorem 15)"
      (Pipeline.edge_coloring_on_graph ?k ~graph:g ~a ~ids ())
  | "mis", "direct" -> report "MIS (direct)" (Pipeline.mis_direct ~graph:g ~ids)
  | "coloring", "direct" ->
    report "(deg+1)-coloring (direct)" (Pipeline.coloring_direct ~graph:g ~ids)
  | "matching", "direct" ->
    report "maximal matching (direct)" (Pipeline.matching_direct ~graph:g ~ids)
  | "edge-coloring", "direct" ->
    report "(edge-degree+1)-edge coloring (direct)"
      (Pipeline.edge_coloring_direct ~graph:g ~ids)
  | "matching", "baseline" ->
    must_tree "baseline matching";
    let labeling, cost = Tl_core.Baseline.matching_on_tree ~tree:g ~ids in
    report_raw "maximal matching (BE13-style baseline)"
      Tl_problems.Matching.problem g labeling cost
  | "edge-coloring", "baseline" ->
    must_tree "baseline edge-coloring";
    let labeling, cost = Tl_core.Baseline.edge_coloring_on_tree ~tree:g ~ids in
    report_raw "(edge-degree+1)-edge coloring (BE13-style baseline)"
      Tl_problems.Edge_coloring.problem g labeling cost
  | p, m -> failwith (Printf.sprintf "unknown problem/method %s/%s" p m)

(* Cross-argument validation the per-argument convs cannot express
   (shard count vs instance size, shard backend availability, pool
   bounds) — shared with the serving daemon's admission check so the
   CLI and the daemon reject exactly the same knob combinations, and run
   exactly the mode it resolves (a bare shard / proc takes --shards). *)
let with_knobs ~engine ~shards ~pool ~n run =
  match Tl_serve.Protocol.resolve_knobs ~engine ~shards ~pool ~n with
  | Error msg -> `Error (false, msg)
  | Ok mode -> `Ok (run mode)

let solve_checked problem method_ family n seed a delta k engine shards pool
    trace profile report_fmt =
  with_knobs ~engine ~shards ~pool ~n (fun mode ->
      solve problem method_ family n seed a delta k mode shards pool trace
        profile report_fmt)

let solve_cmd =
  let doc = "Solve a problem with the paper's transformation." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(
      ret
        (const solve_checked $ problem_arg $ method_arg $ family_arg $ n_arg
       $ seed_arg $ a_arg $ delta_arg $ k_arg $ engine_arg $ shards_arg
       $ pool_arg $ trace_arg $ profile_arg $ report_fmt_arg))

(* ---------- decompose ---------- *)

let decompose which family n seed a delta k =
  let g = build_instance family n seed a delta in
  let real_n = Graph.n_nodes g in
  let ids = Ids.permuted ~n:real_n ~seed:(seed + 1) in
  match which with
  | "rake-compress" ->
    let k = Option.value k ~default:4 in
    let rc = Tl_decompose.Rake_compress.run g ~k ~ids in
    let module RC = Tl_decompose.Rake_compress in
    Printf.printf "iterations:        %d (Lemma 9: %b)\n" (RC.iterations rc)
      (RC.check_lemma9 rc);
    Printf.printf "compressed nodes:  %d\n"
      (List.length (RC.compressed_nodes rc));
    Printf.printf "raked nodes:       %d\n" (List.length (RC.raked_nodes rc));
    Printf.printf "maxdeg(E_C):       %d <= k = %d (Lemma 10: %b)\n"
      (RC.compress_part_max_degree rc)
      k (RC.check_lemma10 rc);
    Printf.printf "max rake diameter: %d <= %d (Lemma 11: %b)\n"
      (List.fold_left max 0 (RC.rake_component_diameters rc))
      (RC.lemma11_bound rc) (RC.check_lemma11 rc)
  | "arboricity" ->
    let k = Option.value k ~default:(5 * a) in
    let d = Tl_decompose.Arb_decompose.run g ~a ~k ~ids in
    let module AD = Tl_decompose.Arb_decompose in
    Printf.printf "iterations:      %d (Lemma 13: %b)\n" (AD.iterations d)
      (AD.check_lemma13 d);
    Printf.printf "typical edges:   %d (maxdeg %d <= k = %d, Lemma 14: %b)\n"
      (List.length (AD.typical_edges d))
      (AD.typical_max_degree d) k (AD.check_lemma14 d);
    Printf.printf "atypical edges:  %d (max/node %d <= b = %d)\n"
      (List.length (AD.atypical_edges d))
      (AD.max_atypical_per_node d) (AD.b d);
    Printf.printf "forest coloring: %d rounds; stars intact: %b\n"
      (AD.cv_rounds d) (AD.check_stars d)
  | other -> failwith (Printf.sprintf "unknown decomposition %s" other)

let which_arg =
  let doc = "Decomposition: rake-compress or arboricity." in
  Arg.(value & opt string "rake-compress" & info [ "kind" ] ~docv:"KIND" ~doc)

let decompose_cmd =
  let doc = "Run a decomposition and print its certificates." in
  Cmd.v (Cmd.info "decompose" ~doc)
    Term.(
      const decompose $ which_arg $ family_arg $ n_arg $ seed_arg $ a_arg
      $ delta_arg $ k_arg)

(* ---------- chaos ---------- *)

let faults_arg =
  let doc =
    "Fault schedule: a JSON file path, inline JSON, or the compact \
     grammar (e.g. \
     $(b,seed=7;crash@4:0,9;recover@9:0;churn@2-20:rate=0.001)). \
     Omitted: an empty schedule (armed hooks, no faults)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"FILE|SPEC" ~doc)

let chaos_problem_arg =
  let doc = "Chaos workload: flood or mis." in
  Arg.(value & opt string "flood" & info [ "problem" ] ~docv:"P" ~doc)

let chaos problem family n seed a delta engine pool faults trace profile
    report_fmt =
  let module Chaos = Tl_fault.Chaos in
  let module Injector = Tl_fault.Injector in
  setup_engine engine trace;
  Tl_engine.Pool.default_workers := pool;
  setup_profile profile report_fmt;
  let schedule =
    match faults with
    | None -> Tl_fault.Schedule.empty
    | Some s -> (
      match Tl_fault.Schedule.of_arg s with
      | Ok sc -> sc
      | Error msg -> failwith (Printf.sprintf "bad --faults: %s" msg))
  in
  let g = build_instance family n seed a delta in
  let real_n = Graph.n_nodes g in
  let workload =
    match problem with
    | "flood" -> Chaos.Flood { source = 0 }
    | "mis" -> Chaos.Mis { ids = Ids.permuted ~n:real_n ~seed:(seed + 1) }
    | other -> failwith (Printf.sprintf "unknown chaos workload %s" other)
  in
  let r = Chaos.run ~mode:engine ~graph:g ~problem:workload ~schedule () in
  Printf.printf "problem:     %s under faults\n" r.Chaos.problem;
  Printf.printf "engine:      %s\n" r.Chaos.mode;
  Printf.printf "nodes:       %d (%d surviving)\n" r.Chaos.n r.Chaos.survivors;
  Printf.printf "epochs:      %d (%d proc retries)\n" r.Chaos.epochs
    r.Chaos.retries;
  Printf.printf "rounds:      %d executed, horizon %d\n" r.Chaos.rounds
    r.Chaos.horizon;
  Printf.printf "events:      %d crash, %d recover, %d drop, %d kill\n"
    r.Chaos.crashes r.Chaos.recoveries r.Chaos.drops r.Chaos.kills;
  List.iteri
    (fun i (round, a) ->
      if i < 40 then
        Printf.printf "  @%-5d %s\n" round (Injector.applied_to_string a)
      else if i = 40 then Printf.printf "  ...\n")
    r.Chaos.log;
  Printf.printf "repairs:     %d (%d labels rewritten, %d-node regions, \
                 %.6f s)\n"
    r.Chaos.repairs r.Chaos.relabeled r.Chaos.repair_region r.Chaos.repair_s;
  Printf.printf "digest:      %016Lx\n" r.Chaos.digest;
  print_trace_summary ();
  Printf.printf "valid:       %b\n" r.Chaos.valid;
  if not r.Chaos.valid then exit 1

let chaos_cmd =
  let doc =
    "Run a workload under a deterministic fault schedule and repair the \
     damage incrementally."
  in
  let chaos_checked problem family n seed a delta engine shards pool faults
      trace profile report_fmt =
    with_knobs ~engine ~shards ~pool ~n (fun mode ->
        chaos problem family n seed a delta mode pool faults trace profile
          report_fmt)
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const chaos_checked $ chaos_problem_arg $ family_arg $ n_arg
       $ seed_arg $ a_arg $ delta_arg $ engine_arg $ shards_arg $ pool_arg
       $ faults_arg $ trace_arg $ profile_arg $ report_fmt_arg))

(* ---------- predict ---------- *)

let f_of_name = function
  | "linear" -> Complexity.f_linear
  | "sqrt-log" -> Complexity.f_sqrt_log
  | "exp-sqrt-log" -> Complexity.f_exp_sqrt_log
  | "log12" -> Complexity.f_polylog ~exponent:12.0
  | "log5" -> Complexity.f_polylog ~exponent:5.0
  | "linial" -> Complexity.f_linial_reduction
  | other -> failwith (Printf.sprintf "unknown f %s" other)

let predict fname n a rho =
  let f = f_of_name fname in
  let g = Complexity.solve_g ~f ~n:(float_of_int n) in
  Printf.printf "f:                   %s\n" fname;
  Printf.printf "g(n):                %.3f\n" g;
  Printf.printf "f(g(n)):             %.3f\n" (f g);
  Printf.printf "Theorem 1 rounds:    %.1f\n"
    (Complexity.theorem1_rounds ~f ~n);
  Printf.printf "Theorem 2 rounds:    %.1f  (a = %d, rho = %d)\n"
    (Complexity.theorem2_rounds ~f ~n ~a ~rho)
    a rho;
  Printf.printf "MIS barrier curve:   %.1f\n" (Complexity.mis_lower_bound ~n)

let f_arg =
  let doc =
    "Model f: linear, sqrt-log, exp-sqrt-log, log5, log12, linial."
  in
  Arg.(value & opt string "linear" & info [ "f"; "model" ] ~docv:"F" ~doc)

let rho_arg =
  Arg.(value & opt int 2 & info [ "rho" ] ~docv:"R" ~doc:"Theorem 15's rho.")

let predict_cmd =
  let doc = "Evaluate g(n) and the predicted round counts." in
  Cmd.v (Cmd.info "predict" ~doc)
    Term.(const predict $ f_arg $ n_arg $ a_arg $ rho_arg)

(* ---------- client ---------- *)

let socket_arg =
  let doc = "Unix-domain socket of a running tree-local-serve daemon." in
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc)

let cmd_arg =
  let doc =
    "Send a control message instead of a solve request: $(b,ping), \
     $(b,stats), $(b,metrics) (live registry snapshot), $(b,tail) \
     (flight-recorder events) or $(b,shutdown)."
  in
  let module P = Tl_serve.Protocol in
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("ping", P.Ping); ("stats", P.Stats); ("metrics", P.Metrics);
                ("tail", P.Tail); ("shutdown", P.Shutdown) ]))
        None
    & info [ "cmd" ] ~docv:"CMD" ~doc)

let format_arg =
  let doc =
    "Rendering for $(b,--cmd metrics): $(b,json) prints the daemon's \
     response line verbatim, $(b,prom) re-renders the snapshot as \
     Prometheus text exposition."
  in
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
    & info [ "format" ] ~docv:"FMT" ~doc)

let span_arg =
  let doc = "Ask the daemon for the per-request span report." in
  Arg.(value & flag & info [ "span" ] ~doc)

let retries_arg =
  let doc =
    "Retry a refused connection up to $(docv) times with bounded \
     exponential backoff (50 ms doubling, capped at 1 s) before giving \
     up — for clients racing a daemon that is still binding its socket."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

(* One request per invocation: connect, send a single ndjson line, print
   the daemon's response line, exit 0 on ok:true / 1 on an error
   outcome. The connection is closed after the response, so the daemon
   (one connection at a time) is immediately free for the next client. *)
let client socket cmd format problem method_ family n seed a delta k engine
    shards pool span retries faults =
  let module P = Tl_serve.Protocol in
  let module Json = Tl_obs.Json in
  let module Metrics = Tl_obs.Metrics in
  (* --faults may name a file; the daemon only takes inline forms, so
     normalize client-side (read + parse here, ship canonical JSON) *)
  let faults =
    match faults with
    | None -> None
    | Some s -> (
      match Tl_fault.Schedule.of_arg s with
      | Ok sched -> Some (Json.to_string (Tl_fault.Schedule.to_json sched))
      | Error msg ->
        Printf.eprintf "client: bad --faults (%s)\n" msg;
        exit 1)
  in
  let req =
    match cmd with
    | Some c -> P.control_to_json ~id:"cli" c
    | None ->
      let spec = P.Family { family; n; seed; a; delta } in
      P.request_to_json
        (P.request ~id:"cli" ~problem ~method_ ~spec ?k ~engine ~shards ~pool
           ~want_span:span ?faults ())
  in
  let rec connect_with attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      if attempt > 0 then
        Printf.eprintf "client: connected after %d retr%s\n" attempt
          (if attempt = 1 then "y" else "ies");
      fd
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      if attempt >= retries then begin
        Printf.eprintf "client: cannot connect to %s (%s%s)\n" socket
          (Unix.error_message e)
          (if retries > 0 then
             Printf.sprintf ", after %d retries" retries
           else "");
        exit 1
      end
      else begin
        Unix.sleepf (Float.min 1.0 (0.05 *. Float.pow 2.0 (float_of_int attempt)));
        connect_with (attempt + 1)
      end
  in
  let fd = connect_with 0 in
    let module T = Tl_proc.Transport in
    (* transport loops: the request survives partial writes, the
       response read restarts on EINTR *)
    T.write_string fd (Json.to_line req);
    let read_line () =
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = T.read_some fd chunk 0 (Bytes.length chunk) in
        if n = 0 then
          if Buffer.length buf = 0 then raise End_of_file
          else Buffer.contents buf
        else
          match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
          | Some i ->
            Buffer.add_subbytes buf chunk 0 i;
            Buffer.contents buf
          | None ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
      in
      go ()
    in
    (match read_line () with
    | exception End_of_file ->
      Printf.eprintf "client: daemon closed the connection\n";
      exit 1
    | line ->
      let parsed =
        match P.response_of_json (Json.parse line) with
        | Ok r -> Some r
        | Error _ | (exception Json.Parse_error _) -> None
      in
      (match (format, parsed) with
      | `Prom, Some { P.outcome = P.Metrics_report snap; _ } -> (
        match Metrics.snapshot_of_json snap with
        | Ok s -> print_string (Metrics.to_prometheus s)
        | Error msg ->
          print_endline line;
          Printf.eprintf "client: cannot render prometheus text (%s)\n" msg)
      | _ -> print_endline line);
      let ok =
        match parsed with
        | Some { P.outcome = P.Error _; _ } -> false
        | Some _ -> true
        | None -> false
      in
      Unix.close fd;
      if not ok then exit 1)

let client_cmd =
  let doc = "Send one request to a running tree-local-serve daemon." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const client $ socket_arg $ cmd_arg $ format_arg $ problem_arg
      $ method_arg $ family_arg $ n_arg $ seed_arg $ a_arg $ delta_arg $ k_arg
      $ engine_arg $ shards_arg $ pool_arg $ span_arg $ retries_arg
      $ faults_arg)

(* ---------- main ---------- *)

let () =
  let doc =
    "Deterministic LOCAL algorithms on trees and bounded-arboricity graphs \
     (PODC 2025 reproduction)."
  in
  let info = Cmd.info "tree-local" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            solve_cmd;
            decompose_cmd;
            predict_cmd;
            chaos_cmd;
            client_cmd;
          ]))
