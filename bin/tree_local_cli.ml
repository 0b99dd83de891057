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

module Graph = Tl_graph.Graph
module Props = Tl_graph.Props
module Ids = Tl_local.Ids
module Complexity = Tl_core.Complexity
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Trace = Tl_engine.Trace
module Span = Tl_obs.Span
module Report = Tl_obs.Report

(* ---------- shared arguments ---------- *)

(* The family names are the daemon's (Protocol.family_names), so an unknown
   name is a usage error here and a bad_request there. *)
let family_arg =
  let names = Tl_serve.Protocol.family_names in
  let doc = Printf.sprintf "Instance family: %s." (String.concat ", " names) in
  Arg.(
    value
    & opt (enum (List.map (fun name -> (name, name)) names)) "random-tree"
    & info [ "family" ] ~docv:"FAMILY" ~doc)

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

(* Kept as a (validated) string until the command runs: [with_knobs]
   checks it against the instance size through the daemon's rules; the
   parse here checks only the syntax. *)
let engine_arg =
  let doc =
    "Execution engine of the flat kernels: seq (compiled topology + \
     active-set scheduler over int slabs, the default), par:N (the same \
     stepper with the per-round compute spread over N OCaml domains) or \
     proc:N (N worker processes, one per shard of the compiled \
     topology, halos over the tlp binary wire protocol; the only mode \
     where link-drop and worker-kill faults fire; run proc work before \
     any par run — OCaml forbids forking after domains exist). All \
     modes are deterministic and bit-identical."
  in
  let mode =
    let parse s =
      match Engine.mode_of_string s with
      | exception Invalid_argument _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid engine %S (expected seq, par:N or proc:N)" s))
      | _ -> Ok s
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  Arg.(value & opt mode "seq" & info [ "engine" ] ~docv:"MODE" ~doc)

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
    "Profile every engine run: write the per-round traces as a JSON \
     array to $(docv) and print a metrics summary alongside the round \
     ledger."
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

let setup_trace trace_file =
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
    List.iter
      (fun t ->
        Round_cost.charge ledger
          ("engine:" ^ Trace.label t)
          (Trace.metrics t).Trace.rounds)
      ts;
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
  Tl_serve.Protocol.build_graph (Tl_serve.Protocol.Family { family; n; seed; a; delta })

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

let report title (s : Tl_serve.Protocol.solution) =
  Printf.printf "problem:     %s\n" title;
  Printf.printf "rounds:      %d\n" s.rounds;
  List.iter
    (fun (phase, rounds) -> Printf.printf "  %-24s %6d\n" phase rounds)
    s.ledger;
  if s.k > 0 then Printf.printf "k:           %d\n" s.k;
  Printf.printf "valid:       %b\n" s.valid;
  if not s.valid then begin
    List.iter (Printf.printf "  violation: %s\n") s.violations;
    exit 1
  end

(* The (problem, method) pairs and their tree requirements are the
   daemon's (Protocol.find_workload): a pair it rejects as a
   bad_request, or a tree-only method on a non-tree, is a usage error
   here. *)
let solve problem method_ family n seed a delta k pool profile report_fmt =
  let module P = Tl_serve.Protocol in
  match P.find_workload ~problem ~method_ with
  | Error msg -> `Error (false, msg)
  | Ok (P.Flood | P.Chaos) ->
    `Error (false, problem ^ " is an engine workload: run it with chaos")
  | Ok (P.Solve p) -> (
    setup_profile profile report_fmt;
    Span.set_attr "problem" problem;
    Span.set_attr "method" method_;
    Span.set_attr "family" family;
    Span.set_attr "n" (string_of_int n);
    Span.set_attr "seed" (string_of_int seed);
    Span.set_attr "pool" (string_of_int pool);
    let graph =
      Span.with_span "instance" (fun () -> build_instance family n seed a delta)
    in
    let ids = Ids.permuted ~n:(Graph.n_nodes graph) ~seed:(seed + 1) in
    match p.P.solve ~graph ~ids ~a ~k ~workers:pool with
    | Error msg -> `Error (false, msg)
    | Ok s -> `Ok (report p.P.title s))

(* Cross-argument validation the per-argument convs cannot express
   (proc count vs instance size, pool bounds) — shared with the serving
   daemon's admission check so the CLI and the daemon reject exactly
   the same knob combinations. *)
let with_knobs ~engine ~pool ~n run =
  match Tl_serve.Protocol.resolve_knobs ~engine ~pool ~n with
  | Error msg -> `Error (false, msg)
  | Ok mode -> run mode

(* solve makes no engine run (its pipelines are direct loops), so it
   takes no engine knobs: only the instance size and the pool width are
   checked, by the same rules. *)
let solve_checked problem method_ family n seed a delta k pool profile
    report_fmt =
  with_knobs ~engine:"seq" ~pool ~n (fun _seq ->
      solve problem method_ family n seed a delta k pool profile report_fmt)

let solve_cmd =
  let doc = "Solve a problem with the paper's transformation." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(
      ret
        (const solve_checked $ problem_arg $ method_arg $ family_arg $ n_arg
       $ seed_arg $ a_arg $ delta_arg $ k_arg $ pool_arg $ profile_arg
       $ report_fmt_arg))

(* ---------- decompose ---------- *)

let decompose which family n seed a delta k =
  let g = build_instance family n seed a delta in
  let real_n = Graph.n_nodes g in
  let ids = Ids.permuted ~n:real_n ~seed:(seed + 1) in
  match which with
  | `Rake_compress ->
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
  | `Arboricity ->
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

let which_arg =
  let doc = "Decomposition: rake-compress or arboricity." in
  Arg.(
    value
    & opt (enum [ ("rake-compress", `Rake_compress); ("arboricity", `Arboricity) ])
        `Rake_compress
    & info [ "kind" ] ~docv:"KIND" ~doc)

let decompose_cmd =
  let doc = "Run a decomposition and print its certificates." in
  Cmd.v (Cmd.info "decompose" ~doc)
    Term.(
      const decompose $ which_arg $ family_arg $ n_arg $ seed_arg $ a_arg
      $ delta_arg $ k_arg)

(* ---------- chaos ---------- *)

(* Parsed at the command line, so a malformed schedule is a usage error
   naming the parser's complaint. *)
let faults_arg =
  let doc =
    "Fault schedule: a JSON file path, inline JSON, or the compact \
     grammar (e.g. \
     $(b,seed=7;crash@4:0,9;recover@9:0;churn@2-20:rate=0.001)). \
     Omitted: an empty schedule (armed hooks, no faults)."
  in
  let schedule =
    let parse s =
      Result.map_error
        (fun msg -> `Msg (Printf.sprintf "bad --faults %S: %s" s msg))
        (Tl_fault.Schedule.of_arg s)
    in
    let print fmt t =
      Format.pp_print_string fmt
        (Tl_obs.Json.to_string (Tl_fault.Schedule.to_json t))
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some schedule) None
    & info [ "faults" ] ~docv:"FILE|SPEC" ~doc)

type chaos_problem = Flood | Mis

let chaos_problem_arg =
  let doc = "Chaos workload: flood or mis." in
  Arg.(
    value
    & opt (enum [ ("flood", Flood); ("mis", Mis) ]) Flood
    & info [ "problem" ] ~docv:"P" ~doc)

let chaos problem family n seed a delta engine faults trace profile
    report_fmt =
  let module Chaos = Tl_fault.Chaos in
  let module Injector = Tl_fault.Injector in
  setup_trace trace;
  setup_profile profile report_fmt;
  let schedule = Option.value faults ~default:Tl_fault.Schedule.empty in
  let g = build_instance family n seed a delta in
  let real_n = Graph.n_nodes g in
  let workload =
    match problem with
    | Flood -> Chaos.Flood { source = 0 }
    | Mis -> Chaos.Mis { ids = Ids.permuted ~n:real_n ~seed:(seed + 1) }
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
  (* chaos creates no pool (neither Chaos nor Repair fans out), so it
     takes no width; only the engine mode is checked *)
  let chaos_checked problem family n seed a delta engine faults trace
      profile report_fmt =
    with_knobs ~engine ~pool:1 ~n (fun mode ->
        `Ok
          (chaos problem family n seed a delta mode faults trace profile
             report_fmt))
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const chaos_checked $ chaos_problem_arg $ family_arg $ n_arg
       $ seed_arg $ a_arg $ delta_arg $ engine_arg $ faults_arg
       $ trace_arg $ profile_arg $ report_fmt_arg))

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
    pool span retries faults =
  let module P = Tl_serve.Protocol in
  let module Json = Tl_obs.Json in
  let module Metrics = Tl_obs.Metrics in
  (* --faults may name a file; the daemon only takes inline forms, so
     ship the parsed schedule as canonical JSON *)
  let faults =
    Option.map
      (fun sched -> Json.to_string (Tl_fault.Schedule.to_json sched))
      faults
  in
  let req =
    match cmd with
    | Some c -> P.control_to_json ~id:"cli" c
    | None ->
      let spec = P.Family { family; n; seed; a; delta } in
      P.request_to_json
        (P.request ~id:"cli" ~problem ~method_ ~spec ?k ~engine ~pool
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
      $ engine_arg $ pool_arg $ span_arg $ retries_arg $ faults_arg)

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
