(* e2e: the end-to-end + per-layer benchmark of the Theorem 12 / 15
   pipelines and the serving daemon.

     dune exec bench/e2e/e2e.exe -- [--workload W|all] [--seed S]
       [--seconds T] [--trace 0|1|FILE] [--n N] [--samples K]

   Prints one "workload metric value unit" line per metric, then, as the
   last line, one JSON object {correct, attempted, failed, metrics}.
   Untraced runs (--trace 0, the default) report the end-to-end metrics;
   traced runs report the per-layer metrics, and --trace FILE also
   writes every recorded span to FILE. bench/e2e/README.md documents the
   metrics, the workloads and how to read the trace. Exits non-zero when
   an output is wrong or two runs of one computation disagree. *)

module Json = Tl_obs.Json

let end_to_end_units =
  [
    ("setup_s", "s");
    ("solve_s", "s");
    ("request_p50_ms", "ms");
    ("request_p90_ms", "ms");
    ("capacity_rps", "req/s");
    ("top_heap_mb", "MB");
    ("local_rounds", "rounds");
  ]

(* Every workload prints every per-layer metric; a layer a workload
   does not exercise (or a sub-step it cannot observe) reads 0. *)
let layer_units =
  [
    ("graph.gen_s", "s");
    ("decompose.s", "s");
    ("decompose.alloc_mw", "Mwords");
    ("decompose.iterations", "count");
    ("decompose.compressed_nodes", "count");
    ("decompose.atypical_edges", "count");
    ("core.glue_s", "s");
    ("base.s", "s");
    ("base.alloc_mw", "Mwords");
    ("base.line_structure_s", "s");
    ("base.compile_s", "s");
    ("base.linial_s", "s");
    ("base.kw_s", "s");
    ("base.kw_alloc_mw", "Mwords");
    ("base.kw_rounds", "rounds");
    ("base.to_bound_s", "s");
    ("base.rest_s", "s");
    ("base.present_nodes", "count");
    ("base.max_degree", "count");
    ("base.line_nodes", "count");
    ("base.line_edges", "count");
    ("gather.s", "s");
    ("gather.calls", "count");
    ("stars.s", "s");
    ("stars.calls", "count");
    ("validate.s", "s");
    ("validate.alloc_mw", "Mwords");
    ("digest.s", "s");
    ("peak_rss_mb", "MB");
    ("trace.solve_s", "s");
    ("trace.overhead_frac", "ratio");
    ("serve.queue_ms_p50", "ms");
    ("serve.queue_ms_p90", "ms");
    ("serve.server_ms_p50", "ms");
    ("serve.mis.p50_ms", "ms");
    ("serve.edge-coloring.p50_ms", "ms");
    ("serve.flood.p50_ms", "ms");
    ("serve.cold.p50_ms", "ms");
    ("serve.warm.p50_ms", "ms");
    ("serve.p99_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.batches", "count");
    ("serve.max_batch", "count");
    ("serve.topo_cache_hit_ratio", "ratio");
    ("serve.gen_late_ms_max", "ms");
    ("serve.backlog_max", "count");
  ]

let workload_names = List.map (fun w -> w.Batch.name) Batch.workloads @ [ "serve-mix" ]

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  groups : Json.t list;  (** trace groups, one per traced process *)
}

(* ---------- batch workloads: the parent side ---------- *)

let run_child exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | last :: _ -> Json.parse last
    | [] -> failwith "sample process printed nothing")
  | _ -> failwith "sample process failed"

let num j key =
  match Option.bind (Json.member key j) Json.to_float with
  | Some x -> x
  | None -> failwith ("sample result without " ^ key)

let metric j key =
  match Json.member "metrics" j with
  | Some m -> num m key
  | None -> failwith "sample result without metrics"

let str j key =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> failwith ("sample result without " ^ key)

let times j =
  match Option.bind (Json.member "times" j) Json.to_list with
  | Some l ->
    Array.of_list
      (List.map
         (fun x ->
           match Json.to_float x with Some t -> t | None -> failwith "sample time not a number")
         l)
  | None -> failwith "sample result without times"

(* Samples alternate untraced / traced (traced runs only) until the next
   one would overrun [seconds]; at least one of each kind runs. *)
let batch_samples (w : Batch.workload) ~n ~seed ~seconds ~samples ~traced =
  let exe = Sys.executable_name in
  let kinds = if traced then [| false; true |] else [| false |] in
  let start = Unix.gettimeofday () in
  let rec go i walls acc =
    let kind = kinds.(i mod Array.length kinds) in
    let enough =
      match samples with
      | Some k -> i >= k * Array.length kinds
      | None ->
        i >= Array.length kinds
        && Unix.gettimeofday () -. start +. Stats.median (Array.of_list walls)
           > seconds
    in
    if enough then List.rev acc
    else begin
      let t0 = Unix.gettimeofday () in
      let j =
        run_child exe
          [ "--sample"; w.name; "--seed"; string_of_int seed; "--n";
            string_of_int n; "--trace"; (if kind then "1" else "0") ]
      in
      go (i + 1) ((Unix.gettimeofday () -. t0) :: walls) ((kind, j) :: acc)
    end
  in
  go 0 [] []

let run_batch (w : Batch.workload) ~n ~seed ~seconds ~samples ~traced =
  let all = batch_samples w ~n ~seed ~seconds ~samples ~traced in
  (match all with
  | [] -> ()
  | (_, first) :: rest ->
    List.iter
      (fun (_, j) ->
        if str j "digest" <> str first "digest" || num j "rounds" <> num first "rounds"
        then failwith (w.name ^ ": samples of one instance disagree"))
      rest);
  let plain = List.filter_map (fun (k, j) -> if k then None else Some j) all
  and traced_js = List.filter_map (fun (k, j) -> if k then Some j else None) all in
  let values js key = Array.of_list (List.map (fun j -> metric j key) js) in
  let med js key = Stats.median (values js key) in
  let count key = List.fold_left (fun acc (_, j) -> acc + int_of_float (num j key)) 0 all in
  (* Every untraced sample plays the same calls, the cold one first:
     each call's latency is its fastest sample. *)
  let calls = Stats.fastest_per_request (List.map times plain) in
  let warm = Array.sub calls 1 (Array.length calls - 1) in
  let fastest_warm = Stats.quantile warm 0. in
  let metrics =
    if not traced then
      [
        ("setup_s", med plain "setup_s");
        ("solve_s", fastest_warm);
        ("request_p50_ms", 1000. *. Stats.median calls);
        ("request_p90_ms", 1000. *. Stats.quantile calls 0.9);
        ("capacity_rps", float_of_int (Array.length warm) /. Array.fold_left ( +. ) 0. warm);
        ("top_heap_mb", med plain "top_heap_mb");
        ("local_rounds", num (List.hd plain) "rounds");
      ]
    else
      let layer (name, _) =
        match name with
        | "trace.overhead_frac" ->
          Some
            ( name,
              (Stats.quantile (values traced_js "trace.solve_s") 0. /. fastest_warm) -. 1. )
        | _ -> (
          match Option.bind (Json.member "metrics" (List.hd traced_js)) (Json.member name) with
          | Some _ -> Some (name, med traced_js name)
          | None -> None)
      in
      List.filter_map layer layer_units
  in
  let groups =
    List.mapi
      (fun i j ->
        Json.Obj
          [
            ("workload", Json.Str w.name);
            ("sample", Json.Num (float_of_int i));
            ("spans", Option.value ~default:(Json.Arr []) (Json.member "spans" j));
          ])
      traced_js
  in
  { attempted = count "attempted"; failed = count "failed"; metrics; groups }

(* ---------- serve-mix ---------- *)

let default_daemon () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../../bin/tree_local_serve.exe"

let run_serve ~daemon ~n ~seed ~seconds ~traced =
  if not (Sys.file_exists daemon) then
    failwith ("serve-mix: daemon binary not found at " ^ daemon);
  let r = Serve_mix.run ~daemon ~n ~seed ~seconds ~traced in
  let groups =
    if traced then
      [
        Json.Obj
          [
            ("workload", Json.Str "serve-mix");
            ("sample", Json.Num 0.);
            ("spans", Json.Arr (List.map Tracer.to_json (Tracer.spans ())));
          ];
      ]
    else []
  in
  {
    attempted = r.Serve_mix.attempted;
    failed = r.Serve_mix.failed;
    metrics = r.Serve_mix.metrics;
    groups;
  }

(* ---------- output ---------- *)

(* Complete the metric list in declaration order: end-to-end metrics
   must all be measured; a per-layer metric a workload has no layer for
   reads 0. *)
let complete ~traced ~workload metrics =
  let units = if traced then layer_units else end_to_end_units in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | Some v when Float.is_finite v -> (name, v, unit)
      | Some _ -> failwith (Printf.sprintf "%s: %s is not finite" workload name)
      | None when traced -> (name, 0., unit)
      | None -> failwith (Printf.sprintf "%s: %s was not measured" workload name))
    units

let metric_json rows =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       rows)

let main ~workloads ~seed ~seconds ~trace ~n ~samples ~daemon =
  let traced = trace <> "0" in
  let results =
    List.map
      (fun name ->
        Tracer.finished := [];
        let r =
          match List.find_opt (fun w -> w.Batch.name = name) Batch.workloads with
          | Some w ->
            let n = Option.value n ~default:w.Batch.default_n in
            run_batch w ~n ~seed ~seconds ~samples ~traced
          | None ->
            let n = Option.value n ~default:Serve_mix.default_n in
            run_serve ~daemon ~n ~seed ~seconds ~traced
        in
        let rows = complete ~traced ~workload:name r.metrics in
        List.iter
          (fun (metric, v, unit) -> Printf.printf "%s %s %.6g %s\n%!" name metric v unit)
          rows;
        (name, r, rows))
      workloads
  in
  (if traced && trace <> "1" then
     Tracer.write ~file:trace (List.concat_map (fun (_, r, _) -> r.groups) results));
  let attempted = List.fold_left (fun acc (_, r, _) -> acc + r.attempted) 0 results
  and failed = List.fold_left (fun acc (_, r, _) -> acc + r.failed) 0 results in
  let metrics =
    match results with
    | [ (_, _, rows) ] -> metric_json rows
    | _ ->
      metric_json
        (List.concat_map
           (fun (name, _, rows) ->
             List.map (fun (m, v, u) -> (name ^ "/" ^ m, v, u)) rows)
           results)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics);
          ]));
  if failed > 0 then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "all" and seed = ref 1 and seconds = ref 25.
  and trace = ref "0" and n = ref None and samples = ref None
  and daemon = ref (default_daemon ()) and sample = ref None in
  let positive name r =
    Arg.Int (fun x -> if x > 0 then r := Some x else raise (Arg.Bad (name ^ " must be positive")))
  in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  one of " ^ String.concat ", " workload_names ^ ", or all (default)" );
      ("--seed", Arg.Set_int seed, "S  input seed (default 1; seed 2 is held out for claims)");
      ("--seconds", Arg.Set_float seconds, "T  measuring time per workload (default 25)");
      ("--trace", Arg.Set_string trace, "0|1|FILE  per-layer run; FILE also receives the spans");
      ("--n", positive "--n" n, "N  instance size of every workload");
      ( "--samples",
        positive "--samples" samples,
        "K  batch samples of each kind instead of filling --seconds" );
      ("--daemon", Arg.Set_string daemon, "PATH  tree_local_serve.exe to drive");
      ( "--sample",
        Arg.String (fun s -> sample := Some s),
        "W  (internal) run one batch sample and print it" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "e2e [options]";
  try
    match !sample with
    | Some name ->
      let w =
        match List.find_opt (fun w -> w.Batch.name = name) Batch.workloads with
        | Some w -> w
        | None -> failwith ("unknown batch workload " ^ name)
      in
      let n = Option.value !n ~default:w.Batch.default_n in
      print_endline
        (Json.to_string (Batch.sample w ~n ~seed:!seed ~traced:(!trace <> "0")))
    | None ->
      let workloads =
        if !workload = "all" then workload_names
        else if List.mem !workload workload_names then [ !workload ]
        else raise (Arg.Bad ("unknown workload " ^ !workload))
      in
      main ~workloads ~seed:!seed ~seconds:!seconds ~trace:!trace ~n:!n
        ~samples:!samples ~daemon:!daemon
  with
  | Failure msg | Arg.Bad msg ->
    prerr_endline ("e2e: error: " ^ msg);
    exit 2
