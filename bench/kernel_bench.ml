(* B1-B5: wall-clock microbenchmarks of the computational kernels
   (Bechamel). The paper's metric is LOCAL rounds (covered by E1-E12);
   these benchmarks track the simulator's own throughput so regressions
   in the implementation are visible. *)

open Bechamel
open Toolkit

module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Labeling = Tl_problems.Labeling

let n = 10_000

let tree = lazy (Gen.random_tree ~n ~seed:71)
let union = lazy (Gen.forest_union ~n ~arboricity:2 ~seed:73)
let ids = lazy (Ids.permuted ~n ~seed:79)

let b1_rake_compress () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  ignore (Tl_decompose.Rake_compress.run tree ~k:4 ~ids)

let b2_arb_decompose () =
  let g = Lazy.force union and ids = Lazy.force ids in
  ignore (Tl_decompose.Arb_decompose.run g ~a:2 ~k:10 ~ids)

let b3_cv_coloring () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  let parent = Tl_graph.Tree.parents_forest tree in
  ignore
    (Tl_symmetry.Cole_vishkin.color3 ~nodes:(Array.init n Fun.id) ~parent ~ids
       ~color:(Array.make n (-1)))

let b4_base_coloring () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  let sg = Semi_graph.of_graph tree in
  let labeling = Labeling.create tree in
  ignore (Tl_symmetry.Algos.deg_plus_one_coloring sg ~ids labeling)

let b5_theorem1_mis () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  ignore (Tl_core.Pipeline.mis_on_tree ~tree ~ids ())

let tests =
  Test.make_grouped ~name:"kernels"
    [
      Test.make ~name:"B1 rake-and-compress 10k" (Staged.stage b1_rake_compress);
      Test.make ~name:"B2 algorithm-3 10k a=2" (Staged.stage b2_arb_decompose);
      Test.make ~name:"B3 CV 3-coloring 10k" (Staged.stage b3_cv_coloring);
      Test.make ~name:"B4 base (deg+1)-coloring 10k" (Staged.stage b4_base_coloring);
      Test.make ~name:"B5 theorem-1 MIS pipeline 10k" (Staged.stage b5_theorem1_mis);
    ]

(* ---------- shared by B7 and B10-B12 ---------- *)

module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Trace = Tl_engine.Trace
module Flat = Tl_engine.Flat

type mode_result = {
  mode : string;
  domains : int;  (* domains the mode actually runs on, not host cores *)
  wall_s : float;
  rounds : int;
  steps : int;
  ok : bool;  (* bit-identical to the experiment's reference arm *)
}

(* ---------- B7: component-solve pool (merges into BENCH_engine.json) ----------

   Times the sequential vs pooled Theorem 12 / Theorem 15 executions —
   the per-component gather-solve and the per-star Π* solving fanned
   over OCaml domains — and merges the measurements into
   BENCH_engine.json (the kernels/modes schema bench/regress.exe
   gates). Pool widths beyond the host's core count measure the pool's
   overhead honestly rather than a speedup. Sizes are overridable via
   TL_POOL_BENCH_N (CI smoke runs one small size; its kernel index 0
   still aligns with the committed baseline's first size). *)

module Graph = Tl_graph.Graph
module Json = Tl_obs.Json
module Theorem1 = Tl_core.Theorem1
module Theorem2 = Tl_core.Theorem2
module Span = Tl_obs.Span

let pool_sizes () =
  match Option.bind (Sys.getenv_opt "TL_POOL_BENCH_N") int_of_string_opt with
  | Some n when n > 0 -> [ n ]
  | _ -> [ 100_000; 500_000; 1_000_000 ]

let pool_widths = [ 1; 2; 4 ]

type pool_row = {
  width : int;
  pool_wall_s : float;
  total_rounds : int;
  identical : bool;  (* labeling bit-identical to the width-1 run *)
}

(* Best-of-[reps]. *)
let bench_pool_widths ~reps ~run ~labels =
  let time w =
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = run w in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let (seq_labels, seq_rounds), seq_t = time 1 in
  { width = 1; pool_wall_s = seq_t; total_rounds = seq_rounds;
    identical = true }
  :: List.filter_map
       (fun w ->
         if w = 1 then None
         else begin
           let (l, rounds), t = time w in
           Some
             {
               width = w;
               pool_wall_s = t;
               total_rounds = rounds;
               identical = labels l = labels seq_labels;
             }
         end)
       pool_widths

let pool_kernel_json ~name ~n rows =
  let seq_t = (List.find (fun r -> r.width = 1) rows).pool_wall_s in
  Json.Obj
    [
      ("kernel", Json.Str name);
      ("n", Json.Num (float_of_int n));
      ("deterministic", Json.Bool (List.for_all (fun r -> r.identical) rows));
      ( "modes",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ( "mode",
                     Json.Str
                       (if r.width = 1 then "seq"
                        else Printf.sprintf "pool:%d" r.width) );
                   ("domains", Json.Num (float_of_int r.width));
                   ("wall_s", Json.Num r.pool_wall_s);
                   ("rounds", Json.Num (float_of_int r.total_rounds));
                   ( "speedup_vs_seq",
                     Json.Num
                       (if r.pool_wall_s > 0. then seq_t /. r.pool_wall_s
                        else 0.) );
                 ])
             rows) );
    ]

(* Rewrite [file] with [kernels] merged in: existing kernels keep their
   place, same-named ones are replaced. A missing or unreadable file
   degrades to a fresh header. *)
let merge_into_engine_json ~file kernels =
  let fresh =
    [
      ("bench", Json.Str "engine");
      ( "cores",
        Json.Num (float_of_int (Domain.recommended_domain_count ())) );
    ]
  in
  let base_fields =
    if Sys.file_exists file then
      match Json.parse_file file with
      | Json.Obj fields -> fields
      | _ -> fresh
      | exception _ -> fresh
    else fresh
  in
  let new_names =
    List.filter_map
      (fun k -> Option.bind (Json.member "kernel" k) Json.to_str)
      kernels
  in
  let kept =
    Option.bind (List.assoc_opt "kernels" base_fields) Json.to_list
    |> Option.value ~default:[]
    |> List.filter (fun k ->
           match Option.bind (Json.member "kernel" k) Json.to_str with
           | Some name -> not (List.mem name new_names)
           | None -> true)
  in
  let fields =
    List.remove_assoc "kernels" base_fields
    @ [ ("kernels", Json.Arr (kept @ kernels)) ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj fields));
  output_char oc '\n';
  close_out oc

let run_pool () =
  let sizes = pool_sizes () in
  Util.heading
    (Printf.sprintf
       "B7: component-solve pool — sequential vs pooled Theorem 12/15 (n in \
        {%s}, host cores %d)"
       (String.concat ", " (List.map string_of_int sizes))
       (Domain.recommended_domain_count ()));
  let mis_spec =
    {
      Theorem1.problem = Tl_problems.Mis.problem;
      base_algorithm = Tl_symmetry.Algos.mis;
      solve_edge_list = Tl_problems.Mis.solve_edge_list;
    }
  in
  let matching_spec =
    {
      Theorem2.problem = Tl_problems.Matching.problem;
      base_algorithm = Tl_symmetry.Algos.maximal_matching;
      solve_node_list = Tl_problems.Matching.solve_node_list;
    }
  in
  let labels g l = List.init (Graph.n_half_edges g) (Labeling.get l) in
  (* the span tree of the last seq run of each kernel and size, for the
     base algorithm's split; a span root costs a few records per run *)
  let seq_spans = ref [] in
  let spanned name n w run =
    if w > 1 then run ()
    else begin
      let r, root = Span.run name run in
      seq_spans := (name, (n, root)) :: List.remove_assoc name !seq_spans;
      r
    end
  in
  let kernels =
    List.concat
      (List.mapi
         (fun i n ->
           let reps = if n >= 500_000 then 1 else 2 in
           let ids = Ids.permuted ~n ~seed:79 in
           let tree = Gen.random_tree ~n ~seed:71 in
           let t1 = Printf.sprintf "t1-mis-pool.%d" i in
           let t1_rows =
             bench_pool_widths ~reps
               ~run:(fun w ->
                 spanned t1 n w (fun () ->
                     let r =
                       Theorem1.run ~workers:w ~spec:mis_spec ~tree ~ids
                         ~f:Tl_core.Complexity.f_linear ()
                     in
                     (r.Theorem1.labeling, Tl_local.Round_cost.total r.Theorem1.cost)))
               ~labels:(labels tree)
           in
           let graph = Gen.forest_union ~n ~arboricity:2 ~seed:73 in
           let t2 = Printf.sprintf "t2-matching-pool.%d" i in
           let t2_rows =
             bench_pool_widths ~reps
               ~run:(fun w ->
                 spanned t2 n w (fun () ->
                     let r =
                       Theorem2.run ~workers:w ~spec:matching_spec ~graph ~a:2
                         ~ids ~f:Tl_core.Complexity.f_linear ()
                     in
                     (r.Theorem2.labeling, Tl_local.Round_cost.total r.Theorem2.cost)))
               ~labels:(labels graph)
           in
           [ (t1, n, t1_rows); (t2, n, t2_rows) ])
         sizes)
  in
  let rows =
    List.concat_map
      (fun (name, n, rows) ->
        let seq_t = (List.find (fun r -> r.width = 1) rows).pool_wall_s in
        List.map
          (fun r ->
            [
              name;
              Util.i n;
              (if r.width = 1 then "seq" else Printf.sprintf "pool:%d" r.width);
              Util.i r.total_rounds;
              Printf.sprintf "%.4f" r.pool_wall_s;
              Printf.sprintf "%.2fx"
                (if r.pool_wall_s > 0. then seq_t /. r.pool_wall_s else 0.);
              Util.pass_fail r.identical;
            ])
          rows)
      kernels
  in
  Util.table
    ~header:[ "kernel"; "n"; "mode"; "rounds"; "wall s"; "vs seq"; "identical" ]
    rows;
  (* base algorithm A's steps, from the child spans of "base" *)
  let steps =
    [ "compile"; "line-csr"; "linial"; "kw"; "to-bound"; "class-sweep"; "label" ]
  in
  let split_rows =
    List.rev_map
      (fun (name, (n, root)) ->
        let base = List.find (fun c -> Span.name c = "base") (Span.children root) in
        let step_s step =
          match List.find_opt (fun c -> Span.name c = step) (Span.children base) with
          | Some c -> Printf.sprintf "%.4f" (Span.elapsed_s c)
          | None -> "-"
        in
        [ name; Util.i n; Printf.sprintf "%.4f" (Span.elapsed_s base) ]
        @ List.map step_s steps)
      !seq_spans
  in
  Printf.printf "\nbase algorithm A, one seq run per kernel and size (s):\n";
  Util.table ~header:([ "kernel"; "n"; "base" ] @ steps) split_rows;
  merge_into_engine_json ~file:"BENCH_engine.json"
    (List.map (fun (name, n, rows) -> pool_kernel_json ~name ~n rows) kernels);
  Printf.printf "merged %d pool kernels into BENCH_engine.json\n"
    (List.length kernels)

(* ---------- B10: tl_metrics overhead (merges into BENCH_engine.json) ----------

   Measures what the live metrics registry costs on the hottest loop we
   have: the flat flood kernel under the active-set engine, once with the
   registry disabled (the one-shot CLI default — engine/pool hooks
   uninstalled, every metrics guard a single relaxed Atomic read)
   and once with Tl_obs.Metrics.enable () installed, which also turns on
   per-run trace collection feeding the engine_* counters and the
   engine_run_seconds histogram. Both best-of-reps wall clocks merge
   into BENCH_engine.json as kernel "metrics-overhead" (modes
   "metrics-off" / "metrics-on"), so bench/regress.exe gates the
   instrumentation cost like any other kernel; the acceptance bar —
   metrics-on within 3% of metrics-off — is printed as its own check
   (with the regress absolute floor for smoke-sized runs). The check
   reads the median of the interleaved pairs' on/off ratios, not the
   two minima: on the ~0.3 s flood the best-of spread exceeds 3% on
   both sides, so comparing minima failed unchanged code in about half
   the runs. Size is
   overridable via TL_METRICS_BENCH_N (CI smoke). *)

module Metrics = Tl_obs.Metrics

let metrics_bench_n () =
  match Option.bind (Sys.getenv_opt "TL_METRICS_BENCH_N") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1_000_000

let run_metrics () =
  let n = metrics_bench_n () in
  let seed = 71 in
  Util.heading
    (Printf.sprintf
       "B10: tl_metrics overhead — flood, registry off vs on (n=%d)" n);
  let tree = Gen.random_tree ~n ~seed in
  let sg = Semi_graph.of_graph tree in
  let topo = Topology.compile sg in
  let kernel = Flat.Kernels.flood () in
  let flood () =
    let o = Flat.exec ~topo ~kernel ~stop:(Engine.Stable (n + 1)) () in
    (o.Flat.slab, o.Flat.rounds)
  in
  let reps = if n >= 500_000 then 5 else 7 in
  (* One untimed warmup per arm, then interleaved off/on pairs: each
     rep times the two arms back to back, the first arm alternating
     between reps, so page-cache state, machine-load drift and any
     second-run advantage land on both arms alike. (With off always
     first, "on" read 1-11% faster in the median pair.) *)
  Metrics.disable ();
  let off_r = ref (flood ()) in
  Metrics.enable ();
  let on_r = ref (flood ()) in
  Metrics.reset ();
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best_off = ref infinity and best_on = ref infinity in
  let pairs = ref [] in
  let arm ~enabled best last =
    if enabled then Metrics.enable () else Metrics.disable ();
    let r, dt = time flood in
    if dt < !best then best := dt;
    last := r;
    dt
  in
  for rep = 1 to reps do
    let pair =
      if rep mod 2 = 1 then
        let off_dt = arm ~enabled:false best_off off_r in
        (off_dt, arm ~enabled:true best_on on_r)
      else
        let on_dt = arm ~enabled:true best_on on_r in
        (arm ~enabled:false best_off off_r, on_dt)
    in
    pairs := pair :: !pairs
  done;
  let off_r = !off_r and on_r = !on_r in
  let off_t = !best_off and on_t = !best_on in
  let runs_seen = Metrics.counter_value (Metrics.counter "engine_runs_total") in
  let steps_seen =
    Metrics.counter_value (Metrics.counter "engine_steps_total")
  in
  Metrics.disable ();
  let identical = off_r = on_r in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let ratio = median (List.map (fun (off, on) -> on /. off) !pairs) in
  let gap = median (List.map (fun (off, on) -> on -. off) !pairs) in
  Util.table
    ~header:[ "mode"; "rounds"; "wall s"; "identical" ]
    [
      [ "metrics-off"; Util.i (snd off_r); Printf.sprintf "%.4f" off_t; "-" ];
      [
        "metrics-on"; Util.i (snd on_r); Printf.sprintf "%.4f" on_t;
        Util.pass_fail identical;
      ];
    ];
  Printf.printf "\nengine counters while enabled: runs=%d steps=%d (%s)\n"
    runs_seen steps_seen
    (Util.pass_fail (runs_seen = reps && steps_seen > 0));
  Printf.printf
    "metrics-on within 3%% of metrics-off (median of %d interleaved \
     pairs): %s (%+.2f%%, %+.4f s)\n"
    reps
    (Util.pass_fail (ratio <= 1.03 || gap <= 0.005))
    (100. *. (ratio -. 1.))
    gap;
  merge_into_engine_json ~file:"BENCH_engine.json"
    [
      Json.Obj
        [
          ("kernel", Json.Str "metrics-overhead");
          ("n", Json.Num (float_of_int n));
          ("deterministic", Json.Bool identical);
          ( "modes",
            Json.Arr
              (List.map
                 (fun (mode, t, rounds) ->
                   Json.Obj
                     [
                       ("mode", Json.Str mode);
                       ("domains", Json.Num 1.);
                       ("wall_s", Json.Num t);
                       ("rounds", Json.Num (float_of_int rounds));
                     ])
                 [
                   ("metrics-off", off_t, snd off_r);
                   ("metrics-on", on_t, snd on_r);
                 ]) );
        ];
    ];
  Printf.printf "merged metrics-overhead into BENCH_engine.json\n"

(* ---------- B11: flat slabs + domain team (merges into BENCH_engine.json) ----------

   Times flood and greedy MIS on the flat slab path, sequential and
   fanned over the persistent domain team, asserting every par arm
   bit-identical to flat:seq. Also measures the flat hot path's
   minor-heap allocation per step on an untraced flat:seq run and
   merges it as its own pseudo-kernel row ("flat-alloc", wall_s =
   words/step): bench/regress.exe then gates allocation regressions
   through its existing absolute floor, no new tooling. Size is
   overridable via TL_FLAT_BENCH_N (CI smoke). *)

let flat_bench_n () =
  match Option.bind (Sys.getenv_opt "TL_FLAT_BENCH_N") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1_000_000

(* Step count of one traced run of [f]; rounds and steps are
   deterministic per mode, so one extra run outside the timing loop. *)
let flat_steps_of f =
  let traces = ref [] in
  let saved = !Engine.trace_sink in
  Engine.trace_sink := Some (fun t -> traces := t :: !traces);
  Fun.protect
    ~finally:(fun () -> Engine.trace_sink := saved)
    (fun () ->
      ignore (f ());
      List.fold_left
        (fun acc t -> acc + (Trace.metrics t).Trace.steps)
        0 !traces)

let flat_pars = [| 1; 2; 4 |]

let flat_mode par =
  if par <= 1 then "flat:seq" else Printf.sprintf "flat:par:%d" par

(* One kernel's comparison rows: the flat path at par in {1, 2, 4}, each
   checked against the par = 1 arm. Trials are interleaved — each rep
   times every arm back to back, after one untimed warmup apiece — so
   machine load drift lands on all arms alike (the same bias B10
   corrects for; all-of-one-arm-then-the-next made ratios on a busy host
   a function of run order, not of the code). *)
let flat_kernel_rows ~reps ~run_flat_par =
  let warm = Array.map (fun par -> run_flat_par par) flat_pars in
  let best = Array.make (Array.length flat_pars) infinity in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  for _ = 1 to reps do
    Array.iteri
      (fun i par ->
        let r, dt = time (fun () -> run_flat_par par) in
        if dt < best.(i) then best.(i) <- dt;
        warm.(i) <- r)
      flat_pars
  done;
  let seq = warm.(0) in
  List.mapi
    (fun i par ->
      let o = warm.(i) in
      {
        mode = flat_mode par;
        domains = max 1 par;
        wall_s = best.(i);
        rounds = o.Flat.rounds;
        steps = flat_steps_of (fun () -> run_flat_par par);
        ok = o.Flat.slab = seq.Flat.slab && o.Flat.rounds = seq.Flat.rounds;
      })
    (Array.to_list flat_pars)

(* the kernels/modes JSON of one kernel's rows, each with its speedup
   over the flat:seq row *)
let modes_kernel_json ~name ~n rows =
  let seq_t = (List.find (fun r -> r.mode = "flat:seq") rows).wall_s in
  Json.Obj
    [
      ("kernel", Json.Str name);
      ("n", Json.Num (float_of_int n));
      ("deterministic", Json.Bool (List.for_all (fun r -> r.ok) rows));
      ( "modes",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("mode", Json.Str r.mode);
                   ("domains", Json.Num (float_of_int r.domains));
                   ("wall_s", Json.Num r.wall_s);
                   ("rounds", Json.Num (float_of_int r.rounds));
                   ("steps", Json.Num (float_of_int r.steps));
                   ( "speedup_vs_seq",
                     Json.Num (if r.wall_s > 0. then seq_t /. r.wall_s else 0.)
                   );
                 ])
             rows) );
    ]

let run_flat () =
  let n = flat_bench_n () in
  let seed = 71 in
  Util.heading
    (Printf.sprintf
       "B11: flat state slabs + persistent domain team — flat:seq vs \
        flat:par:N (n=%d)"
       n);
  let tree = Gen.random_tree ~n ~seed in
  let sg = Semi_graph.of_graph tree in
  let topo = Topology.compile sg in
  let ids = Ids.permuted ~n ~seed:(seed + 8) in
  (* best-of-5 even at full size: the arms are interleaved, so more reps
     buy more quiet-window samples for every arm at once *)
  let reps = 5 in
  let max_rounds = n + 1 in
  let flood_kernel = Flat.Kernels.flood () in
  let flat_flood par =
    Flat.exec ~par ~topo ~kernel:flood_kernel ~stop:(Engine.Stable max_rounds)
      ()
  in
  let mis_kernel = Flat.Kernels.mis_local_max ~ids in
  let flat_mis par =
    Flat.exec ~par ~topo ~kernel:mis_kernel ~stop:(Engine.Halted max_rounds) ()
  in
  let kernels =
    [
      ("flat-flood", flat_kernel_rows ~reps ~run_flat_par:flat_flood);
      ("flat-mis", flat_kernel_rows ~reps ~run_flat_par:flat_mis);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, rows) ->
        let seq_t = (List.find (fun r -> r.mode = "flat:seq") rows).wall_s in
        List.map
          (fun r ->
            [
              name;
              r.mode;
              Util.i r.rounds;
              Util.i r.steps;
              Printf.sprintf "%.4f" r.wall_s;
              Printf.sprintf "%.2fx"
                (if r.wall_s > 0. then seq_t /. r.wall_s else 0.);
              Util.pass_fail r.ok;
            ])
          rows)
      kernels
  in
  Util.table
    ~header:
      [ "kernel"; "mode"; "rounds"; "steps"; "wall s"; "vs flat:seq";
        "identical" ]
    rows;
  (* allocation per step on the untraced flat:seq hot path: the state
     slabs go straight to the major heap (>= 256 words), so the
     bracketed minor-words delta is the per-round bookkeeping budget —
     a handful of words for the whole run, orders of magnitude below
     one word per step. *)
  let flood_steps =
    let rows = List.assoc "flat-flood" kernels in
    (List.find (fun r -> r.mode = "flat:seq") rows).steps
  in
  ignore (flat_flood 1);
  let w0 = Gc.minor_words () in
  ignore (flat_flood 1);
  let w1 = Gc.minor_words () in
  let words_per_step =
    if flood_steps > 0 then (w1 -. w0) /. float_of_int flood_steps else 0.
  in
  Printf.printf "\nflat:seq minor words/step: %.6f over %d steps (%s)\n"
    words_per_step flood_steps
    (Util.pass_fail (words_per_step < 0.01));
  merge_into_engine_json ~file:"BENCH_engine.json"
    (List.map (fun (name, rows) -> modes_kernel_json ~name ~n rows) kernels
    @ [
        Json.Obj
          [
            ("kernel", Json.Str "flat-alloc");
            ("n", Json.Num (float_of_int n));
            ("deterministic", Json.Bool true);
            ( "modes",
              Json.Arr
                [
                  Json.Obj
                    [
                      ("mode", Json.Str "flat:seq");
                      ("domains", Json.Num 1.);
                      ("wall_s", Json.Num words_per_step);
                      ("rounds", Json.Num (float_of_int flood_steps));
                    ];
                ] );
          ];
      ]);
  Printf.printf "merged flat-flood / flat-mis / flat-alloc into BENCH_engine.json\n"

(* ---------- B12: process-parallel shard backend (merges into BENCH_engine.json) ----------

   Times the in-process flat:seq run against the tl_proc backend — one
   shard per forked Unix process, halos over socketpairs in the tlp
   binary wire format — on the flood and greedy-MIS kernels. Both arms
   run through Coordinator.run_kernel; the proc-flat:4 rows step the
   kernels inside the workers. A "proc-alloc" pseudo-row records
   the scalar codec's minor words per put+get pair (wall_s = words/op,
   exactly 0 in steady state), so regress.exe gates allocation creep on
   the wire hot path through its absolute floor.

   CRITICAL ordering: every proc measurement runs before any mode that
   can spawn a domain (par, pool) — OCaml 5 forbids fork once a
   domain has ever been spawned. For the same reason B12 skips itself
   with a note when domains already exist in this process (a full-suite
   `bench/main.exe` run after B7): run it standalone, one process per
   experiment, as `make bench-full` and CI do. Size is overridable via
   TL_PROC_BENCH_N (CI smoke). *)

module Proc = Tl_proc.Coordinator
module Proc_wire = Tl_proc.Wire
module Team = Tl_engine.Team
module Shard_plan = Tl_shard.Plan

let proc_bench_n () =
  match Option.bind (Sys.getenv_opt "TL_PROC_BENCH_N") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1_000_000

(* Best-of-[reps]; every run builds its own plan (fork and prologue
   shipping included), after an untimed pre-rep compaction: plan and
   per-shard context building allocate many large arrays, which crawl
   through a fragmented major heap left behind by whatever ran before —
   untimed defragmentation removes that noise. One untimed run first:
   the process's first forks and major-heap growth would otherwise land
   on whichever arm runs first (on a 2-core host at n = 10^6, a first
   proc-flat:4 flood read 1.34-1.54 s against 1.02-1.21 s for the same
   arm right after). *)
let bench_proc_arm ~reps f =
  ignore (f ());
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let codec_words_per_op () =
  let b = Bytes.create 16 in
  Proc_wire.put_i64 b 0 42;
  ignore (Proc_wire.get_i64 b 0);
  let ops = 1_000_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to ops do
    Proc_wire.put_i64 b 0 (i * 1_000_003);
    if Proc_wire.get_i64 b 0 <> i * 1_000_003 then assert false
  done;
  let dw = Gc.minor_words () -. w0 in
  (* subtract nothing: the only allocation in the bracket is the
     Gc.minor_words float box itself, under one word per thousand ops *)
  (Float.max 0. (dw -. 8.) /. float_of_int ops, ops)

let run_proc () =
  let n = proc_bench_n () in
  let seed = 71 in
  Util.heading
    (Printf.sprintf
       "B12: process-parallel shard backend — flat:seq vs flat kernels on \
        proc:4 over the tlp wire (n=%d)"
       n);
  if Team.spawns () > 0 then
    Printf.printf
      "domains already spawned in this process — fork is unavailable, \
       skipping B12\n\
       (run it standalone: dune exec bench/main.exe -- B12)\n"
  else begin
    let tree = Gen.random_tree ~n ~seed in
    let sg = Semi_graph.of_graph tree in
    let topo = Topology.compile sg in
    let ids = Ids.permuted ~n ~seed:79 in
    let max_rounds = n + 1 in
    let reps = if n >= 500_000 then 1 else 2 in
    let flat_flood mode () =
      let o =
        Proc.run_kernel ~mode ~topo
          ~kernel_for:(Proc.Kernels.flood ())
          ~stop:(Engine.Stable max_rounds) ()
      in
      (Flat.column o ~slot:0, o.Flat.rounds)
    in
    let flat_mis mode () =
      let o =
        Proc.run_kernel ~mode ~topo
          ~kernel_for:(Proc.Kernels.mis_local_max ~ids)
          ~stop:(Engine.Halted max_rounds) ()
      in
      (Flat.column o ~slot:0, o.Flat.rounds)
    in
    (* 1. the proc arm, before anything can spawn a domain *)
    let proc_arms flat =
      [ ("proc-flat:4", bench_proc_arm ~reps (flat (Engine.Proc 4))) ]
    in
    let flood_proc = proc_arms flat_flood in
    let mis_proc = proc_arms flat_mis in
    (* 2. the in-process reference *)
    let flood_seq = bench_proc_arm ~reps (flat_flood Engine.Seq) in
    let mis_seq = bench_proc_arm ~reps (flat_mis Engine.Seq) in
    let rows_of (seq_r, seq_t) arms =
      { mode = "flat:seq"; domains = 1; wall_s = seq_t; rounds = snd seq_r;
        steps = 0; ok = true }
      :: List.map
           (fun (mode, (r, t)) ->
             { mode; domains = 4; wall_s = t; rounds = snd r; steps = 0;
               ok = r = seq_r })
           arms
    in
    let kernels =
      [
        ("proc-flood.0", n, rows_of flood_seq flood_proc);
        ("proc-mis.0", n, rows_of mis_seq mis_proc);
      ]
    in
    let rows =
      List.concat_map
        (fun (name, n, results) ->
          let seq_t =
            (List.find (fun r -> r.mode = "flat:seq") results).wall_s
          in
          List.map
            (fun r ->
              [
                name;
                Util.i n;
                r.mode;
                Util.i r.rounds;
                Printf.sprintf "%.4f" r.wall_s;
                Printf.sprintf "%.2fx"
                  (if r.wall_s > 0. then seq_t /. r.wall_s else 0.);
                Util.pass_fail r.ok;
              ])
            results)
        kernels
    in
    Util.table
      ~header:
        [ "kernel"; "n"; "mode"; "rounds"; "wall s"; "vs flat:seq";
          "identical" ]
      rows;
    let words_per_op, ops = codec_words_per_op () in
    Printf.printf "\nwire codec minor words/op: %.6f over %d ops (%s)\n"
      words_per_op ops
      (Util.pass_fail (words_per_op < 0.01));
    merge_into_engine_json ~file:"BENCH_engine.json"
      (List.map
         (fun (name, n, results) -> modes_kernel_json ~name ~n results)
         kernels
      @ [
          Json.Obj
            [
              ("kernel", Json.Str "proc-alloc");
              ("n", Json.Num (float_of_int n));
              ("deterministic", Json.Bool true);
              ( "modes",
                Json.Arr
                  [
                    Json.Obj
                      [
                        ("mode", Json.Str "codec");
                        ("domains", Json.Num 1.);
                        ("wall_s", Json.Num words_per_op);
                        ("rounds", Json.Num (float_of_int ops));
                      ];
                  ] );
            ];
        ]);
    Printf.printf
      "merged proc-flood / proc-mis / proc-alloc into BENCH_engine.json\n"
  end

let run () =
  Util.heading "B1-B5: kernel wall-clock microbenchmarks (Bechamel)";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some [ t ] -> t
        | _ -> Float.nan
      in
      rows := [ name; Printf.sprintf "%.3f ms" (ns /. 1e6) ] :: !rows)
    results;
  Util.table ~header:[ "kernel"; "time/run" ]
    (List.sort compare !rows)
