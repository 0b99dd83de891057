(* Experiment harness: regenerates every quantitative claim of the paper
   (see DESIGN.md section 5 for the per-experiment index and
   EXPERIMENTS.md for paper-vs-measured outcomes).

   Usage:
     dune exec bench/main.exe                  # run everything
     dune exec bench/main.exe -- E6 E8         # run selected experiments
     dune exec bench/main.exe -- --list        # list experiment ids
     dune exec bench/main.exe -- --csv out/    # also write each table as CSV
*)

let experiments =
  [
    ("E1-E3", "rake-and-compress certificates (Lemmas 9-11)", Exp_rake_compress.run);
    ("E4-E5", "Algorithm 3 certificates (Lemmas 13-14, stars)", Exp_arb_decompose.run);
    ("E6", "Theorem 12 end-to-end on trees", Exp_theorem1.run);
    ("E7", "Theorem 15 end-to-end on bounded arboricity", Exp_theorem2.run);
    ("E8", "Theorem 3: strongly sublogarithmic edge coloring", Exp_theorem3.run);
    ("E9", "separation: edge coloring vs MIS/matching", Exp_separation.run);
    ("E10", "maximal matching on trees ([BE13] shape)", Exp_matching_tree.run);
    ("E11", "g(n) solver and Section 1.1 implications", Exp_g_table.run);
    ("E12", "arboricity sweep (Theorem 3, second part)", Exp_arboricity_sweep.run);
    ("E13", "round elimination fixed points and growth", Exp_roundelim.run);
    ("E14", "sinkless orientation in Theta(log n)", Exp_sinkless.run);
    ("A", "ablations: k, rho, b, ID schemes", Exp_ablation.run);
    ("B", "kernel wall-clock microbenchmarks", Kernel_bench.run);
    ("B7", "component-solve pool: sequential vs pooled Theorem 12/15", Kernel_bench.run_pool);
    ("B9", "serving daemon: closed-loop latency, cold vs warm cache", Serve_bench.run);
    ("B10", "tl_metrics overhead: flood with registry off vs on", Kernel_bench.run_metrics);
    ("B11", "flat state slabs + domain team: flat:seq vs flat:par:N", Kernel_bench.run_flat);
    (* B12 forks worker processes, which OCaml 5 forbids after any domain
       spawn: it self-skips in a full-suite single-process run (after
       B7 spawned the team) and is meant to run standalone, one
       process per experiment, as `make bench-full` and CI do. *)
    ("B12", "process backend: flat:seq vs flat kernels on proc:4", Kernel_bench.run_proc);
    ("B13", "tl_fault: incremental repair vs full recompute, gate overhead", Fault_bench.run);
  ]

(* GC parameters as of process start.  The bechamel microbenches
   (experiment "B") permanently set [max_overhead] to 1e6 — disabling
   automatic compaction for the rest of the process — so every
   experiment dispatched after them would otherwise run on an
   ever-fragmenting major heap and report wall times 2-7x worse than
   the same code measured standalone. *)
let initial_gc = Gc.get ()

(* Dispatch one experiment, tagging its CSV tables for the manifest.
   Restoring the GC parameters and compacting between experiments is
   measurement hygiene: the big-n experiments (B7/B12 at n = 1e6) grow
   and fragment the major heap, and a later experiment's large-array
   allocations crawl through the fragmented free lists — wall-clock
   noise that has nothing to do with the code under test. *)
let dispatch (id, _, run) =
  Util.manifest_experiment := id;
  Gc.set initial_gc;
  Gc.compact ();
  run ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    (* --csv DIR: mirror every table to CSV artifacts under DIR *)
    let rec strip acc = function
      | "--csv" :: dir :: rest ->
        Util.csv_dir := Some dir;
        strip acc rest
      | x :: rest -> strip (x :: acc) rest
      | [] -> List.rev acc
    in
    strip [] args
  in
  match args with
  | [ "--list" ] ->
    List.iter (fun (id, desc, _) -> Printf.printf "%-6s %s\n" id desc) experiments
  | [] ->
    Printf.printf
      "tree-local experiment harness — reproducing 'Towards Optimal\n\
       Deterministic LOCAL Algorithms on Trees' (PODC 2025)\n";
    List.iter dispatch experiments;
    Util.write_manifest ()
  | selected ->
    List.iter
      (fun want ->
        match
          List.find_opt
            (fun (id, _, _) ->
              id = want || String.lowercase_ascii id = String.lowercase_ascii want)
            experiments
        with
        | Some exp -> dispatch exp
        | None ->
          Printf.eprintf "unknown experiment %s (try --list)\n" want;
          exit 1)
      selected;
    Util.write_manifest ()
