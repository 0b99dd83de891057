(* End-to-end CLI tests run as subprocesses: profiling/report flags,
   graceful degradation on unwritable output paths, clean usage errors,
   and the regression comparator's exit-code contract. *)

module Json = Tl_obs.Json

let cli = "../bin/tree_local_cli.exe"
let regress = "../bench/regress.exe"

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run a command, returning (exit_code, stdout, stderr). *)
let run_cmd cmd_line =
  let out_f = Filename.temp_file "tl_cli_out" ".txt" in
  let err_f = Filename.temp_file "tl_cli_err" ".txt" in
  let code =
    Sys.command (Printf.sprintf "%s >%s 2>%s" cmd_line (Filename.quote out_f)
        (Filename.quote err_f))
  in
  let slurp f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove f;
    s
  in
  (code, slurp out_f, slurp err_f)

(* [run_cmd] under a deadline: the command is killed if it has not
   exited within [seconds], and the result is [None], so that a hang
   fails the test instead of stalling the suite. *)
let run_cmd_within ~seconds cmd_line =
  let out_f = Filename.temp_file "tl_cli_out" ".txt" in
  let err_f = Filename.temp_file "tl_cli_err" ".txt" in
  let pid =
    Unix.create_process "/bin/sh"
      [|
        "/bin/sh";
        "-c";
        Printf.sprintf "exec %s >%s 2>%s" cmd_line (Filename.quote out_f)
          (Filename.quote err_f);
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Some (-1)
  in
  let code = wait () in
  let slurp f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove f;
    s
  in
  let stdout = slurp out_f and stderr = slurp err_f in
  Option.map (fun code -> (code, stdout, stderr)) code

let solve_args = "solve --problem mis --family random-tree --n 60 --seed 7"

(* A command that runs the simulator: [solve] makes no engine run and
   takes no engine knobs, while [chaos] takes --engine/--trace and goes
   through the same profile and knob setup. *)
let chaos_args = "chaos --problem flood --family random-tree --n 60 --seed 7"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_profile_writes_report () =
  let out = Filename.temp_file "tl_profile" ".json" in
  let code, stdout, _ =
    run_cmd (Printf.sprintf "%s %s --profile %s" cli solve_args out)
  in
  check_int "exit 0" 0 code;
  check "solution reported valid" true (contains ~needle:"valid" stdout);
  let j = Json.parse_file out in
  Sys.remove out;
  check "schema marker" true
    (Option.bind (Json.member "tl_obs_report" j) Json.to_int = Some 1);
  let span = Option.get (Json.member "span" j) in
  check "root span is solve" true
    (Option.bind (Json.member "name" span) Json.to_str = Some "solve");
  let attrs =
    Option.value ~default:[]
      (Option.bind (Json.member "attrs" span) Json.to_assoc)
  in
  check "problem attr" true
    (List.assoc_opt "problem" attrs = Some (Json.Str "mis"));
  let child_names =
    Option.bind (Json.member "children" span) Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun c -> Option.bind (Json.member "name" c) Json.to_str)
  in
  List.iter
    (fun phase ->
      check (phase ^ " phase present") true (List.mem phase child_names))
    [ "instance"; "decompose"; "base"; "gather-solve"; "validate" ]

let test_report_tree_stdout () =
  let code, stdout, _ =
    run_cmd (Printf.sprintf "%s %s --report tree" cli solve_args)
  in
  check_int "exit 0" 0 code;
  check "tree lists decompose" true (contains ~needle:"decompose" stdout);
  check "tree lists rounds" true (contains ~needle:"rounds" stdout)

let test_profile_unwritable_dir_is_usage_error () =
  (* parse-time validation: parent directory must exist *)
  let code, _, stderr =
    run_cmd
      (Printf.sprintf "%s %s --profile /nonexistent-dir-xyz/p.json" cli
         solve_args)
  in
  check_int "cmdliner usage error" 124 code;
  check "mentions directory" true (contains ~needle:"nonexistent-dir-xyz" stderr)

let test_trace_unwritable_warns_not_fails () =
  (* --trace degrades to a warning when the file cannot be written *)
  let code, _, stderr =
    run_cmd
      (Printf.sprintf "%s %s --engine seq --trace /nonexistent-dir-xyz/t.json"
         cli chaos_args)
  in
  check_int "still exit 0" 0 code;
  check "warns on stderr" true (contains ~needle:"cannot write" stderr)

(* --profile and --trace together flush through one unified at_exit: both
   files must come out complete, with the profile lines printed before
   the trace lines (the order the two separate at_exit callbacks used to
   produce, now fixed by construction). *)
let test_profile_and_trace_flush_together () =
  let prof = Filename.temp_file "tl_profile" ".json" in
  let trace = Filename.temp_file "tl_trace" ".json" in
  let code, stdout, _ =
    run_cmd
      (Printf.sprintf "%s %s --engine seq --profile %s --trace %s" cli
         chaos_args prof trace)
  in
  check_int "exit 0" 0 code;
  let prof_j = Json.parse_file prof in
  Sys.remove prof;
  check "profile complete" true
    (Option.bind (Json.member "tl_obs_report" prof_j) Json.to_int = Some 1);
  let trace_j = Json.parse_file trace in
  Sys.remove trace;
  check "trace complete" true
    (match trace_j with Json.Arr (_ :: _) -> true | _ -> false);
  let find needle =
    let nl = String.length needle and hl = String.length stdout in
    let rec go i =
      if i + nl > hl then -1
      else if String.sub stdout i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  let p = find "profile:" and t = find "trace:" in
  check "profile line printed" true (p >= 0);
  check "trace line printed" true (t >= 0);
  check "profile flushes before trace" true (p < t)

(* Every phase of a solve is a direct loop, so its span report holds no
   [engine:<label>] span (the child a traced engine run attaches), and
   nothing prints an engine summary. *)
let test_solve_traces_no_engine_run () =
  let prof = Filename.temp_file "tl_profile" ".json" in
  let code, stdout, _ =
    run_cmd (Printf.sprintf "%s %s --profile %s" cli solve_args prof)
  in
  check_int "exit 0" 0 code;
  let prof_j = Json.parse_file prof in
  Sys.remove prof;
  let rec span_names j =
    let here =
      Option.to_list (Option.bind (Json.member "name" j) Json.to_str)
    in
    let kids =
      Option.bind (Json.member "children" j) Json.to_list
      |> Option.value ~default:[]
    in
    here @ List.concat_map span_names kids
  in
  let names = span_names (Option.get (Json.member "span" prof_j)) in
  check "spans present" true (List.mem "base" names);
  check "no engine span" true
    (not
       (List.exists
          (fun s -> String.length s >= 7 && String.sub s 0 7 = "engine:")
          names));
  check "no engine summary" true (not (contains ~needle:"engine:" stdout))

(* solve takes no engine knobs: each one is a usage error. *)
let test_solve_rejects_engine_knobs () =
  List.iter
    (fun knob ->
      let code, _, _ = run_cmd (Printf.sprintf "%s %s %s" cli solve_args knob) in
      check_int (knob ^ " exits 124") 124 code)
    [ "--engine seq"; "--shards 2"; "--trace t.json" ]

(* solve's (problem, method) pairs and tree requirements are the
   daemon's table: an unknown pair, or a tree-only method on a non-tree,
   is a usage error — never an uncaught exception. *)
let test_solve_unknown_pairs () =
  List.iter
    (fun (args, needle) ->
      let code, _, stderr =
        run_cmd (Printf.sprintf "%s solve --n 60 %s" cli args)
      in
      check_int (args ^ " exits 124") 124 code;
      check (args ^ " explains itself") true (contains ~needle stderr);
      check (args ^ " raises nothing") false
        (contains ~needle:"uncaught exception" stderr))
    [
      ("--problem nosuch", "unknown problem");
      ("--method nosuch", "has no method");
      ("--problem mis --method baseline", "has no method");
      ("--problem mis --family grid", "needs a tree instance");
      ("--problem flood", "engine workload");
    ]

(* One flusher failing must not truncate the other: with an unwritable
   trace path and a writable profile path, the trace warning appears on
   stderr and the profile still lands complete. *)
let test_failed_trace_flush_spares_profile () =
  let prof = Filename.temp_file "tl_profile" ".json" in
  let code, _, stderr =
    run_cmd
      (Printf.sprintf
         "%s %s --engine seq --profile %s --trace /nonexistent-dir-xyz/t.json"
         cli chaos_args prof)
  in
  check_int "still exit 0" 0 code;
  check "trace warns on stderr" true (contains ~needle:"cannot write" stderr);
  let prof_j = Json.parse_file prof in
  Sys.remove prof;
  check "profile survives the failed trace flush" true
    (Option.bind (Json.member "tl_obs_report" prof_j) Json.to_int = Some 1)

let test_bad_engine_is_usage_error () =
  let code, _, stderr =
    run_cmd (Printf.sprintf "%s %s --engine warp" cli chaos_args)
  in
  check_int "cmdliner usage error" 124 code;
  check "names the bad value" true (contains ~needle:"warp" stderr)

(* The family names come from the daemon's table: an unknown one is a
   usage error naming the value, on every subcommand taking --family. *)
let test_unknown_family_is_usage_error () =
  List.iter
    (fun cmd ->
      let code, _, stderr = run_cmd (Printf.sprintf "%s %s --family nosuch" cli cmd) in
      check_int (cmd ^ " exits 124") 124 code;
      check (cmd ^ " names the bad value") true (contains ~needle:"nosuch" stderr);
      check (cmd ^ " lists the families") true (contains ~needle:"balanced-tree" stderr))
    [ "solve --problem edge-coloring --n 50"; "generate --n 50"; "decompose --n 50" ]

(* decompose --kind is an enum: an unknown kind is a usage error naming
   the value, not an uncaught Failure (exit 125). *)
let test_unknown_decomposition_is_usage_error () =
  let code, _, stderr = run_cmd (Printf.sprintf "%s decompose --n 50 --kind nosuch" cli) in
  check_int "exits 124" 124 code;
  check "names the bad value" true (contains ~needle:"nosuch" stderr);
  check "lists the kinds" true (contains ~needle:"arboricity" stderr);
  check "raises nothing" false (contains ~needle:"uncaught exception" stderr)

(* Cross-argument knob validation: rejected before any work starts, with
   a usage error naming the offending value — never an uncaught
   exception from deep inside a run. *)
let test_knob_validation_usage_errors () =
  let usage_of cmd args needle =
    let code, _, stderr = run_cmd (Printf.sprintf "%s %s %s" cli cmd args) in
    check_int (cmd ^ " " ^ args ^ " exits 124") 124 code;
    check (cmd ^ " " ^ args ^ " explains itself") true (contains ~needle stderr)
  in
  let usage = usage_of "chaos" in
  (* the pool width belongs to solve; chaos creates no pool *)
  usage_of "solve" "--pool 0" "invalid pool size";
  usage_of "solve" "--pool 100" "invalid pool size 100";
  usage "--pool 2" "--pool";
  (* mode-string edge cases: zero counts, junk counts and surrounding
     whitespace must all die as usage errors naming the input, not be
     clamped or half-parsed *)
  usage "--engine par:0" "invalid engine";
  usage "--engine proc:0" "invalid engine";
  usage "--engine par:+2" "invalid engine";
  usage "--engine ' seq'" "invalid engine";
  usage "--engine 'par: 2'" "invalid engine";
  usage "--engine shard" "invalid engine";
  usage "--engine shard:4" "invalid engine";
  (* chaos steps flat kernels, which have no naive mode *)
  usage "--engine naive" "invalid engine \"naive\"";
  usage "--shards 2" "--shards";
  usage "--engine proc:50 --n 20"
    "proc count 50 exceeds the instance size n = 20"

(* The proc count is part of the mode: --engine proc:2 runs proc:2 —
   every engine run of a chaos flood is traced as proc:2 and chaos
   reports it — while a bare --engine proc is a usage error naming
   proc:N, as the daemon's admission check answers it. *)
let test_bare_proc_is_usage_error () =
  let trace = Filename.temp_file "tl_trace" ".json" in
  let code, _, _ =
    run_cmd
      (Printf.sprintf
         "%s chaos --problem flood --family random-tree --n 200 --engine \
          proc:2 --trace %s"
         cli trace)
  in
  check_int "traced chaos exit 0" 0 code;
  let modes =
    match Json.parse_file trace with
    | Json.Arr ts ->
      List.map (fun t -> Option.bind (Json.member "mode" t) Json.to_str) ts
    | _ -> []
  in
  Sys.remove trace;
  check "some engine run traced" true (modes <> []);
  check "every trace runs proc:2" true
    (List.for_all (fun m -> m = Some "proc:2") modes);
  let code, stdout, _ =
    run_cmd
      (Printf.sprintf
         "%s chaos --problem flood --family random-tree --n 200 --engine \
          proc:2"
         cli)
  in
  check_int "chaos exit 0" 0 code;
  check "chaos runs proc:2" true (contains ~needle:"engine:      proc:2" stdout);
  let code, _, stderr =
    run_cmd (Printf.sprintf "%s %s --engine proc" cli chaos_args)
  in
  check_int "bare proc exits 124" 124 code;
  check "bare proc names proc:N" true (contains ~needle:"proc:N" stderr)

(* [chaos] parses --faults and --problem at the command line: a malformed
   schedule or an unknown workload is a usage error naming the value,
   not an uncaught exception (exit 125). *)
let test_chaos_usage_errors () =
  let usage args needle =
    let code, _, stderr = run_cmd (Printf.sprintf "%s chaos --n 40 %s" cli args) in
    check_int (args ^ " exits 124") 124 code;
    check (args ^ " names the value") true (contains ~needle stderr)
  in
  usage "--faults 'bogus@@'" "bogus@@";
  usage "--faults 'seed=1;churn@1-20000:rate=0.1'" "more than 10000 rounds";
  usage "--problem nosuch" "nosuch"

(* A crash clause 10^10 rounds out: instantiating the schedule visits
   that one round, so the run ends at once; a deadline turns a walk over
   every round into a failure rather than a hung suite. *)
let test_chaos_far_round_terminates () =
  match
    run_cmd_within ~seconds:60.
      (Printf.sprintf "%s chaos --n 50 --faults 'seed=1;crash@10000000000:1'" cli)
  with
  | None -> Alcotest.fail "chaos with a crash at round 10^10 still running after 60 s"
  | Some (code, stdout, _) ->
    check_int "exit 0" 0 code;
    check "valid" true (contains ~needle:"valid:       true" stdout)

(* ---------- regress.exe ---------- *)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let bench_json_raw wall_token =
  Printf.sprintf
    {|{"bench":"engine","n":100,"seed":1,"cores":1,"kernels":[
 {"kernel":"cv3","deterministic":true,"modes":[
  {"mode":"naive","domains":1,"wall_s":%s,"rounds":5,"steps":10,"speedup_vs_naive":1.0}]}]}|}
    wall_token

let bench_json wall = bench_json_raw (Printf.sprintf "%f" wall)

let test_regress_identical_passes () =
  let f = Filename.temp_file "tl_bench" ".json" in
  write_file f (bench_json 0.5);
  let code, stdout, _ = run_cmd (Printf.sprintf "%s %s %s" regress f f) in
  Sys.remove f;
  check_int "exit 0 on identical" 0 code;
  check "prints PASS" true (contains ~needle:"PASS" stdout)

let test_regress_detects_regression () =
  let old_f = Filename.temp_file "tl_bench_old" ".json" in
  let new_f = Filename.temp_file "tl_bench_new" ".json" in
  write_file old_f (bench_json 0.5);
  write_file new_f (bench_json 5.0);
  let code, stdout, _ =
    run_cmd (Printf.sprintf "%s %s %s" regress old_f new_f)
  in
  check_int "exit 1 on regression" 1 code;
  check "prints FAIL" true (contains ~needle:"FAIL" stdout);
  (* a generous tolerance turns the same delta into a pass *)
  let code_ok, _, _ =
    run_cmd (Printf.sprintf "%s --tolerance 10.0 %s %s" regress old_f new_f)
  in
  Sys.remove old_f;
  Sys.remove new_f;
  check_int "tolerance rescues" 0 code_ok

let test_regress_zero_baseline () =
  (* a 0-second baseline must not fail on any positive measurement:
     sub-noise-floor times pass via the absolute tolerance, real times
     still fail *)
  let old_f = Filename.temp_file "tl_bench_old" ".json" in
  let new_f = Filename.temp_file "tl_bench_new" ".json" in
  write_file old_f (bench_json 0.0);
  write_file new_f (bench_json 0.003);
  let code, stdout, _ = run_cmd (Printf.sprintf "%s %s %s" regress old_f new_f) in
  check_int "noise above zero baseline passes" 0 code;
  check "delta printed in seconds" true (contains ~needle:"s  PASS" stdout);
  write_file new_f (bench_json 0.5);
  let code', _, _ = run_cmd (Printf.sprintf "%s %s %s" regress old_f new_f) in
  check_int "real time above zero baseline fails" 1 code';
  (* a raised absolute tolerance rescues it *)
  let code'', _, _ =
    run_cmd (Printf.sprintf "%s --abs-tolerance 1.0 %s %s" regress old_f new_f)
  in
  Sys.remove old_f;
  Sys.remove new_f;
  check_int "abs-tolerance rescues" 0 code''

let test_regress_nonfinite_fails () =
  (* the Json printer emits null for nan/inf metrics; a null metric must
     fail the gate (exit 1), not pass silently or die with exit 2 *)
  let old_f = Filename.temp_file "tl_bench_old" ".json" in
  let new_f = Filename.temp_file "tl_bench_new" ".json" in
  write_file old_f (bench_json 0.5);
  (* null is what the Json printer emits for a nan/inf metric *)
  write_file new_f (bench_json_raw "null");
  let code, stdout, _ = run_cmd (Printf.sprintf "%s %s %s" regress old_f new_f) in
  Sys.remove old_f;
  Sys.remove new_f;
  check_int "null metric exits 1" 1 code;
  check "row marked non-finite" true (contains ~needle:"FAIL(non-finite)" stdout)

(* Rows align by (kernel, n, mode): the same kernel and mode measured
   at another instance size is a size mismatch, which fails the gate
   instead of comparing timings of different graphs. *)
let test_regress_size_mismatch () =
  let at n =
    Printf.sprintf
      {|{"bench":"engine","n":100,"seed":1,"cores":1,"kernels":[
 {"kernel":"flood","n":%d,"deterministic":true,"modes":[
  {"mode":"seq","domains":1,"wall_s":0.5,"rounds":5}]}]}|}
      n
  in
  let old_f = Filename.temp_file "tl_bench_old" ".json" in
  let new_f = Filename.temp_file "tl_bench_new" ".json" in
  write_file old_f (at 100_000);
  write_file new_f (at 2_000);
  let code, stdout, _ =
    run_cmd (Printf.sprintf "%s %s %s" regress old_f new_f)
  in
  check_int "size mismatch exits 1" 1 code;
  check "row marked as a size mismatch" true
    (contains ~needle:"FAIL(size n=2000, old n=100000)" stdout);
  (* the kernel's own n wins over the file's: equal sizes compare *)
  write_file new_f (at 100_000);
  let code', _, _ = run_cmd (Printf.sprintf "%s %s %s" regress old_f new_f) in
  Sys.remove old_f;
  Sys.remove new_f;
  check_int "same n passes" 0 code'

let test_regress_usage_and_parse_errors () =
  let code, _, _ = run_cmd (Printf.sprintf "%s onlyone.json" regress) in
  check_int "usage error" 2 code;
  let bad = Filename.temp_file "tl_bad" ".json" in
  write_file bad "{not json";
  let code', _, stderr =
    run_cmd (Printf.sprintf "%s %s %s" regress bad bad)
  in
  Sys.remove bad;
  check_int "parse error exit 2" 2 code';
  check "reports parse failure" true (contains ~needle:"parse" stderr)

let () =
  Alcotest.run "tl_cli"
    [
      ( "profile",
        [
          Alcotest.test_case "--profile writes schema-valid report" `Quick
            test_profile_writes_report;
          Alcotest.test_case "--report tree prints phases" `Quick
            test_report_tree_stdout;
          Alcotest.test_case "--profile bad dir -> usage error" `Quick
            test_profile_unwritable_dir_is_usage_error;
          Alcotest.test_case "--trace bad dir -> warning only" `Quick
            test_trace_unwritable_warns_not_fails;
          Alcotest.test_case "bare --engine proc -> usage error" `Quick
            test_bare_proc_is_usage_error;
          Alcotest.test_case "solve traces no engine run" `Quick
            test_solve_traces_no_engine_run;
          Alcotest.test_case "solve rejects the engine knobs" `Quick
            test_solve_rejects_engine_knobs;
          Alcotest.test_case "solve: unknown pairs -> usage errors" `Quick
            test_solve_unknown_pairs;
          Alcotest.test_case "--profile + --trace flush together" `Quick
            test_profile_and_trace_flush_together;
          Alcotest.test_case "failed trace flush spares profile" `Quick
            test_failed_trace_flush_spares_profile;
          Alcotest.test_case "--engine bad value -> usage error" `Quick
            test_bad_engine_is_usage_error;
          Alcotest.test_case "knob cross-validation -> usage errors" `Quick
            test_knob_validation_usage_errors;
          Alcotest.test_case "--family unknown -> usage error" `Quick
            test_unknown_family_is_usage_error;
          Alcotest.test_case "decompose --kind unknown -> usage error" `Quick
            test_unknown_decomposition_is_usage_error;
          Alcotest.test_case "chaos --faults/--problem -> usage errors" `Quick
            test_chaos_usage_errors;
          Alcotest.test_case "chaos: crash at round 10^10 terminates" `Quick
            test_chaos_far_round_terminates;
        ] );
      ( "regress",
        [
          Alcotest.test_case "identical inputs pass" `Quick
            test_regress_identical_passes;
          Alcotest.test_case "slowdown fails, tolerance rescues" `Quick
            test_regress_detects_regression;
          Alcotest.test_case "zero baseline uses absolute tolerance" `Quick
            test_regress_zero_baseline;
          Alcotest.test_case "non-finite metric fails" `Quick
            test_regress_nonfinite_fails;
          Alcotest.test_case "size mismatch fails" `Quick
            test_regress_size_mismatch;
          Alcotest.test_case "usage and parse errors exit 2" `Quick
            test_regress_usage_and_parse_errors;
        ] );
    ]
