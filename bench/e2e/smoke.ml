(* Smoke test of the e2e benchmark at tiny sizes, run by `dune runtest`.

   Runs every workload once untraced and once traced (n = 2000, one batch
   sample of each kind, 4 s of serving) and checks the contract the
   benchmark keeps with BENCHMARK.json: each workload prints each
   declared end-to-end metric (untraced) or per-layer metric (traced)
   exactly once, with its declared unit and a finite value; the last
   stdout line is the JSON result, with every output correct; the trace
   file holds spans for every workload. The benchmark's own gates
   (digests and rounds agreeing across samples and with the traced run,
   the replayed colouring matching Algos.proper_coloring, one digest per
   served (problem, instance), a clean daemon exit) fail the run with a
   non-zero exit.

   Usage: smoke.exe E2E_EXE BENCHMARK_JSON *)

module Json = Tl_obs.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("smoke: " ^ msg); exit 1) fmt

let field j key conv =
  match Option.bind (Json.member key j) conv with
  | Some v -> v
  | None -> fail "missing or malformed %S" key

let declared bench key =
  List.map
    (fun m -> (field m "name" Json.to_str, field m "unit" Json.to_str))
    (field bench key Json.to_list)

let run_e2e exe args =
  let cmd = Filename.quote_command exe args in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s did not exit 0; output:\n%s" cmd out);
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | last :: lines -> (List.rev lines, Json.parse last)
  | [] -> fail "%s printed nothing" cmd

let check_run ~workloads ~metrics (lines, result) =
  if field result "correct" (function Json.Bool b -> Some b | _ -> None) <> true then
    fail "result not correct";
  if field result "failed" Json.to_int <> 0 then fail "failed outputs";
  if field result "attempted" Json.to_int < 1 then fail "nothing attempted";
  let rows = List.map (String.split_on_char ' ') lines in
  List.iter
    (fun w ->
      List.iter
        (fun (m, unit) ->
          match
            List.filter (function [ w'; m'; _; _ ] -> w' = w && m' = m | _ -> false) rows
          with
          | [ [ _; _; v; u ] ] ->
            if u <> unit then fail "%s %s printed with unit %s, declared %s" w m u unit;
            (match float_of_string_opt v with
            | Some x when Float.is_finite x -> ()
            | _ -> fail "%s %s has a non-finite value %s" w m v)
          | l -> fail "%s %s printed %d times" w m (List.length l))
        metrics)
    workloads

let () =
  let exe, bench_file =
    match Sys.argv with
    | [| _; exe; bench |] ->
      ((if Filename.is_implicit exe then Filename.concat "." exe else exe), bench)
    | _ -> fail "usage: smoke.exe E2E_EXE BENCHMARK_JSON"
  in
  let bench = Json.parse_file bench_file in
  let workloads =
    List.map (fun w -> field w "name" Json.to_str) (field bench "workloads" Json.to_list)
  in
  let tiny = [ "--n"; "2000"; "--samples"; "1"; "--seconds"; "4" ] in
  check_run ~workloads ~metrics:(declared bench "end_to_end")
    (run_e2e exe (tiny @ [ "--trace"; "0" ]));
  let trace = Filename.temp_file ~temp_dir:"." "e2e-smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      check_run ~workloads ~metrics:(declared bench "per_layer")
        (run_e2e exe (tiny @ [ "--trace"; trace ]));
      let groups = field (Json.parse_file trace) "groups" Json.to_list in
      List.iter
        (fun w ->
          if
            not
              (List.exists
                 (fun g ->
                   field g "workload" Json.to_str = w
                   && field g "spans" Json.to_list <> [])
                 groups)
          then fail "trace has no spans for %s" w)
        workloads);
  print_endline "e2e smoke: ok"
