(* regress: bench/report regression comparator.

   Usage:
     regress.exe [--tolerance FRAC] [--abs-tolerance SECS] OLD.json NEW.json

   Loads two measurement files, aligns their kernels/spans by label (and
   bench rows by instance size too) and prints a per-label PASS/FAIL
   delta table. A label passes when its
   wall-clock in NEW is within the relative tolerance
   (new <= old * (1 + FRAC), default 0.20) OR within the absolute
   tolerance (new <= old + SECS, default 0.005). The absolute fallback is
   the timer-noise floor: a zero or near-zero baseline would otherwise
   fail on any positive measurement, however tiny. With a zero baseline
   the delta column shows seconds instead of a (undefined) percentage.
   A non-finite metric — JSON null, which the repo's writers emit for
   nan/inf — always FAILs its row: a measurement that produced garbage
   must not pass a gate silently. Exit status: 0 when every aligned label
   passes, 1 on any regression or size mismatch, 2 on usage/parse
   errors — so CI can gate on it.

   Three self-describing input formats are recognized:
     - BENCH_engine.json / BENCH_serve.json (bench/ B6-B13): labels are
       "<kernel>/<mode>", metric is the mode's "wall_s"; each row also
       carries its instance size n, the kernel's own "n" or else the
       file's. Rows align by (kernel, n, mode): a row whose kernel and
       mode match a baseline row measured at another n FAILs as a size
       mismatch, since timings at different sizes say nothing about a
       regression;
     - span reports        (tl_obs, CLI --profile): labels are
       slash-joined span paths, metric is "elapsed_s";
     - trace arrays        (CLI --trace): labels are "<label>#<i>",
       metric is "total_s".
   The two files need not share a format: alignment is by label (and n).
   Labels present in only one file are reported but never fail the run. *)

module Json = Tl_obs.Json

let usage () =
  prerr_endline
    "usage: regress.exe [--tolerance FRAC] [--abs-tolerance SECS] OLD.json \
     NEW.json";
  exit 2

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("regress: " ^ msg); exit 2) fmt

(* ---------- extraction: (label, seconds) rows per format ---------- *)

let num_field name j =
  match Json.member name j with
  | Some (Json.Num f) -> f
  (* null is what the Json printer emits for nan/inf: keep the row and
     let the comparison fail it rather than dying with "missing field" *)
  | Some Json.Null -> Float.nan
  | _ -> die "missing numeric field %S" name

let str_field name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> s
  | None -> die "missing string field %S" name

(* A measured row: its label, the instance size it ran at (bench files
   only) and its seconds. *)
type row = { label : string; n : int option; secs : float }

let size_field j = Option.bind (Json.member "n" j) Json.to_int

let rows_of_bench j =
  let kernels =
    match Option.bind (Json.member "kernels" j) Json.to_list with
    | Some l -> l
    | None -> die "bench file has no \"kernels\" array"
  in
  let file_n = size_field j in
  List.concat_map
    (fun kernel ->
      let name = str_field "kernel" kernel in
      let n = match size_field kernel with Some n -> Some n | None -> file_n in
      let modes =
        Option.bind (Json.member "modes" kernel) Json.to_list
        |> Option.value ~default:[]
      in
      List.map
        (fun m ->
          {
            label = name ^ "/" ^ str_field "mode" m;
            n;
            secs = num_field "wall_s" m;
          })
        modes)
    kernels

let rows_of_report j =
  let rec go prefix seen acc span =
    let path =
      let name = str_field "name" span in
      if prefix = "" then name else prefix ^ "/" ^ name
    in
    let path =
      match Hashtbl.find_opt seen path with
      | None ->
        Hashtbl.add seen path 1;
        path
      | Some k ->
        Hashtbl.replace seen path (k + 1);
        Printf.sprintf "%s#%d" path k
    in
    let acc =
      { label = path; n = None; secs = num_field "elapsed_s" span } :: acc
    in
    let children =
      Option.bind (Json.member "children" span) Json.to_list
      |> Option.value ~default:[]
    in
    List.fold_left (go path seen) acc children
  in
  match Json.member "span" j with
  | Some span -> List.rev (go "" (Hashtbl.create 16) [] span)
  | None -> die "report file has no \"span\" object"

let rows_of_traces traces =
  List.mapi
    (fun i t ->
      {
        label = Printf.sprintf "%s#%d" (str_field "label" t) i;
        n = None;
        secs = num_field "total_s" t;
      })
    traces

let rows_of_file file =
  match Json.parse_file file with
  | exception Sys_error msg -> die "cannot read %s: %s" file msg
  | exception Json.Parse_error msg -> die "cannot parse %s: %s" file msg
  | Json.Arr traces -> rows_of_traces traces
  | Json.Obj _ as j ->
    if Json.member "bench" j <> None then rows_of_bench j
    else if Json.member "tl_obs_report" j <> None then rows_of_report j
    else die "%s: unrecognized format (expected bench, report or trace JSON)" file
  | _ -> die "%s: unrecognized format" file

(* ---------- comparison ---------- *)

let () =
  let tolerance = ref 0.20 in
  let abs_tolerance = ref 0.005 in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | ("--tolerance" | "-t") :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f >= 0. ->
        tolerance := f;
        parse_args rest
      | _ -> die "invalid tolerance %S" v)
    | "--abs-tolerance" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f >= 0. && Float.is_finite f ->
        abs_tolerance := f;
        parse_args rest
      | _ -> die "invalid absolute tolerance %S" v)
    | "--help" :: _ -> usage ()
    | f :: rest ->
      files := f :: !files;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let old_file, new_file =
    match List.rev !files with [ o; n ] -> (o, n) | _ -> usage ()
  in
  let old_rows = rows_of_file old_file and new_rows = rows_of_file new_file in
  Printf.printf "regress: %s -> %s (tolerance +%.1f%% or +%.3fs)\n" old_file
    new_file
    (100. *. !tolerance)
    !abs_tolerance;
  Printf.printf "  %-44s %10s %10s %8s  %s\n" "label" "old_s" "new_s" "delta"
    "status";
  let regressions = ref 0 and compared = ref 0 in
  let size = function Some n -> string_of_int n | None -> "-" in
  List.iter
    (fun { label; n; secs = old_s } ->
      match
        List.find_opt (fun r -> r.label = label && r.n = n) new_rows
      with
      | None -> (
        match List.find_opt (fun r -> r.label = label) new_rows with
        | Some r ->
          incr regressions;
          Printf.printf "  %-44s %10.4f %10.4f %8s  FAIL(size n=%s, old n=%s)\n"
            label old_s r.secs "n/a" (size r.n) (size n)
        | None ->
          Printf.printf "  %-44s %10.4f %10s %8s  only-in-old\n" label old_s "-"
            "-")
      | Some { secs = new_s; _ } ->
        incr compared;
        let finite = Float.is_finite old_s && Float.is_finite new_s in
        let ok =
          finite
          && (new_s <= old_s *. (1. +. !tolerance)
             || new_s <= old_s +. !abs_tolerance)
        in
        if not ok then incr regressions;
        let delta =
          if not finite then "n/a"
          else if old_s > 0. then
            Printf.sprintf "%+7.1f%%" (100. *. ((new_s -. old_s) /. old_s))
          else Printf.sprintf "%+7.4fs" (new_s -. old_s)
        in
        Printf.printf "  %-44s %10.4f %10.4f %8s  %s\n" label old_s new_s delta
          (if ok then "PASS"
           else if finite then "FAIL"
           else "FAIL(non-finite)"))
    old_rows;
  List.iter
    (fun { label; secs; _ } ->
      if not (List.exists (fun r -> r.label = label) old_rows) then
        Printf.printf "  %-44s %10s %10.4f %8s  only-in-new\n" label "-" secs
          "-")
    new_rows;
  Printf.printf "regress: %s (%d compared, %d regression(s))\n"
    (if !regressions = 0 then "PASS" else "FAIL")
    !compared !regressions;
  exit (if !regressions = 0 then 0 else 1)
