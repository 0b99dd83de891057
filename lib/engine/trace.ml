type round_record = {
  round : int;
  active : int;
  changed : int;
  unhalted : int;
  wall_s : float;
}

type metrics = {
  rounds : int;
  steps : int;
  naive_steps : int;
  max_active : int;
  total_s : float;
}

type t = {
  lbl : string;
  mutable mode : string;
  mutable scheduling : string;
  mutable n_base : int;
  mutable n_present : int;
  mutable total_s : float;
  mutable rev_records : round_record list;
}

let create ?(label = "engine") () =
  {
    lbl = label;
    mode = "?";
    scheduling = "?";
    n_base = 0;
    n_present = 0;
    total_s = 0.;
    rev_records = [];
  }

let label t = t.lbl
let mode t = t.mode
let scheduling t = t.scheduling
let n_base t = t.n_base
let n_present t = t.n_present

let set_meta t ~mode ~scheduling ~n_base ~n_present =
  t.mode <- mode;
  t.scheduling <- scheduling;
  t.n_base <- n_base;
  t.n_present <- n_present

let record t r = t.rev_records <- r :: t.rev_records
let finish t ~total_s = t.total_s <- total_s
let records t = List.rev t.rev_records

let metrics t =
  let rounds = List.length t.rev_records in
  let steps, max_active =
    List.fold_left
      (fun (s, m) r -> (s + r.active, max m r.active))
      (0, 0) t.rev_records
  in
  {
    rounds;
    steps;
    naive_steps = rounds * t.n_present;
    max_active;
    total_s = t.total_s;
  }

let step_savings m =
  if m.naive_steps = 0 then 0.
  else 1. -. (float_of_int m.steps /. float_of_int m.naive_steps)

(* Hand-rolled JSON: the repo deliberately has no JSON dependency. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let buf_json b t =
  let m = metrics t in
  Printf.bprintf b
    "{\"label\":\"%s\",\"mode\":\"%s\",\"scheduling\":\"%s\",\
     \"n_base\":%d,\"n_present\":%d,\"total_s\":%.6f,"
    (json_escape t.lbl) (json_escape t.mode) (json_escape t.scheduling)
    t.n_base t.n_present t.total_s;
  Printf.bprintf b
    "\"metrics\":{\"rounds\":%d,\"steps\":%d,\"naive_steps\":%d,\
     \"step_savings\":%.4f,\"max_active\":%d},"
    m.rounds m.steps m.naive_steps (step_savings m) m.max_active;
  Buffer.add_string b "\"rounds_detail\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      (* untracked quantities (-1) are omitted rather than serialized as
         sentinel numbers *)
      Printf.bprintf b "{\"round\":%d,\"active\":%d," r.round r.active;
      if r.changed >= 0 then Printf.bprintf b "\"changed\":%d," r.changed;
      if r.unhalted >= 0 then Printf.bprintf b "\"unhalted\":%d," r.unhalted;
      Printf.bprintf b "\"wall_s\":%.6f}" r.wall_s)
    (records t);
  Buffer.add_string b "]}"

let to_json t =
  let b = Buffer.create 1024 in
  buf_json b t;
  Buffer.contents b

let list_to_json ts =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ",\n ";
      buf_json b t)
    ts;
  Buffer.add_string b "]\n";
  Buffer.contents b

let write_json ~file ts =
  let oc = open_out file in
  output_string oc (list_to_json ts);
  close_out oc

let pp_summary ppf t =
  let m = metrics t in
  Format.fprintf ppf
    "%-18s %-6s %-10s rounds %4d  steps %9d/%9d (saved %4.1f%%)  %8.4fs"
    t.lbl t.mode t.scheduling m.rounds m.steps m.naive_steps
    (100. *. step_savings m)
    m.total_s
