(* The benchmark's own span recorder, used by traced runs only.

   A span is one timed call into a layer, made from the benchmark's side
   of the boundary: name, start, end, the enclosing span and the request
   it served, plus the words allocated while it was open (children
   included). Spans stay in memory; a run writes them out once, at the
   end, when asked to. With recording off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  rid : string;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  start : float;
  stop : float;
  words : float;
}

let now = Unix.gettimeofday
let allocated_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)
let enabled = ref false
let finished : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let w0 = allocated_words () and start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        current := parent;
        finished :=
          { id; name; rid = ""; parent; start; stop; words = allocated_words () -. w0 }
          :: !finished)
      f
  end

(* A span timed elsewhere (the daemon's own report of a request). *)
let add ~rid ?(parent = -1) name ~start ~stop =
  let id = !next_id in
  incr next_id;
  finished := { id; name; rid; parent; start; stop; words = 0. } :: !finished;
  id

let spans () = List.rev !finished
let named name = List.filter (fun s -> s.name = name) !finished
let total_s name = List.fold_left (fun acc s -> acc +. s.stop -. s.start) 0. (named name)
let total_mw name = List.fold_left (fun acc s -> acc +. s.words) 0. (named name) /. 1e6
let calls name = List.length (named name)

(* Peak resident set size (VmHWM) of a process — "self" or a pid — in
   MiB, read from procfs. *)
let peak_rss_mb pid =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match Scanf.sscanf (input_line ic) "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _) -> find ()
        | exception End_of_file -> failwith ("no VmHWM for process " ^ pid)
      in
      find ())

module Json = Tl_obs.Json

let to_json s =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.id));
      ("name", Json.Str s.name);
      ("rid", Json.Str s.rid);
      ("parent", Json.Num (float_of_int s.parent));
      ("start", Json.Num s.start);
      ("end", Json.Num s.stop);
      ("alloc_words", Json.Num s.words);
    ]

(* One group per traced process: span ids are unique within a group. *)
let write ~file groups =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_line
           (Json.Obj [ ("e2e_trace", Json.Num 1.); ("groups", Json.Arr groups) ])))
