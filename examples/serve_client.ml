(* Serving quickstart: talk to the tree-local-serve daemon over pipes.

   Run with:  dune exec examples/serve_client.exe

   Spawns the daemon in stdio mode, sends a small ndjson workload —
   a cold request, its warm same-topology repeat (served from the
   instance cache), a control message — and prints what came back.
   The same bytes work over a Unix-domain socket:

     tree-local-serve --socket /tmp/tl.sock &
     tree-local client --socket /tmp/tl.sock --problem mis --n 2000
*)

module Json = Tl_obs.Json
module P = Tl_serve.Protocol

(* the daemon binary lives next to this example's dune build output *)
let daemon_path () =
  let candidates =
    [
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/tree_local_serve.exe";
      "_build/default/bin/tree_local_serve.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "tree_local_serve.exe not found; run `dune build` first"

let spec = P.Family { family = "random-tree"; n = 2000; seed = 42; a = 1; delta = 8 }

(* The flood runs on the process backend (proc:4), which forks its
   workers — so it goes before any pooled request parks domains in the
   daemon (OCaml forbids fork after a domain spawn). Its seq twin on the
   same spec follows at once: it reuses the snapshot the proc flood
   compiled into the instance entry (one topo:cache_miss, then one
   topo:cache_hit) and must answer the same digest. Pooled requests:
   pool:4 parks a 4-wide domain team in the daemon; the two metrics
   scrapes bracketing them assert the team spawns once and is reused for
   every later job (no per-request domain churn). *)
let requests =
  [
    P.request_to_json
      (P.request ~id:"cold" ~problem:"mis" ~spec ~want_span:false ());
    P.request_to_json
      (P.request ~id:"warm" ~problem:"mis" ~spec ~want_span:false ());
    P.request_to_json
      (P.request ~id:"proc" ~problem:"flood" ~spec ~engine:"proc:4"
         ~want_span:false ());
    P.request_to_json
      (P.request ~id:"seq" ~problem:"flood" ~spec ~want_span:false ());
    P.request_to_json
      (P.request ~id:"pooled" ~problem:"coloring" ~spec ~pool:4
         ~want_span:false ());
    P.control_to_json ~id:"m1" P.Metrics;
    (* fresh seeds: cache misses, so these really run pooled solves *)
    P.request_to_json
      (P.request ~id:"pool-a" ~problem:"coloring"
         ~spec:
           (P.Family
              { family = "random-tree"; n = 2500; seed = 7; a = 1; delta = 8 })
         ~pool:4 ~want_span:false ());
    P.request_to_json
      (P.request ~id:"pool-b" ~problem:"mis"
         ~spec:
           (P.Family
              { family = "random-tree"; n = 2500; seed = 9; a = 1; delta = 8 })
         ~engine:"par:2" ~pool:4 ~want_span:false ());
    P.control_to_json ~id:"m2" P.Metrics;
    P.control_to_json ~id:"st" P.Stats;
    P.control_to_json ~id:"bye" P.Shutdown;
  ]

(* pool_spawns_total per metrics scrape, in arrival order *)
let spawn_scrapes : (string * int) list ref = ref []

let describe line =
  match P.response_of_json (Json.parse line) with
  | Error msg -> Printf.printf "  unparseable response (%s)\n" msg
  | Ok { P.rid; outcome } -> (
    match outcome with
    | P.Solved s ->
      Printf.printf
        "  %-8s digest=%s rounds=%4d engine_rounds=%4d valid=%b cache_hit=%b\n"
        rid s.P.digest s.P.total_rounds s.P.engine_rounds s.P.valid
        s.P.cache_hit
    | P.Pong -> Printf.printf "  %-8s pong\n" rid
    | P.Stats_report kvs ->
      Printf.printf "  %-8s stats:" rid;
      List.iter
        (fun key ->
          match List.assoc_opt key kvs with
          | Some v -> Printf.printf " %s=%d" key v
          | None -> ())
        [
          "received"; "served"; "serve:cache_hit"; "topo:cache_hit";
          "topo:cache_miss";
        ];
      print_newline ()
    | P.Metrics_report snap_json -> (
      match Tl_obs.Metrics.snapshot_of_json snap_json with
      | Error msg ->
        Printf.printf "  %-8s metrics snapshot unparseable (%s)\n" rid msg
      | Ok snap ->
        let spawns =
          match
            List.assoc_opt "pool_spawns_total" snap.Tl_obs.Metrics.counters
          with
          | Some v -> v
          | None -> 0
        in
        spawn_scrapes := !spawn_scrapes @ [ (rid, spawns) ];
        Printf.printf "  %-8s metrics pool_spawns_total=%d\n" rid spawns)
    | P.Tail_report events ->
      Printf.printf "  %-8s flight-recorder tail: %d event(s)\n" rid
        (List.length events)
    | P.Error (kind, msg) ->
      Printf.printf "  %-8s error (%s): %s\n" rid
        (match kind with
        | P.Rejected -> "rejected"
        | P.Bad_request -> "bad_request"
        | P.Failed -> "failed")
        msg)

let () =
  let daemon = daemon_path () in
  Printf.printf "spawning %s\n" daemon;
  let inc, out = Unix.open_process daemon in
  List.iter (fun j -> output_string out (Json.to_line j)) requests;
  flush out;
  Printf.printf "sent %d ndjson lines, responses:\n" (List.length requests);
  (try
     while true do
       describe (input_line inc)
     done
   with End_of_file -> ());
  (* the pooled jobs between the scrapes must ride the already-parked
     team: the spawn counter is non-zero after the first pool:4 job and
     identical across both scrapes *)
  (match !spawn_scrapes with
  | [ (_, first); (_, second) ] ->
    Printf.printf "pool-spawns first=%d second=%d stable=%b\n" first second
      (first > 0 && first = second)
  | scrapes ->
    Printf.printf "pool-spawns stable=false (got %d scrape(s))\n"
      (List.length scrapes));
  match Unix.close_process (inc, out) with
  | Unix.WEXITED 0 -> print_endline "daemon exited cleanly"
  | Unix.WEXITED c -> Printf.printf "daemon exited with %d\n" c
  | _ -> print_endline "daemon killed"
