(* tl_fault battery: schedule parsing and deterministic instantiation,
   injector arming, checkers and incremental repair, and differential
   chaos runs — same (graph, problem, schedule) must yield identical
   applied logs, repair counts and final digests in every engine mode,
   for each scenario class (crash-stop, crash-recover, link-drop,
   worker-kill).

   Ordering matters on OCaml 5: fork is forbidden once a domain has
   spawned, so the proc-backend scenarios (worker kills, link drops,
   receive timeouts) run in the FIRST suite, before any par chaos run
   can spin up the domain team. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Proc = Tl_proc.Coordinator
module Plan = Tl_shard.Plan
module Wire = Tl_proc.Wire
module Ids = Tl_local.Ids
module Json = Tl_obs.Json
module Schedule = Tl_fault.Schedule
module Injector = Tl_fault.Injector
module Repair = Tl_fault.Repair
module Chaos = Tl_fault.Chaos
module P = Tl_serve.Protocol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let sched_of s =
  match Schedule.of_arg s with
  | Ok t -> t
  | Error msg -> Alcotest.failf "schedule %S rejected: %s" s msg

let tree ~n ~seed = Gen.random_tree ~n ~seed

let flood_chaos ?mode ~n ~seed spec =
  Chaos.run ?mode ~graph:(tree ~n ~seed)
    ~problem:(Chaos.Flood { source = 0 })
    ~schedule:(sched_of spec) ()

let mis_chaos ?mode ~n ~seed spec =
  let g = tree ~n ~seed in
  Chaos.run ?mode ~graph:g
    ~problem:(Chaos.Mis { ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 1) })
    ~schedule:(sched_of spec) ()

let same_report (a : Chaos.report) (b : Chaos.report) =
  a.digest = b.digest && a.log = b.log && a.crashes = b.crashes
  && a.recoveries = b.recoveries && a.repairs = b.repairs
  && a.relabeled = b.relabeled && a.survivors = b.survivors
  && a.valid && b.valid

(* ---------- proc backend (must run before any domain spawns) ---------- *)

(* A worker kill must not change the result: the injector consumes the
   kill, the orchestrator retries the epoch on a fresh cluster, and the
   final labeling matches a seq run of the same schedule (seq never
   consults the kill hook). *)
let test_proc_kill_chaos () =
  let spec = "seed=7;kill@2:1;crash@5:9;crash@7:23" in
  let seq = flood_chaos ~mode:Engine.Seq ~n:400 ~seed:5 spec in
  let proc = flood_chaos ~mode:(Engine.Proc 3) ~n:400 ~seed:5 spec in
  check "proc kill run valid" true proc.Chaos.valid;
  check_int "one retry after the kill" 1 proc.Chaos.retries;
  check_int "kill applied once" 1 proc.Chaos.kills;
  check "digest matches seq" true (seq.Chaos.digest = proc.Chaos.digest);
  check_int "seq saw no kill" 0 seq.Chaos.kills;
  (* replay: identical applied log and digest *)
  let again = flood_chaos ~mode:(Engine.Proc 3) ~n:400 ~seed:5 spec in
  check "proc replay deterministic" true (same_report proc again)

(* A kill aimed at rank 0, the root of the collective tree, often
   resets the coordinator's channel instead of closing it: ECONNRESET on
   its read or EPIPE on its decision write, rather than EOF. That is the
   same dead worker, so the epoch is retried and the run ends as a seq
   run of the same schedule does. *)
let test_proc_kill_rank0 () =
  let spec = "seed=9;kill@4:0" in
  let seq = flood_chaos ~mode:Engine.Seq ~n:400 ~seed:5 spec in
  let proc = flood_chaos ~mode:(Engine.Proc 2) ~n:400 ~seed:5 spec in
  check "rank-0 kill run valid" true proc.Chaos.valid;
  check "kill:0 in the log" true (List.mem (4, Injector.Killed 0) proc.Chaos.log);
  check_int "one retry after the kill" 1 proc.Chaos.retries;
  check "digest matches seq" true (seq.Chaos.digest = proc.Chaos.digest)

(* Link drops fire only on the process wire. The reports pinned below
   were recorded from the in-process shard:4 backend that carried the
   drops before proc did — same plan geometry, same cut links — and
   proc:4 must reproduce them exactly: every log entry in order, the
   round counts, the repairs and the digest. *)
let link_drop_spec = "seed=13;drop@2:0-1,1-2;drop@3:2-3;crash@8:5"

let check_pinned name (r : Chaos.report) ~drops ~log ~rounds ~horizon
    ~repairs ~relabeled ~digest =
  check_int (name ^ ": drops") drops r.Chaos.drops;
  check (name ^ ": log") true (r.Chaos.log = log);
  check_int (name ^ ": rounds") rounds r.Chaos.rounds;
  check_int (name ^ ": horizon") horizon r.Chaos.horizon;
  check_int (name ^ ": repairs") repairs r.Chaos.repairs;
  check_int (name ^ ": relabeled") relabeled r.Chaos.relabeled;
  check (name ^ ": digest") true (r.Chaos.digest = digest);
  check (name ^ ": valid") true r.Chaos.valid

let test_proc_drop_flood () =
  let run () = flood_chaos ~mode:(Engine.Proc 4) ~n:600 ~seed:2 link_drop_spec in
  let r = run () in
  check_pinned "flood" r ~drops:1
    ~log:
      [
        (3, Injector.Dropped { src = 2; dst = 3; msgs = 1 });
        (8, Injector.Crashed 5);
      ]
    ~rounds:55 ~horizon:55 ~repairs:0 ~relabeled:0 ~digest:0xa12954af74bf26d9L;
  check "replay identical" true (same_report r (run ()));
  let seq = flood_chaos ~mode:Engine.Seq ~n:600 ~seed:2 link_drop_spec in
  check "digest = seq" true (r.Chaos.digest = seq.Chaos.digest)

(* chaos_smoke's drop scenario: the cut at round 3 freezes the flood
   front, the run stalls at a fixed point, and the final heal rewrites
   the unreached labels *)
let test_proc_drop_smoke () =
  let g = Gen.random_tree ~n:20_000 ~seed:42 in
  let run mode =
    Chaos.run ~mode ~graph:g
      ~problem:(Chaos.Flood { source = 0 })
      ~schedule:(sched_of "seed=17;drop@3:0-1,1-2;drop@5:0-3")
      ()
  in
  let r = run (Engine.Proc 4) in
  check_pinned "smoke flood" r ~drops:1
    ~log:[ (3, Injector.Dropped { src = 0; dst = 1; msgs = 2 }) ]
    ~rounds:4 ~horizon:4 ~repairs:1 ~relabeled:19991
    ~digest:0x3a8535e7f8982ca5L;
  check "replay identical" true (same_report r (run (Engine.Proc 4)));
  check "digest = seq" true (r.Chaos.digest = (run Engine.Seq).Chaos.digest)

(* MIS under the same drops stalls: a dropped "in" leaves a neighbor
   undecided with no active neighbor, so the run's active set drains
   with unhalted nodes and it fails before the crash round — as the
   shard:4 run did. Its first epoch, driven directly through the kernel
   entry point under an armed injector, pins the drops that fired. *)
let test_proc_drop_mis () =
  let fails () =
    match mis_chaos ~mode:(Engine.Proc 4) ~n:600 ~seed:2 link_drop_spec with
    | _ -> None
    | exception Failure m -> Some m
  in
  let expected = Some "Engine.run: max_rounds=2464 exceeded" in
  check "stalls like shard:4" true (fails () = expected);
  check "replay stalls alike" true (fails () = expected);
  let g = tree ~n:600 ~seed:2 in
  let ids = Ids.permuted ~n:600 ~seed:3 in
  Injector.with_armed (sched_of link_drop_spec) ~n:600 (fun inj ->
      let topo = Topology.compile (Semi_graph.of_graph g) in
      (match
         Proc.run_kernel ~mode:(Engine.Proc 4) ~topo
           ~kernel_for:(Proc.Kernels.mis_local_max ~ids)
           ~stop:(Engine.Halted 2464) ()
       with
      | _ -> Alcotest.fail "the first MIS epoch must stall"
      | exception Failure m ->
        check_string "the epoch's failure"
          "Engine.run: max_rounds=2464 exceeded" m);
      check "mis drops pinned" true
        (Injector.log inj
        = [
            (2, Injector.Dropped { src = 0; dst = 1; msgs = 78 });
            (2, Injector.Dropped { src = 1; dst = 2; msgs = 52 });
            (3, Injector.Dropped { src = 2; dst = 3; msgs = 12 });
          ]))

let test_proc_timeout () =
  let g = tree ~n:60 ~seed:3 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let flood () =
    Proc.run_kernel ~mode:(Engine.Proc 2) ~topo
      ~kernel_for:(Proc.Kernels.flood ())
      ~stop:(Engine.Stable 200) ()
  in
  (* a microsecond deadline trips before any worker can answer *)
  Unix.putenv "TL_PROC_TIMEOUT_MS" "0.001";
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match flood () with
  | _ -> Alcotest.fail "expected a timeout Proc_failure"
  | exception Wire.Proc_failure msg ->
    check "timeout names itself" true (contains msg "timeout"));
  (* a generous deadline lets the run complete *)
  Unix.putenv "TL_PROC_TIMEOUT_MS" "60000";
  let o = flood () in
  check "run completes under a generous timeout" true (o.Flat.rounds > 0);
  (* malformed values disable the deadline rather than breaking runs *)
  Unix.putenv "TL_PROC_TIMEOUT_MS" "not-a-number";
  let o2 = flood () in
  check "malformed timeout ignored" true (o2.Flat.rounds = o.Flat.rounds);
  Unix.putenv "TL_PROC_TIMEOUT_MS" ""

(* ---------- schedule ---------- *)

let test_spec_roundtrip () =
  let t =
    sched_of
      "seed=42;crash@8:5,17;crash_random@8:3;recover@12:5;drop@6:0-1,2-3;kill@3:1;churn@4-16:rate=0.001,kind=crash-recover,ttl=4"
  in
  check_int "seed" 42 t.Schedule.seed;
  check_int "clauses" 5 (List.length t.Schedule.clauses);
  (match t.Schedule.churn with
  | None -> Alcotest.fail "churn lost"
  | Some c ->
    check_int "churn from" 4 c.Schedule.from_round;
    check_int "churn to" 16 c.Schedule.to_round;
    check_int "churn ttl" 4 c.Schedule.ttl;
    check "churn kind" true (c.Schedule.kind = Schedule.Crash_recover));
  (* JSON round-trip preserves the whole plan *)
  match Schedule.of_json (Schedule.to_json t) with
  | Error msg -> Alcotest.failf "to_json not parseable: %s" msg
  | Ok t' -> check "of_json (to_json t) = t" true (t = t')

let test_spec_errors () =
  let rejects s =
    match Schedule.of_arg s with
    | Ok _ -> Alcotest.failf "spec %S should be rejected" s
    | Error _ -> ()
  in
  rejects "crash@0:1";
  rejects "churn@4-2:rate=0.1";
  rejects "churn@1-5:rate=1.5";
  rejects "churn@1-5:rate=0.1,kind=sideways";
  rejects "drop@3:5";
  rejects "frobnicate@3:1";
  rejects "{ \"seed\": \"high\" }"

let test_of_arg_file () =
  let t = sched_of "seed=9;crash@3:1,2;churn@2-6:rate=0.01" in
  let file = Filename.temp_file "tlfault" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  output_string oc (Json.to_string (Schedule.to_json t));
  close_out oc;
  match Schedule.of_arg file with
  | Error msg -> Alcotest.failf "file form rejected: %s" msg
  | Ok t' -> check "file round-trip" true (t = t')

let test_instantiate_deterministic () =
  let t = sched_of "seed=5;crash_random@2:10;churn@3-30:rate=0.01,kind=crash-recover,ttl=5" in
  let a = Schedule.instantiate t ~n:500 in
  let b = Schedule.instantiate t ~n:500 in
  check "instantiate is pure" true (a = b);
  let crashes =
    List.filter_map
      (function r, Schedule.Crash v -> Some (r, v) | _ -> None)
      a
  in
  let recovers =
    List.filter_map
      (function r, Schedule.Recover v -> Some (r, v) | _ -> None)
      a
  in
  check "random crashes drawn" true (List.length crashes >= 10);
  (* crash-recover churn: every churn casualty recovers ttl rounds later *)
  List.iter
    (fun (r, v) ->
      if r >= 3 then
        check
          (Printf.sprintf "churn casualty %d@%d recovers" v r)
          true
          (List.mem (r + 5, v) recovers))
    crashes;
  (* distinctness: no node crashes twice without recovering in between *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (r, e) ->
      match e with
      | Schedule.Crash v ->
        check (Printf.sprintf "node %d alive when crashed at %d" v r) false
          (Hashtbl.mem seen v);
        Hashtbl.replace seen v ()
      | Schedule.Recover v -> Hashtbl.remove seen v
      | _ -> ())
    a

let test_instantiate_range () =
  let t = sched_of "seed=1;crash@2:99" in
  match Schedule.instantiate t ~n:10 with
  | _ -> Alcotest.fail "out-of-range node accepted"
  | exception Invalid_argument _ -> ()

(* churn coins hash (seed, round, node) independently, so adding an
   explicit clause never shifts which other nodes churn *)
let test_churn_independent_of_clauses () =
  let base = sched_of "seed=11;churn@5-12:rate=0.02" in
  let extra = sched_of "seed=11;crash@1:0;churn@5-12:rate=0.02" in
  let churn_crashes t =
    Schedule.instantiate t ~n:300
    |> List.filter_map (function
         | r, Schedule.Crash v when r >= 5 && v <> 0 -> Some (r, v)
         | _ -> None)
  in
  check "churn pattern unshifted" true (churn_crashes base = churn_crashes extra)

(* Instantiation visits only the rounds that can emit an event, so a
   clause or a recovery 10^10 rounds out costs nothing per round in
   between; walking every round would hang these. *)
let test_instantiate_far_rounds () =
  let far = 10_000_000_000 in
  check "far crash" true
    (Schedule.instantiate (sched_of (Printf.sprintf "seed=1;crash@%d:1" far)) ~n:50
    = [ (far, Schedule.Crash 1) ]);
  let t =
    sched_of (Printf.sprintf "seed=4;churn@2-3:rate=0.3,kind=crash-recover,ttl=%d" far)
  in
  let events = Schedule.instantiate t ~n:50 in
  let crashes = List.filter_map (function r, Schedule.Crash v -> Some (r + far, v) | _ -> None) events in
  let recovers = List.filter_map (function r, Schedule.Recover v -> Some (r, v) | _ -> None) events in
  check "some churn casualty" true (crashes <> []);
  check "each recovers ttl rounds later" true (crashes = recovers);
  (* a recovery due past max_int never fires, and nothing wraps round *)
  let t =
    sched_of
      (Printf.sprintf "seed=1;crash@%d:2;churn@1-1:rate=1,kind=crash-recover,ttl=%d" max_int
         max_int)
  in
  check "every node crashes once, at round 1" true
    (Schedule.instantiate t ~n:20 = List.init 20 (fun v -> (1, Schedule.Crash v)))

(* A churn window longer than [max_churn_window] is rejected by every
   parser with the usual error; the longest allowed one still parses. *)
let test_churn_window_cap () =
  let cap = Schedule.max_churn_window in
  let rejected arg =
    match Schedule.of_arg arg with
    | Ok _ -> Alcotest.failf "window %S accepted" arg
    | Error msg ->
      check (msg ^ " names the cap") true
        (String.ends_with ~suffix:(Printf.sprintf "more than %d rounds" cap) msg)
  in
  rejected (Printf.sprintf "churn@1-%d:rate=0.1" (cap + 1));
  rejected (Printf.sprintf "churn@5-%d:rate=0" max_int);
  rejected (Printf.sprintf "{\"churn\": {\"rounds\": \"3-%d\", \"rate\": 0.5}}" (cap + 3));
  let t = sched_of (Printf.sprintf "seed=2;churn@1-%d:rate=0" cap) in
  check "longest window, no casualty" true (Schedule.instantiate t ~n:3 = [])

(* Runs [f] in a forked child: true when it returns within [seconds]. A
   walk that would not end is killed at the deadline instead of hanging
   the suite. *)
let finishes_within ~seconds f =
  flush_all ();
  match Unix.fork () with
  | 0 -> Unix._exit (match f () with () -> 0 | exception _ -> 1)
  | pid ->
    let deadline = Unix.gettimeofday () +. seconds in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        false
      | _, status -> status = Unix.WEXITED 0
    in
    wait ()

(* A rate-0 churn window can emit nothing, so instantiation never walks
   its per-node coins: 10^4 rounds x 10^6 nodes would be 10^10 draws. *)
let test_rate0_churn_free () =
  let t = sched_of "seed=1;churn@1-10000:rate=0" in
  check "rate-0 churn at n = 10^6 instantiates at once" true
    (finishes_within ~seconds:10. (fun () ->
         if Schedule.instantiate t ~n:1_000_000 <> [] then failwith "events"));
  (* beside clauses it leaves their events alone *)
  check "clauses unaffected" true
    (Schedule.instantiate
       (sched_of "seed=1;crash@3:2;churn@1-10000:rate=0;recover@7:2")
       ~n:10
    = [ (3, Schedule.Crash 2); (7, Schedule.Recover 2) ])

(* ---------- injector ---------- *)

let test_injector_single_armed () =
  let t = sched_of "seed=1;crash@3:1" in
  Injector.with_armed t ~n:10 (fun _ ->
      match Injector.arm t ~n:10 with
      | _ -> Alcotest.fail "double arm accepted"
      | exception Invalid_argument _ -> ());
  (* with_armed disarmed on exit: arming again is fine *)
  Injector.with_armed t ~n:10 (fun inj ->
      check "gate closes before round 3" true
        (Engine.gate_open ~round:2 && not (Engine.gate_open ~round:3));
      check "next topo round" true (Injector.next_topo_round inj = Some 3);
      let due = Injector.take_topo_due inj ~round:3 in
      check "due events" true (due = [ Schedule.Crash 1 ]);
      check "consumed" true (Injector.next_topo_round inj = None);
      let c, r, d, k = Injector.counts inj in
      check "counts" true ((c, r, d, k) = (1, 0, 0, 0)));
  check "hooks restored" true (Engine.gate_open ~round:3)

(* ---------- repair ---------- *)

let test_flood_repair_split () =
  (* path 0-1-...-9, crash node 5 after convergence: 6..9 must fall
     back to 0, and only the two touched components are rewritten *)
  let r = flood_chaos ~n:10 ~seed:1 "seed=1;crash@50:5" in
  ignore r;
  let g = Gen.path 10 in
  let rep =
    Chaos.run ~graph:g
      ~problem:(Chaos.Flood { source = 0 })
      ~schedule:(sched_of "seed=1;crash@50:5") ()
  in
  check "path split run valid" true rep.Chaos.valid;
  check_int "one repair" 1 rep.Chaos.repairs;
  for v = 0 to 4 do
    check_int (Printf.sprintf "node %d reached" v) 1 rep.Chaos.labels.(v)
  done;
  for v = 6 to 9 do
    check_int (Printf.sprintf "node %d cut off" v) 0 rep.Chaos.labels.(v)
  done;
  check_int "four labels rewritten" 4 rep.Chaos.relabeled

let test_flood_recover_rejoins () =
  let g = Gen.path 8 in
  let rep =
    Chaos.run ~graph:g
      ~problem:(Chaos.Flood { source = 0 })
      ~schedule:(sched_of "seed=1;crash@40:3;recover@44:3") ()
  in
  check "recover run valid" true rep.Chaos.valid;
  check_int "everyone survives" 8 rep.Chaos.survivors;
  Array.iteri
    (fun v l -> check_int (Printf.sprintf "node %d reached again" v) 1 l)
    rep.Chaos.labels

let test_mis_repair_valid () =
  let n = 300 in
  let g = tree ~n ~seed:9 in
  let ids = Ids.permuted ~n ~seed:10 in
  let rep =
    Chaos.run ~graph:g ~problem:(Chaos.Mis { ids })
      ~schedule:(sched_of "seed=3;crash_random@30:15;churn@31-40:rate=0.005,kind=crash-recover,ttl=4")
      ()
  in
  check "mis chaos valid" true rep.Chaos.valid;
  check "repairs happened" true (rep.Chaos.repairs >= 1);
  (* the checker itself agrees with the final labels *)
  let present = Array.make n true in
  List.iter
    (fun (_, a) ->
      match a with
      | Injector.Crashed v -> present.(v) <- false
      | Injector.Recovered v -> present.(v) <- true
      | _ -> ())
    rep.Chaos.log;
  let sg = Semi_graph.of_node_subset g present in
  check "check_mis passes" true (Repair.check_mis ~sg ~labels:rep.Chaos.labels)

let test_checkers_reject_damage () =
  let g = Gen.path 6 in
  let sg = Semi_graph.of_graph g in
  let good = [| 1; 1; 1; 1; 1; 1 |] in
  check "flood accepts the indicator" true
    (Repair.check_flood ~sg ~source:0 ~labels:good);
  check "flood rejects a stray 0" false
    (Repair.check_flood ~sg ~source:0 ~labels:[| 1; 1; 0; 1; 1; 1 |]);
  (* path MIS: in-out-in-out-in-out is valid; adjacent ins are not *)
  check "mis accepts alternation" true
    (Repair.check_mis ~sg ~labels:[| 1; 2; 1; 2; 1; 2 |]);
  check "mis rejects adjacent ins" false
    (Repair.check_mis ~sg ~labels:[| 1; 1; 2; 1; 2; 1 |]);
  check "mis rejects unwitnessed out" false
    (Repair.check_mis ~sg ~labels:[| 2; 2; 1; 2; 1; 2 |]);
  check "mis rejects undecided" false
    (Repair.check_mis ~sg ~labels:[| 1; 2; 0; 2; 1; 2 |])

(* ---------- chaos: differential determinism ---------- *)

let scenario_specs =
  [
    ("crash-stop", "seed=13;crash_random@3:8;crash@6:2;churn@4-14:rate=0.002");
    ( "crash-recover",
      "seed=13;crash_random@3:8;recover@20:2;crash@6:2;churn@4-14:rate=0.002,kind=crash-recover,ttl=3"
    );
    ("link-drop", link_drop_spec);
  ]

let test_chaos_replay_identical () =
  List.iter
    (fun (name, spec) ->
      let a = flood_chaos ~n:600 ~seed:2 spec in
      let b = flood_chaos ~n:600 ~seed:2 spec in
      check (name ^ " flood replay") true (same_report a b);
      let c = mis_chaos ~n:600 ~seed:2 spec in
      let d = mis_chaos ~n:600 ~seed:2 spec in
      check (name ^ " mis replay") true (same_report c d))
    scenario_specs

(* par modes spawn the domain team — keep after the proc suite, and run
   every proc:2 case here before the first par:2 one. Under proc the
   link-drop MIS stalls (test_proc_drop_mis); the seq and par epochs
   carry no wire, so their drops never fire. *)
let test_chaos_cross_mode () =
  let seq =
    List.map
      (fun (name, spec) ->
        let r = mis_chaos ~mode:Engine.Seq ~n:600 ~seed:2 spec in
        check (name ^ " seq valid") true r.Chaos.valid;
        r)
      scenario_specs
  in
  List.iter
    (fun mode ->
      List.iter2
        (fun (name, spec) (want : Chaos.report) ->
          if not (name = "link-drop" && mode = Engine.Proc 2) then begin
            let r = mis_chaos ~mode ~n:600 ~seed:2 spec in
            check
              (Printf.sprintf "%s digest %s = seq" name
                 (Engine.mode_to_string mode))
              true
              (r.Chaos.digest = want.Chaos.digest && r.Chaos.valid)
          end)
        scenario_specs seq)
    [ Engine.Proc 2; Engine.Par 2 ]

let test_chaos_empty_schedule_matches_plain () =
  (* armed-but-empty chaos must equal the plain engine answer *)
  let n = 500 in
  let g = tree ~n ~seed:4 in
  let rep =
    Chaos.run ~graph:g
      ~problem:(Chaos.Flood { source = 0 })
      ~schedule:Schedule.empty ()
  in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  (* the naive oracle's flood machine, the flat kernel's reference *)
  let o =
    Naive.run_until_stable ~topo
      ~init:(fun v -> v = 0)
      ~step:Naive.flood_step ~equal:Bool.equal ~max_rounds:(n + 1)
  in
  check "labels equal the plain run" true
    (rep.Chaos.labels = Array.map Bool.to_int o.Naive.states);
  check_int "no repairs" 0 rep.Chaos.repairs;
  check_int "one epoch" 1 rep.Chaos.epochs;
  check_int "rounds equal" o.Naive.rounds rep.Chaos.rounds

(* ---------- churned views ---------- *)

(* A chaos run hides crashed nodes in its live view and recompiles it after
   each event round. The snapshot of that churned view must equal the one
   of a view built afresh over the same present nodes, and so must the
   shard plans built over the two. *)
let qcheck_churned_view =
  QCheck.Test.make ~name:"churned view compiles as a fresh view" ~count:40
    QCheck.(pair (int_range 4 80) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let present = Array.make n true in
      let sg = ref (Semi_graph.of_node_subset g present) in
      let state = ref (seed + 1) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      let ok = ref true in
      for step = 1 to 12 do
        (* crash a node in place, or recover one into a rebuilt view *)
        let v = next () mod n in
        if present.(v) then begin
          present.(v) <- false;
          Semi_graph.hide_node !sg v
        end
        else begin
          present.(v) <- true;
          sg := Semi_graph.of_node_subset g present
        end;
        let churned = Topology.compile !sg in
        let fresh = Topology.compile (Semi_graph.of_node_subset g present) in
        ok :=
          !ok
          && churned.Topology.present = fresh.Topology.present
          && churned.Topology.present_nodes = fresh.Topology.present_nodes
          && churned.Topology.off = fresh.Topology.off
          && churned.Topology.adj = fresh.Topology.adj
          && churned.Topology.eid = fresh.Topology.eid;
        if step mod 3 = 0 && Topology.n_present fresh >= 2 then begin
          let pc = Plan.build ~topo:churned ~shards:2 in
          let pf = Plan.build ~topo:fresh ~shards:2 in
          ok :=
            !ok
            && Plan.encode_shard pc.Plan.shards.(0)
               = Plan.encode_shard pf.Plan.shards.(0)
            && Plan.encode_shard pc.Plan.shards.(1)
               = Plan.encode_shard pf.Plan.shards.(1)
        end
      done;
      !ok)

(* ---------- serve protocol ---------- *)

let test_request_faults_roundtrip () =
  let spec = "seed=3;crash@2:1;churn@3-9:rate=0.01" in
  let req = P.request ~id:"t" ~problem:"flood" ~method_:"chaos" ~faults:spec () in
  match P.incoming_of_json (P.request_to_json req) with
  | Ok (P.Request r) ->
    check "faults preserved" true (r.P.faults = Some spec);
    check_string "method preserved" "chaos" r.P.method_
  | Ok _ -> Alcotest.fail "parsed as control"
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg

let test_request_faults_absent () =
  let req = P.request ~id:"t" () in
  match P.incoming_of_json (P.request_to_json req) with
  | Ok (P.Request r) -> check "no faults by default" true (r.P.faults = None)
  | _ -> Alcotest.fail "round-trip failed"

(* ---------- runner ---------- *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "tl_fault"
    [
      ( "proc-chaos",
        [
          Alcotest.test_case "worker kill: retried epoch, seq digest" `Quick
            test_proc_kill_chaos;
          Alcotest.test_case "rank-0 kill: reset channel, retried epoch" `Quick
            test_proc_kill_rank0;
          Alcotest.test_case "link drops: flood, pinned report" `Quick
            test_proc_drop_flood;
          Alcotest.test_case "link drops: MIS stall, pinned drops" `Quick
            test_proc_drop_mis;
          Alcotest.test_case "link drops: 20k flood, pinned report" `Quick
            test_proc_drop_smoke;
          Alcotest.test_case "TL_PROC_TIMEOUT_MS deadline" `Quick
            test_proc_timeout;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "spec grammar + JSON round-trip" `Quick
            test_spec_roundtrip;
          Alcotest.test_case "malformed specs rejected" `Quick test_spec_errors;
          Alcotest.test_case "of_arg reads a JSON file" `Quick test_of_arg_file;
          Alcotest.test_case "instantiate: pure, distinct, ttl recoveries"
            `Quick test_instantiate_deterministic;
          Alcotest.test_case "instantiate: out-of-range rejected" `Quick
            test_instantiate_range;
          Alcotest.test_case "churn coins independent of clause edits" `Quick
            test_churn_independent_of_clauses;
          Alcotest.test_case "instantiate: far rounds cost nothing" `Quick
            test_instantiate_far_rounds;
          Alcotest.test_case "churn window capped" `Quick test_churn_window_cap;
          Alcotest.test_case "instantiate: rate-0 churn costs nothing" `Quick
            test_rate0_churn_free;
        ] );
      ( "injector",
        [
          Alcotest.test_case "single-armed, gate, due events" `Quick
            test_injector_single_armed;
        ] );
      ( "repair",
        [
          Alcotest.test_case "flood: component split repaired" `Quick
            test_flood_repair_split;
          Alcotest.test_case "flood: recovered node rejoins" `Quick
            test_flood_recover_rejoins;
          Alcotest.test_case "mis: churn damage repaired to validity" `Quick
            test_mis_repair_valid;
          Alcotest.test_case "checkers reject planted damage" `Quick
            test_checkers_reject_damage;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "replay identical per scenario class" `Quick
            test_chaos_replay_identical;
          Alcotest.test_case "digest invariant across engine modes" `Quick
            test_chaos_cross_mode;
          Alcotest.test_case "empty schedule = plain engine run" `Quick
            test_chaos_empty_schedule_matches_plain;
        ] );
      ("churn-views", qsuite [ qcheck_churned_view ]);
      ( "serve",
        [
          Alcotest.test_case "faults field round-trips" `Quick
            test_request_faults_roundtrip;
          Alcotest.test_case "faults absent by default" `Quick
            test_request_faults_absent;
        ] );
    ]
