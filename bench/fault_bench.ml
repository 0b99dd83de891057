(* ---------- B13: tl_fault — incremental repair vs full recompute ----------

   Two questions, answered on one random tree:

   1. What does incremental repair cost against recomputing from
      scratch? For crash
      rates in {0.1%, 1%, 5%} we converge flood once, crash a seeded
      random node set (the same sampler the chaos schedules use), and
      time (a) Repair.repair_flood over the suspect components against
      (b) a full Topology.compile + re-run of the chaos kernel on the
      damaged view (Coordinator.run_kernel in seq mode). The speedup
      column is recompute / repair per row; no verdict is drawn from
      it, since at the higher rates the flat recompute runs as fast as
      the repair (EXPERIMENTS B13).
      Both arms see identical surgery; the repaired labeling must be
      bit-identical to the recomputed one on survivors, and both must
      pass the validity checker. One MIS row rides along at the 1%
      rate — there the recompute arm is a different (equally valid)
      MIS, so its PASS column asserts replay determinism of the repair
      instead of cross-arm equality.

   2. Is the disarmed fault machinery free? B10-style interleaved
      trials of the same flood run with Engine.fault_gate disarmed vs
      armed-with-an-empty-schedule, gated at <= 3% like the metrics
      overhead row.

   Rows merge into BENCH_engine.json ("fault-repair", "fault-overhead")
   so bench/regress.exe gates both the repair speedup and the gate
   overhead once the baseline carries them. Size is overridable via
   TL_FAULT_BENCH_N (CI smoke). *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Topology = Tl_engine.Topology
module Proc = Tl_proc.Coordinator
module Json = Tl_obs.Json
module Schedule = Tl_fault.Schedule
module Injector = Tl_fault.Injector
module Repair = Tl_fault.Repair

let fault_bench_n () =
  match Option.bind (Sys.getenv_opt "TL_FAULT_BENCH_N") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1_000_000

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Seeded crash set of [k] distinct nodes, drawn through the schedule's
   own sampler so the bench fails the same way a chaos run would. *)
let crash_set ~seed ~n k =
  let spec = Printf.sprintf "seed=%d;crash_random@1:%d" seed k in
  match Schedule.of_spec spec with
  | Error e -> failwith e
  | Ok s ->
      List.filter_map
        (function _, Schedule.Crash v -> Some v | _ -> None)
        (Schedule.instantiate s ~n)

(* the chaos kernels, through the kernel entry point in seq mode *)
let converge_flood ~topo ~n =
  Proc.run_kernel ~mode:Engine.Seq ~topo
    ~kernel_for:(Proc.Kernels.flood ~source:0 ())
    ~stop:(Engine.Stable (n + 1)) ()

let converge_mis ~topo ~ids ~n =
  Proc.run_kernel ~mode:Engine.Seq ~topo
    ~kernel_for:(Proc.Kernels.mis_local_max ~ids)
    ~stop:(Engine.Halted (n + 64)) ()

(* Present neighbors of the crashed set — exactly the suspect list the
   chaos orchestrator hands repair_flood after a crash epoch. *)
let suspects_of ~tree ~sg crashed =
  List.concat_map
    (fun v ->
      Array.to_list (Graph.neighbors tree v)
      |> List.filter (Semi_graph.node_present sg))
    crashed

type row = {
  label : string;
  crashed : int;
  relabeled : int;
  region : int;
  repair_t : float;
  recompute_t : float;
  recompute_rounds : int;
  valid : bool;
  identical : bool;  (** repaired = recomputed (flood) / replay (MIS) *)
}

let flood_row ~tree ~n ~reps ~baseline ~rate =
  let k = max 1 (int_of_float (rate *. float_of_int n)) in
  let crashed = crash_set ~seed:(83 + int_of_float (rate *. 1e6)) ~n k in
  let damaged () =
    let sg = Semi_graph.of_graph tree in
    List.iter (Semi_graph.hide_node sg) crashed;
    sg
  in
  (* repair arm: surgery outside the timer, repair inside *)
  let repair_once () =
    let sg = damaged () in
    let labels = Array.copy baseline in
    let suspects = suspects_of ~tree ~sg crashed in
    let stats, t = time (fun () ->
      Repair.repair_flood ~sg ~source:0 ~labels ~suspects) in
    (sg, labels, stats, t)
  in
  let best = ref infinity and last = ref None in
  ignore (repair_once ());
  for _ = 1 to reps do
    let (_, _, _, t) as r = repair_once () in
    if t < !best then best := t;
    last := Some r
  done;
  let sg, labels, stats, _ = Option.get !last in
  let repair_t = !best in
  (* recompute arm: same surgery, then compile + run from scratch *)
  let recompute_once () =
    let sg = damaged () in
    time (fun () ->
        let topo = Topology.compile sg in
        converge_flood ~topo ~n)
  in
  let best_r = ref infinity and out = ref None in
  ignore (recompute_once ());
  for _ = 1 to reps do
    let o, t = recompute_once () in
    if t < !best_r then best_r := t;
    out := Some o
  done;
  let o = Option.get !out in
  let identical =
    let ok = ref true in
    for v = 0 to n - 1 do
      if Semi_graph.node_present sg v && labels.(v) <> o.Flat.slab.(v)
      then ok := false
    done;
    !ok
  in
  {
    label = Printf.sprintf "flood r=%g" rate;
    crashed = List.length crashed;
    relabeled = stats.Repair.relabeled;
    region = stats.Repair.region;
    repair_t;
    recompute_t = !best_r;
    recompute_rounds = o.Flat.rounds;
    valid = Repair.check_flood ~sg ~source:0 ~labels;
    identical;
  }

let mis_row ~tree ~n ~reps ~ids ~baseline ~rate =
  let k = max 1 (int_of_float (rate *. float_of_int n)) in
  let crashed = crash_set ~seed:(97 + int_of_float (rate *. 1e6)) ~n k in
  let damaged () =
    let sg = Semi_graph.of_graph tree in
    List.iter (Semi_graph.hide_node sg) crashed;
    sg
  in
  let repair_once () =
    let sg = damaged () in
    let labels = Array.copy baseline in
    let stats, t =
      time (fun () -> Repair.repair_mis ~graph:tree ~sg ~ids ~labels)
    in
    (sg, labels, stats, t)
  in
  let best = ref infinity and last = ref None in
  ignore (repair_once ());
  for _ = 1 to reps do
    let (_, _, _, t) as r = repair_once () in
    if t < !best then best := t;
    last := Some r
  done;
  let sg, labels, stats, _ = Option.get !last in
  (* a second repair from the same inputs must reproduce labels exactly *)
  let _, labels2, stats2, _ = repair_once () in
  let identical = labels = labels2 && stats = stats2 in
  let recompute_once () =
    let sg = damaged () in
    time (fun () ->
        let topo = Topology.compile sg in
        converge_mis ~topo ~ids ~n)
  in
  let best_r = ref infinity and out = ref None in
  ignore (recompute_once ());
  for _ = 1 to reps do
    let o, t = recompute_once () in
    if t < !best_r then best_r := t;
    out := Some o
  done;
  let o = Option.get !out in
  {
    label = Printf.sprintf "mis   r=%g" rate;
    crashed = List.length crashed;
    relabeled = stats.Repair.relabeled;
    region = stats.Repair.region;
    repair_t = !best;
    recompute_t = !best_r;
    recompute_rounds = o.Flat.rounds;
    valid = Repair.check_mis ~sg ~labels;
    identical;
  }

let run () =
  let n = fault_bench_n () in
  let seed = 83 in
  Util.heading
    (Printf.sprintf
       "B13: tl_fault — incremental repair vs full recompute (n=%d, random \
        tree)" n);
  let tree = Gen.random_tree ~n ~seed in
  let sg0 = Semi_graph.of_graph tree in
  let topo0 = Topology.compile sg0 in
  let flood_base = (converge_flood ~topo:topo0 ~n).Flat.slab in
  let ids = Array.init n (fun i -> (i * 2654435761) land max_int) in
  let mis_base = (converge_mis ~topo:topo0 ~ids ~n).Flat.slab in
  let reps = if n >= 500_000 then 3 else 5 in
  let rates = [ 0.001; 0.01; 0.05 ] in
  let rows =
    List.map (fun rate ->
        flood_row ~tree ~n ~reps ~baseline:flood_base ~rate)
      rates
    @ [ mis_row ~tree ~n ~reps ~ids ~baseline:mis_base ~rate:0.01 ]
  in
  Util.table
    ~header:
      [ "workload"; "crashed"; "relabeled"; "region"; "repair s";
        "recompute s"; "speedup"; "valid"; "identical" ]
    (List.map
       (fun r ->
         [
           r.label; Util.i r.crashed; Util.i r.relabeled; Util.i r.region;
           Printf.sprintf "%.4f" r.repair_t;
           Printf.sprintf "%.4f" r.recompute_t;
           Printf.sprintf "%.1fx"
             (if r.repair_t > 0. then r.recompute_t /. r.repair_t else 0.);
           Util.pass_fail r.valid;
           Util.pass_fail r.identical;
         ])
       rows);
  let all_valid = List.for_all (fun r -> r.valid) rows in
  let all_identical = List.for_all (fun r -> r.identical) rows in
  Printf.printf "\nall repairs valid: %s   deterministic: %s\n"
    (Util.pass_fail all_valid)
    (Util.pass_fail all_identical);
  (* ---- disarmed vs armed-empty gate overhead, B10-style ---- *)
  let flood () =
    let o = converge_flood ~topo:topo0 ~n in
    (o.Flat.slab, o.Flat.rounds)
  in
  let oreps = if n >= 500_000 then 9 else 7 in
  (* one untimed warmup per arm, then interleaved off/on trials so
     machine-load drift lands on both arms alike (see B10) *)
  let off_r = ref (flood ()) in
  let on_r =
    ref (Injector.with_armed Schedule.empty ~n (fun _ -> flood ()))
  in
  let best_off = ref infinity and best_on = ref infinity in
  for _ = 1 to oreps do
    let r, dt = time flood in
    if dt < !best_off then best_off := dt;
    off_r := r;
    Injector.with_armed Schedule.empty ~n (fun _ ->
        let r, dt = time flood in
        if dt < !best_on then best_on := dt;
        on_r := r)
  done;
  let off_t = !best_off and on_t = !best_on in
  let gate_identical = !off_r = !on_r in
  let overhead_pct =
    if off_t > 0. then 100. *. ((on_t -. off_t) /. off_t) else 0.
  in
  Util.table
    ~header:[ "mode"; "rounds"; "wall s"; "identical" ]
    [
      [ "gate-disarmed"; Util.i (snd !off_r); Printf.sprintf "%.4f" off_t;
        "-" ];
      [ "gate-armed-empty"; Util.i (snd !on_r); Printf.sprintf "%.4f" on_t;
        Util.pass_fail gate_identical ];
    ];
  Printf.printf "armed-empty within 3%% of disarmed: %s (%+.2f%%)\n"
    (Util.pass_fail (on_t <= off_t *. 1.03 || on_t <= off_t +. 0.005))
    overhead_pct;
  let mode_row (mode, t, rounds) =
    Json.Obj
      [
        ("mode", Json.Str mode);
        ("domains", Json.Num 1.);
        ("wall_s", Json.Num t);
        ("rounds", Json.Num (float_of_int rounds));
      ]
  in
  Kernel_bench.merge_into_engine_json ~file:"BENCH_engine.json"
    [
      Json.Obj
        [
          ("kernel", Json.Str "fault-repair");
          ("n", Json.Num (float_of_int n));
          ("deterministic", Json.Bool (all_valid && all_identical));
          ( "modes",
            Json.Arr
              (List.concat_map
                 (fun r ->
                   let tag =
                     String.concat ""
                       (String.split_on_char ' ' r.label)
                   in
                   [
                     mode_row
                       (Printf.sprintf "repair:%s" tag, r.repair_t,
                        r.relabeled);
                     mode_row
                       (Printf.sprintf "recompute:%s" tag, r.recompute_t,
                        r.recompute_rounds);
                   ])
                 rows) );
        ];
      Json.Obj
        [
          ("kernel", Json.Str "fault-overhead");
          ("n", Json.Num (float_of_int n));
          ("deterministic", Json.Bool gate_identical);
          ( "modes",
            Json.Arr
              [
                mode_row ("gate-disarmed", off_t, snd !off_r);
                mode_row ("gate-armed-empty", on_t, snd !on_r);
              ] );
        ];
    ];
  Printf.printf "merged fault-repair + fault-overhead into BENCH_engine.json\n"
