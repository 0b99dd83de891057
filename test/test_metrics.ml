(* Tests for the tl_metrics registry: bucket-layout properties (every
   float lands in exactly one bucket, indices are monotone), histogram
   snapshots and merge algebra, multi-domain observation, the
   tl_metrics = 1 JSON round-trip, Prometheus text exposition, quantile
   error bounds, the flight recorder ring, and the engine bridge
   (enable/disable). *)

module Metrics = Tl_obs.Metrics
module Json = Tl_obs.Json
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Flat = Tl_engine.Flat

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* The registry memoizes by name: property iterations that need an empty
   histogram each take a fresh one. *)
let fresh =
  let k = ref 0 in
  fun prefix ->
    incr k;
    Printf.sprintf "test_%s_%d" prefix !k

(* ---------- bucket layout ---------- *)

let test_bucket_layout () =
  check_int "n_buckets" 128 Metrics.n_buckets;
  check "first boundary is 1us" true (Metrics.bucket_le 0 = 1e-6);
  check "last boundary is +Inf" true
    (Metrics.bucket_le (Metrics.n_buckets - 1) = infinity);
  (* finite boundaries grow by exactly 2^(1/4) *)
  let growth = Float.pow 2. 0.25 in
  for i = 0 to Metrics.n_buckets - 3 do
    let ratio = Metrics.bucket_le (i + 1) /. Metrics.bucket_le i in
    check
      (Printf.sprintf "growth at %d" i)
      true
      (Float.abs (ratio -. growth) < 1e-12)
  done;
  (* totality on the specials the generators rarely produce *)
  check_int "nan -> 0" 0 (Metrics.bucket_index Float.nan);
  check_int "zero -> 0" 0 (Metrics.bucket_index 0.);
  check_int "negative -> 0" 0 (Metrics.bucket_index (-5.));
  check_int "+Inf -> last" (Metrics.n_buckets - 1)
    (Metrics.bucket_index infinity);
  (* boundary values belong to their own bucket (le is inclusive) *)
  for i = 0 to Metrics.n_buckets - 2 do
    check_int
      (Printf.sprintf "boundary %d inclusive" i)
      i
      (Metrics.bucket_index (Metrics.bucket_le i))
  done

let prop_exactly_one_bucket =
  QCheck.Test.make ~name:"every float lands in exactly one bucket" ~count:500
    QCheck.(float_range (-1.) 1e7)
    (fun x ->
      let i = Metrics.bucket_index x in
      0 <= i
      && i < Metrics.n_buckets
      && x <= Metrics.bucket_le i
      && (i = 0 || not (x <= Metrics.bucket_le (i - 1))))

let prop_bucket_index_monotone =
  QCheck.Test.make ~name:"bucket_index is monotone" ~count:500
    QCheck.(pair (float_range 0. 1e4) (float_range 0. 1e4))
    (fun (x, y) ->
      let lo = min x y and hi = max x y in
      Metrics.bucket_index lo <= Metrics.bucket_index hi)

(* ---------- histogram snapshots and merge algebra ---------- *)

let samples_arb =
  (* latencies in (0, 10s]: the layout's sweet spot *)
  QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (float_range 1e-7 10.))

let snap_of xs =
  let h = Metrics.histogram (fresh "hist") in
  List.iter (Metrics.observe h) xs;
  Metrics.histogram_snapshot h

let cumulative_ok (s : Metrics.hsnap) =
  let rec go prev = function
    | [] -> true
    | (le, cum) :: rest ->
      (match prev with
      | None -> cum > 0
      | Some (ple, pcum) -> ple < le && pcum < cum)
      && cum <= s.Metrics.h_count
      && go (Some (le, cum)) rest
  in
  go None s.Metrics.h_buckets

let prop_snapshot_cumulative_monotone =
  QCheck.Test.make
    ~name:"snapshot buckets are strictly increasing cumulatives" ~count:100
    samples_arb
    (fun xs ->
      let s = snap_of xs in
      s.Metrics.h_count = List.length xs && cumulative_ok s)

let same_structure a b =
  a.Metrics.h_count = b.Metrics.h_count
  && a.Metrics.h_buckets = b.Metrics.h_buckets

let sums_close a b =
  Float.abs (a.Metrics.h_sum -. b.Metrics.h_sum)
  <= 1e-9 *. (1. +. Float.abs a.Metrics.h_sum)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge_hsnap is commutative" ~count:100
    QCheck.(pair samples_arb samples_arb)
    (fun (xs, ys) ->
      let a = snap_of xs and b = snap_of ys in
      Metrics.merge_hsnap a b = Metrics.merge_hsnap b a)

let prop_merge_associative =
  QCheck.Test.make ~name:"merge_hsnap is associative" ~count:100
    QCheck.(triple samples_arb samples_arb samples_arb)
    (fun (xs, ys, zs) ->
      let a = snap_of xs and b = snap_of ys and c = snap_of zs in
      let l = Metrics.merge_hsnap (Metrics.merge_hsnap a b) c in
      let r = Metrics.merge_hsnap a (Metrics.merge_hsnap b c) in
      same_structure l r && sums_close l r)

let prop_merge_agrees_with_union =
  QCheck.Test.make
    ~name:"merge of two scrapes = scrape of the union" ~count:100
    QCheck.(pair samples_arb samples_arb)
    (fun (xs, ys) ->
      let merged = Metrics.merge_hsnap (snap_of xs) (snap_of ys) in
      let union = snap_of (xs @ ys) in
      same_structure merged union && sums_close merged union)

let test_multi_domain_observe () =
  let h = Metrics.histogram (fresh "domains") in
  let c = Metrics.counter (fresh "domains_total") in
  let per_domain = 1_000 in
  let worker () =
    Domain.spawn (fun () ->
        for i = 1 to per_domain do
          Metrics.observe h (1e-5 *. float_of_int i);
          Metrics.incr c 1
        done)
  in
  let ds = List.init 4 (fun _ -> worker ()) in
  List.iter Domain.join ds;
  let s = Metrics.histogram_snapshot h in
  check_int "histogram count over 4 domains" (4 * per_domain)
    s.Metrics.h_count;
  check_int "counter over 4 domains" (4 * per_domain) (Metrics.counter_value c);
  check "sum matches" true
    (let expected =
       4. *. (1e-5 *. (float_of_int (per_domain * (per_domain + 1)) /. 2.))
     in
     Float.abs (s.Metrics.h_sum -. expected) < 1e-6 *. expected);
  check "cumulative monotone" true (cumulative_ok s)

(* ---------- quantiles ---------- *)

let test_quantile_bounds () =
  let h = Metrics.histogram (fresh "quant") in
  for i = 1 to 100 do
    Metrics.observe h (0.001 *. float_of_int i) (* 1ms .. 100ms *)
  done;
  let s = Metrics.histogram_snapshot h in
  let growth = Float.pow 2. 0.25 in
  List.iter
    (fun q ->
      let true_q = 0.001 *. Float.ceil (q *. 100.) in
      let est = Metrics.quantile s q in
      check
        (Printf.sprintf "q%.2f overestimates by < 2^(1/4)" q)
        true
        (est >= true_q && est <= true_q *. growth *. (1. +. 1e-9)))
    [ 0.5; 0.9; 0.99; 1.0 ];
  check "empty histogram -> 0" true
    (Metrics.quantile
       { Metrics.h_count = 0; h_sum = 0.; h_buckets = [] }
       0.5
    = 0.);
  (* a sample beyond the top finite boundary pushes the max into +Inf *)
  let h2 = Metrics.histogram (fresh "quant_inf") in
  Metrics.observe h2 0.001;
  Metrics.observe h2 1e5;
  check "rank in +Inf bucket -> infinity" true
    (Metrics.quantile (Metrics.histogram_snapshot h2) 1.0 = infinity)

(* ---------- snapshot JSON round-trip and prom exposition ---------- *)

let test_snapshot_json_roundtrip () =
  let c = Metrics.counter (fresh "rt_total") in
  let g = Metrics.gauge (fresh "rt_depth") in
  let h =
    Metrics.histogram ~labels:[ ("problem", "mis"); ("engine", "seq") ]
      (fresh "rt_seconds")
  in
  Metrics.incr c 42;
  Metrics.set_gauge g (-3);
  List.iter (Metrics.observe h) [ 1e-5; 3e-4; 3e-4; 0.2; 1e5 ];
  let s = Metrics.snapshot () in
  check "snapshot has our counter" true
    (List.exists (fun (_, v) -> v = 42) s.Metrics.counters);
  match Metrics.snapshot_of_json (Metrics.snapshot_to_json s) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok decoded ->
    (* %.17g float printing makes the round-trip bit-exact *)
    check "counters survive" true (decoded.Metrics.counters = s.Metrics.counters);
    check "gauges survive" true (decoded.Metrics.gauges = s.Metrics.gauges);
    check "histograms survive" true
      (decoded.Metrics.histograms = s.Metrics.histograms);
    check "version rejected" true
      (match
         Metrics.snapshot_of_json
           (Json.Obj [ ("tl_metrics", Json.Num 99.) ])
       with
      | Error _ -> true
      | Ok _ -> false)

let test_prometheus_exposition () =
  let name = fresh "prom_seconds" in
  let h = Metrics.histogram ~labels:[ ("phase", "warm") ] name in
  List.iter (Metrics.observe h) [ 1e-5; 2e-5; 0.5 ];
  let s = Metrics.snapshot () in
  let prom = Metrics.to_prometheus s in
  let lines = String.split_on_char '\n' prom in
  check "TYPE line present" true
    (List.mem (Printf.sprintf "# TYPE %s histogram" name) lines);
  check "+Inf bucket carries the count" true
    (List.mem
       (Printf.sprintf "%s_bucket{phase=\"warm\",le=\"+Inf\"} 3" name)
       lines);
  check "count series" true
    (List.mem (Printf.sprintf "%s_count{phase=\"warm\"} 3" name) lines);
  (* every sample line is `series value` with a parseable value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value separator in %S" line
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          check
            (Printf.sprintf "numeric value in %S" line)
            true
            (Option.is_some (float_of_string_opt v)))
    lines

(* ---------- reset and the flight recorder ---------- *)

let test_reset () =
  let c = Metrics.counter (fresh "reset_total") in
  let h = Metrics.histogram (fresh "reset_seconds") in
  Metrics.incr c 7;
  Metrics.observe h 0.01;
  Metrics.reset ();
  check_int "counter zeroed" 0 (Metrics.counter_value c);
  check_int "histogram zeroed" 0
    (Metrics.histogram_snapshot h).Metrics.h_count;
  (* the handle survives the reset *)
  Metrics.incr c 1;
  check_int "handle still live" 1 (Metrics.counter_value c)

let ev ?(outcome = "ok") i =
  {
    Metrics.Recorder.ts = float_of_int i;
    kind = "request";
    key = Printf.sprintf "k%d" i;
    detail = "problem=mis engine=seq";
    outcome;
    latency_s = 0.001 *. float_of_int i;
  }

let test_recorder_ring () =
  Metrics.Recorder.clear ();
  let cap = Metrics.Recorder.capacity in
  for i = 1 to cap + 50 do
    Metrics.Recorder.record (ev i)
  done;
  let events = Metrics.Recorder.tail () in
  check_int "ring retains capacity" cap (List.length events);
  check_str "oldest survivor" "k51"
    (List.hd events).Metrics.Recorder.key;
  check_str "newest last"
    (Printf.sprintf "k%d" (cap + 50))
    (List.nth events (cap - 1)).Metrics.Recorder.key;
  let last4 = Metrics.Recorder.tail ~limit:4 () in
  check_int "limited tail" 4 (List.length last4);
  check_str "limited tail is the newest" (Printf.sprintf "k%d" (cap + 47))
    (List.hd last4).Metrics.Recorder.key;
  Metrics.Recorder.clear ();
  check_int "clear empties" 0 (List.length (Metrics.Recorder.tail ()))

let test_recorder_json_roundtrip () =
  let e = ev ~outcome:"error:failed" 3 in
  check "event round-trips" true
    (Metrics.Recorder.event_of_json (Metrics.Recorder.event_to_json e)
    = Some e);
  check "garbage rejected" true
    (Metrics.Recorder.event_of_json (Json.Obj [ ("kind", Json.Str "x") ])
    = None)

(* ---------- engine bridge ---------- *)

let test_engine_bridge () =
  let topo =
    Topology.compile (Semi_graph.of_graph (Gen.random_tree ~n:200 ~seed:5))
  in
  let flood () =
    ignore
      (Flat.exec ~topo ~kernel:(Flat.Kernels.flood ())
         ~stop:(Engine.Stable 201) ())
  in
  let runs = Metrics.counter "engine_runs_total" in
  Metrics.disable ();
  let before = Metrics.counter_value runs in
  flood ();
  check_int "disabled: no counting" before (Metrics.counter_value runs);
  Metrics.enable ();
  check "enabled flag" true (Metrics.enabled ());
  flood ();
  flood ();
  check_int "one increment per run" (before + 2) (Metrics.counter_value runs);
  check "steps counted" true
    (Metrics.counter_value (Metrics.counter "engine_steps_total") > 0);
  let run_h = Metrics.histogram_snapshot (Metrics.histogram "engine_run_seconds") in
  check "run latency observed" true (run_h.Metrics.h_count >= 2);
  Metrics.disable ();
  let after = Metrics.counter_value runs in
  flood ();
  check_int "disabled again: no counting" after (Metrics.counter_value runs)

let () =
  Alcotest.run "tl_metrics"
    [
      ( "buckets",
        [
          Alcotest.test_case "layout" `Quick test_bucket_layout;
          QCheck_alcotest.to_alcotest prop_exactly_one_bucket;
          QCheck_alcotest.to_alcotest prop_bucket_index_monotone;
        ] );
      ( "histograms",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_cumulative_monotone;
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_agrees_with_union;
          Alcotest.test_case "multi-domain observe" `Quick
            test_multi_domain_observe;
          Alcotest.test_case "quantile bounds" `Quick test_quantile_bounds;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "json round-trip" `Quick
            test_snapshot_json_roundtrip;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring overwrite + tail" `Quick test_recorder_ring;
          Alcotest.test_case "event json round-trip" `Quick
            test_recorder_json_roundtrip;
        ] );
      ( "engine-bridge",
        [ Alcotest.test_case "enable/disable" `Quick test_engine_bridge ] );
    ]
