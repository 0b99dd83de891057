(* Unit tests for the benchmark's statistics: exact nearest-rank
   quantiles, the fastest pass per request and the seeded Poisson
   arrival schedule. *)

let check_float = Alcotest.(check (float 0.))

let test_nearest_rank () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  check_float "median of 5" 3. (Stats.median xs);
  check_float "p0 is the minimum" 1. (Stats.quantile xs 0.);
  check_float "p100 is the maximum" 5. (Stats.quantile xs 1.);
  check_float "p90 of 5 is rank 5" 5. (Stats.quantile xs 0.9);
  check_float "p40 of 5 is rank 2" 2. (Stats.quantile xs 0.4);
  (* an even count takes the lower middle, a measured value *)
  check_float "median of 4" 2. (Stats.median [| 4.; 1.; 3.; 2. |]);
  check_float "single value" 7. (Stats.quantile [| 7. |] 0.99);
  Alcotest.(check (array (float 0.))) "input untouched" [| 5.; 1.; 4.; 2.; 3. |] xs

let test_percentiles_of_100 () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check_float "p50" 50. (Stats.quantile xs 0.5);
  check_float "p90" 90. (Stats.quantile xs 0.9);
  check_float "p99" 99. (Stats.quantile xs 0.99);
  let q1, q2, q3 = Stats.quartiles xs in
  check_float "q1" 25. q1;
  check_float "q2" 50. q2;
  check_float "q3" 75. q3

let test_rejects_bad_input () =
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.quantile: empty sample") (fun () ->
      ignore (Stats.median [||]));
  Alcotest.check_raises "q above 1"
    (Invalid_argument "Stats.quantile: q outside [0, 1]") (fun () ->
      ignore (Stats.quantile [| 1. |] 1.5))

let test_fastest_per_request () =
  Alcotest.(check (array (float 0.)))
    "element-wise minimum" [| 1.; 2.; 3. |]
    (Stats.fastest_per_request [ [| 4.; 2.; 3. |]; [| 1.; 5.; 3. |]; [| 2.; 2.; 9. |] ]);
  Alcotest.check_raises "ragged passes"
    (Invalid_argument "Stats.fastest_per_request: passes of different lengths") (fun () ->
      ignore (Stats.fastest_per_request [ [| 1. |]; [| 1.; 2. |] ]))

let test_poisson_deterministic () =
  let a = Stats.poisson_arrivals ~seed:7 ~rate:12. ~count:300 in
  let b = Stats.poisson_arrivals ~seed:7 ~rate:12. ~count:300 in
  let c = Stats.poisson_arrivals ~seed:8 ~rate:12. ~count:300 in
  Alcotest.(check (array (float 0.))) "same seed, same schedule" a b;
  Alcotest.(check bool) "another seed, another schedule" true (a <> c);
  Alcotest.(check bool) "positive and sorted" true
    (a.(0) >= 0.
    && Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) <= a.(i + 1))))

let test_poisson_rate () =
  let rate = 12. and count = 10_000 in
  let a = Stats.poisson_arrivals ~seed:1 ~rate ~count in
  let measured = float_of_int count /. a.(count - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "mean rate %.3f within 5%% of %.1f over ~1e4 arrivals" measured rate)
    true
    (Float.abs (measured -. rate) /. rate < 0.05)

let () =
  Alcotest.run "e2e_stats"
    [
      ( "quantiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "percentiles of 1..100" `Quick test_percentiles_of_100;
          Alcotest.test_case "bad input" `Quick test_rejects_bad_input;
          Alcotest.test_case "fastest pass per request" `Quick test_fastest_per_request;
        ] );
      ( "poisson",
        [
          Alcotest.test_case "seeded schedule is reproducible" `Quick
            test_poisson_deterministic;
          Alcotest.test_case "mean rate over 1e4 arrivals" `Quick test_poisson_rate;
        ] );
    ]
