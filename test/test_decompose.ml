(* Tests for the decompositions: Algorithm 1 (rake-and-compress) with the
   Lemma 9/10/11 certificates, and Algorithm 3 with the Lemma 13/14 and
   star certificates. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Props = Tl_graph.Props
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module RC = Tl_decompose.Rake_compress
module AD = Tl_decompose.Arb_decompose

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Rake-and-compress ---------- *)

let rc_of ?(k = 3) (n, seed) =
  let tree = Gen.random_tree ~n ~seed in
  (tree, RC.run tree ~k ~ids:(Ids.permuted ~n ~seed:(seed + 1)))

let test_rc_marks_everything () =
  List.iter
    (fun spec ->
      let tree, rc = rc_of spec in
      ignore tree;
      check "lemma 9" true (RC.check_lemma9 rc))
    [ (1, 0); (2, 1); (50, 2); (500, 3); (2000, 4) ]

let test_rc_path_is_all_compress () =
  (* on a path with k >= 2 every node is compressed in iteration 1 *)
  let tree = Gen.path 20 in
  let rc = RC.run tree ~k:3 ~ids:(Ids.identity 20) in
  check_int "one iteration" 1 (RC.iterations rc);
  List.iter
    (fun v ->
      check "compressed" true (RC.mark rc v = RC.Compressed 1))
    (List.init 20 Fun.id)

let test_rc_star_rakes_leaves () =
  (* star with high-degree center and k = 3: leaves rake, center follows *)
  let tree = Gen.star 20 in
  let rc = RC.run tree ~k:3 ~ids:(Ids.identity 20) in
  check "leaf raked" true (RC.mark rc 5 = RC.Raked 1);
  check "center in later layer" true (RC.layer_index rc 0 > RC.layer_index rc 5)

let test_rc_total_order () =
  let tree, rc = rc_of (100, 7) in
  (* the order is total and antisymmetric *)
  for u = 0 to 99 do
    for v = 0 to 99 do
      if u <> v then
        check "antisymmetry" true (RC.is_higher rc u v <> RC.is_higher rc v u)
    done
  done;
  Graph.iter_edges
    (fun e _ ->
      let hi = RC.higher_endpoint rc e and lo = RC.lower_endpoint rc e in
      check "endpoints differ" true (hi <> lo);
      check "hi is higher" true (RC.is_higher rc hi lo))
    tree

let test_rc_lemma10 () =
  List.iter
    (fun (spec, k) ->
      let tree, rc =
        let n, seed = spec in
        let tree = Gen.random_tree ~n ~seed in
        (tree, RC.run tree ~k ~ids:(Ids.permuted ~n ~seed:(seed + 1)))
      in
      ignore tree;
      check "lemma 10" true (RC.check_lemma10 rc);
      check "T_C underlying degree" true
        (Semi_graph.max_underlying_degree (RC.t_c rc) <= k))
    [ ((200, 8), 2); ((200, 9), 3); ((500, 10), 5); ((1000, 11), 8) ]

let test_rc_lemma11 () =
  List.iter
    (fun spec ->
      let _, rc = rc_of spec in
      check "lemma 11" true (RC.check_lemma11 rc))
    [ (50, 12); (300, 13); (1500, 14) ]

let test_rc_balanced_tree () =
  (* the lower-bound instances: balanced Δ-regular trees *)
  List.iter
    (fun (delta, n, k) ->
      let tree = Gen.balanced_regular_tree ~delta ~n in
      let rc = RC.run tree ~k ~ids:(Ids.identity n) in
      check "lemma 9" true (RC.check_lemma9 rc);
      check "lemma 10" true (RC.check_lemma10 rc);
      check "lemma 11" true (RC.check_lemma11 rc))
    [ (3, 100, 2); (4, 300, 3); (6, 500, 4) ]

let test_rc_partition () =
  let _, rc = rc_of (150, 15) in
  let c = List.length (RC.compressed_nodes rc) in
  let r = List.length (RC.raked_nodes rc) in
  check_int "partition" 150 (c + r)

let test_rc_tc_tr_structure () =
  let tree, rc = rc_of (80, 16) in
  let t_c = RC.t_c rc in
  let t_r = RC.t_r rc in
  (* every edge of the tree is present in T_C or T_R (or both) *)
  Graph.iter_edges
    (fun e _ ->
      check "edge present somewhere" true
        (Semi_graph.edge_present t_c e || Semi_graph.edge_present t_r e))
    tree;
  (* half-edges are partitioned between T_C and T_R *)
  for h = 0 to Graph.n_half_edges tree - 1 do
    let in_c = Semi_graph.half_edge_present t_c h in
    let in_r = Semi_graph.half_edge_present t_r h in
    check "half-edge in exactly one part" true (in_c <> in_r)
  done

let test_rc_rejects () =
  check "k < 2" true
    (try RC.run (Gen.path 3) ~k:1 ~ids:(Ids.identity 3) |> ignore; false
     with Invalid_argument _ -> true);
  check "non-forest" true
    (try RC.run (Gen.cycle 5) ~k:3 ~ids:(Ids.identity 5) |> ignore; false
     with Invalid_argument _ -> true);
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun k ->
      check (Printf.sprintf "k = %d rejected" k) true
        (raises (fun () -> RC.run (Gen.random_tree ~n:30 ~seed:k) ~k ~ids:(Ids.identity 30))))
    [ -3; 0 ];
  List.iter
    (fun n ->
      check (Printf.sprintf "cycle of %d rejected" n) true
        (raises (fun () -> RC.run (Gen.cycle n) ~k:3 ~ids:(Ids.identity n))))
    [ 3; 4; 17 ];
  (* a tree plus one cycle elsewhere is no forest either *)
  let g = Graph.of_edges ~n:8 [ (0, 1); (1, 2); (3, 4); (4, 5); (5, 6); (6, 3) ] in
  check "forest with a cycle rejected" true
    (raises (fun () -> RC.run g ~k:4 ~ids:(Ids.identity 8)))

let test_rc_on_forest () =
  let f = Gen.random_forest ~n:200 ~trees:6 ~seed:20 in
  let rc = RC.run f ~k:3 ~ids:(Ids.permuted ~n:200 ~seed:21) in
  check "lemma 9 on forest" true (RC.check_lemma9 rc);
  check "lemma 10 on forest" true (RC.check_lemma10 rc);
  check "lemma 11 on forest" true (RC.check_lemma11 rc)

(* ---------- the list-based process and T_R components as oracles ---------- *)

(* Algorithm 1 as the library ran it before its flat rewrite: every step
   filters [List.init n] against the state at the start of the step and
   then removes the chosen nodes one by one. Returns the marks and the
   iteration count. *)
let list_rake_compress tree ~k =
  let n = Graph.n_nodes tree in
  let marks = Array.make n (RC.Raked 0) in
  let alive = Array.make n true in
  let deg = Array.init n (Graph.degree tree) in
  let remaining = ref n in
  let iteration = ref 0 in
  let remove v =
    alive.(v) <- false;
    Array.iter (fun u -> if alive.(u) then deg.(u) <- deg.(u) - 1) (Graph.neighbors tree v);
    decr remaining
  in
  while !remaining > 0 do
    incr iteration;
    let i = !iteration in
    let compress =
      List.filter
        (fun v ->
          alive.(v)
          && deg.(v) <= k
          && Array.for_all
               (fun u -> (not alive.(u)) || deg.(u) <= k)
               (Graph.neighbors tree v))
        (List.init n Fun.id)
    in
    List.iter
      (fun v ->
        marks.(v) <- RC.Compressed i;
        remove v)
      compress;
    let rake = List.filter (fun v -> alive.(v) && deg.(v) <= 1) (List.init n Fun.id) in
    List.iter
      (fun v ->
        marks.(v) <- RC.Raked i;
        remove v)
      rake
  done;
  (marks, !iteration)

(* The forests the flat process is checked on; [n] is approximate for
   balanced trees and caterpillars. Isolated nodes are appended after a
   random forest. *)
let oracle_forest ~shape ~n ~seed =
  match shape with
  | 0 -> Gen.random_tree ~n ~seed
  | 1 -> Gen.balanced_regular_tree ~delta:(2 + (seed mod 9)) ~n
  | 2 -> Gen.path n
  | 3 -> Gen.star n
  | 4 -> Gen.caterpillar ~spine:(max 1 (n / 4)) ~legs:(1 + (seed mod 5))
  | 5 -> Gen.power_law_tree ~n ~seed
  | _ ->
    let f = Gen.random_forest ~n ~trees:(1 + (seed mod min 7 n)) ~seed in
    let isolated = 1 + (seed mod 5) in
    Graph.of_edges ~n:(Graph.n_nodes f + isolated) (Graph.edge_list f)

let forest_gen =
  QCheck.(quad (int_range 0 6) (int_range 1 400) (int_range 2 16) (int_range 0 100000))

let prop_rc_list_oracle =
  QCheck.Test.make ~name:"flat rake-compress = list-based oracle" ~count:300 forest_gen
    (fun (shape, n, k, seed) ->
      let tree = oracle_forest ~shape ~n ~seed in
      let n = Graph.n_nodes tree in
      let rc = RC.run tree ~k ~ids:(Ids.permuted ~n ~seed:(seed + 1)) in
      let marks, iterations = list_rake_compress tree ~k in
      RC.iterations rc = iterations
      && List.for_all (fun v -> RC.mark rc v = marks.(v)) (List.init n Fun.id))

let prop_rc_components_oracle =
  QCheck.Test.make ~name:"T_R components, highest, eccentricity = list oracle"
    ~count:300 forest_gen (fun (shape, n, k, seed) ->
      let tree = oracle_forest ~shape ~n ~seed in
      let n = Graph.n_nodes tree in
      let rc = RC.run tree ~k ~ids:(Ids.permuted ~n ~seed:(seed + 1)) in
      let t_r = RC.t_r rc in
      let members = Semi_graph.underlying_components t_r in
      let c = RC.raked_components rc in
      c.RC.members = members
      && Array.length c.RC.highest = Array.length members
      && Array.length c.RC.eccentricity = Array.length members
      && List.for_all
           (fun i ->
             match members.(i) with
             | [] -> false
             | first :: _ as component ->
               let highest =
                 List.fold_left
                   (fun acc v -> if RC.is_higher rc v acc then v else acc)
                   first component
               in
               c.RC.highest.(i) = highest
               && c.RC.eccentricity.(i)
                  = Semi_graph.underlying_eccentricity t_r highest)
           (List.init (Array.length members) Fun.id))

(* Words allocated by [f ()]: [Gc.minor_words] is exact on OCaml 5.1,
   while [Gc.counters]' minor count lags until the next minor
   collection; large arrays go straight to the major heap. *)
let allocated_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  (r, words () -. w0)

(* On the paper's balanced Δ = 8 tree (n = 5·10⁴, k = g(n), 6
   iterations), the flat process allocates its three int arrays and the
   forest check's two, 5 words per node; filtering [List.init n] at
   every step with boxed marks cost 71. *)
let test_rc_allocation_budget () =
  let n = 50_000 in
  let tree = Gen.balanced_regular_tree ~delta:8 ~n in
  let ids = Ids.permuted ~n ~seed:2 in
  let k = Tl_core.Complexity.choose_k ~f:Tl_core.Complexity.f_linear ~n in
  let rc, words = allocated_words (fun () -> RC.run tree ~k ~ids) in
  check_int "6 iterations" 6 (RC.iterations rc);
  let per_node = words /. float_of_int n in
  check (Printf.sprintf "%.1f words per node within 12" per_node) true (per_node <= 12.)

(* ---------- Arboricity decomposition ---------- *)

let ad_of ~a ~k (n, seed) =
  let g =
    if a = 1 then Gen.random_tree ~n ~seed
    else Gen.forest_union ~n ~arboricity:a ~seed
  in
  (g, AD.run g ~a ~k ~ids:(Ids.permuted ~n ~seed:(seed + 1)))

let test_ad_marks_everything () =
  List.iter
    (fun (spec, a, k) ->
      let _, d = ad_of ~a ~k spec in
      check "lemma 13" true (AD.check_lemma13 d);
      check "all layers positive" true
        (List.for_all (fun v -> AD.layer d v >= 1)
           (List.init (fst spec) Fun.id)))
    [ ((1, 0), 1, 5); ((100, 1), 1, 5); ((200, 2), 2, 10); ((400, 3), 3, 15) ]

let test_ad_lemma14 () =
  List.iter
    (fun (spec, a, k) ->
      let _, d = ad_of ~a ~k spec in
      check "lemma 14" true (AD.check_lemma14 d);
      check "typical degree direct" true (AD.typical_max_degree d <= k))
    [ ((300, 4), 1, 5); ((300, 5), 2, 10); ((600, 6), 3, 20) ]

let test_ad_atypical_bound () =
  List.iter
    (fun (spec, a, k) ->
      let _, d = ad_of ~a ~k spec in
      check "atypical <= 2a" true (AD.check_atypical_bound d))
    [ ((300, 7), 2, 10); ((500, 8), 3, 15) ]

let test_ad_forests_and_stars () =
  List.iter
    (fun (spec, a, k) ->
      let _, d = ad_of ~a ~k spec in
      check "forests" true (AD.check_forests d);
      check "stars" true (AD.check_stars d))
    [ ((200, 9), 2, 10); ((400, 10), 3, 15); ((150, 11), 1, 5) ]

let test_ad_edge_partition () =
  let g, d = ad_of ~a:2 ~k:10 (250, 12) in
  let typical = List.length (AD.typical_edges d) in
  let atypical = List.length (AD.atypical_edges d) in
  check_int "partition of edges" (Graph.n_edges g) (typical + atypical);
  (* every atypical edge belongs to exactly one F_{i,j} class *)
  List.iter
    (fun e ->
      let i, j = AD.star_class d e in
      check "class assigned" true (i >= 1 && i <= AD.b d && j >= 1 && j <= 3))
    (AD.atypical_edges d);
  List.iter
    (fun e -> check "typical unassigned" true (AD.star_class d e = (0, 0)))
    (AD.typical_edges d)

let test_ad_stars_cover_atypical () =
  let _, d = ad_of ~a:2 ~k:10 (250, 13) in
  let covered = ref 0 in
  for i = 1 to AD.b d do
    for j = 1 to 3 do
      List.iter
        (fun (_, edges) -> covered := !covered + List.length edges)
        (AD.stars d ~i ~j)
    done
  done;
  check_int "stars cover atypical edges" (List.length (AD.atypical_edges d)) !covered

let test_ad_g_e2 () =
  let g, d = ad_of ~a:2 ~k:10 (250, 14) in
  ignore g;
  let sg = AD.g_e2 d in
  check "rank 2 everywhere" true
    (List.for_all (fun e -> Semi_graph.rank sg e = 2) (Semi_graph.edges sg));
  check "degree bound" true (Semi_graph.max_underlying_degree sg <= AD.k d)

let test_ad_planar () =
  let g = Gen.triangulated_grid 12 in
  let n = Graph.n_nodes g in
  let d = AD.run g ~a:3 ~k:15 ~ids:(Ids.permuted ~n ~seed:15) in
  check "lemma 13" true (AD.check_lemma13 d);
  check "lemma 14" true (AD.check_lemma14 d);
  check "stars" true (AD.check_stars d)

let test_ad_orientation_corollary () =
  List.iter
    (fun (spec, a, k) ->
      let g, d = ad_of ~a ~k spec in
      check "acyclic, out-degree <= k" true (AD.check_acyclic_orientation d);
      let orientation = AD.out_degree_orientation d in
      check_int "orientation covers all edges" (Graph.n_edges g)
        (Array.length orientation))
    [ ((200, 15), 2, 10); ((400, 16), 3, 15); ((150, 17), 1, 5) ];
  (* hub-heavy instance: the bound k is actually stressed *)
  let g = Gen.power_law_union ~n:2000 ~arboricity:2 ~seed:18 in
  let d = AD.run g ~a:2 ~k:10 ~ids:(Ids.permuted ~n:2000 ~seed:19) in
  check "hub orientation" true (AD.check_acyclic_orientation d);
  check "out degree positive" true (AD.max_out_degree d >= 1)

let test_ad_rejects () =
  check "a < 1" true
    (try AD.run (Gen.path 3) ~a:0 ~k:5 ~ids:(Ids.identity 3) |> ignore; false
     with Invalid_argument _ -> true);
  check "k < 5a" true
    (try AD.run (Gen.path 3) ~a:2 ~k:9 ~ids:(Ids.identity 3) |> ignore; false
     with Invalid_argument _ -> true)

let test_ad_dense_graph_fails_gracefully () =
  (* a clique has arboricity ~ n/2; claiming a = 1 must be caught by the
     Lemma 13 iteration guard rather than looping forever *)
  let g = Gen.complete 30 in
  check "guard fires" true
    (try AD.run g ~a:1 ~k:5 ~ids:(Ids.identity 30) |> ignore; false
     with Failure _ -> true)

(* ---------- Algorithm 3: list oracle ---------- *)

(* Algorithm 3 as the library ran it before its flat rewrite: every
   iteration filters [List.init n], each forest scans every edge twice,
   and each star family scans every edge, hashes by center and sorts.
   Forests are colored by the library kernel, whose equality with the
   list Cole-Vishkin test_symmetry checks. *)
type list_ad = {
  layer_of : int array;
  iterations : int;
  atypical_of : bool array;
  f_index_of : int array;
  star_j : int array;
  cv_rounds : int;
}

let list_arb_decompose graph ~a ~k ~ids =
  let n = Graph.n_nodes graph in
  let b = 2 * a in
  let m = Graph.n_edges graph in
  let layer_of = Array.make n 0 in
  let alive = Array.make n true in
  let deg = Array.init n (Graph.degree graph) in
  let atypical_of = Array.make m false in
  let remaining = ref n in
  let iteration = ref 0 in
  let bound =
    if n <= 1 then 1
    else
      let r = 10.0 *. log (float_of_int n) /. log (float_of_int k /. float_of_int a) in
      int_of_float (Float.ceil (r -. 1e-9)) + 1
  in
  while !remaining > 0 do
    incr iteration;
    if !iteration > bound then
      failwith
        "Arb_decompose.run: Lemma 13 bound exceeded (arboricity larger than a?)";
    let i = !iteration in
    let marked =
      List.filter
        (fun v ->
          alive.(v)
          && deg.(v) <= k
          &&
          let high = ref 0 in
          Array.iter
            (fun u -> if alive.(u) && deg.(u) > k then incr high)
            (Graph.neighbors graph v);
          !high <= b)
        (List.init n Fun.id)
    in
    List.iter
      (fun u ->
        let inc = Graph.incident graph u in
        Array.iteri
          (fun idx v ->
            if alive.(v) && deg.(v) > k then atypical_of.(inc.(idx)) <- true)
          (Graph.neighbors graph u))
      marked;
    List.iter
      (fun v ->
        layer_of.(v) <- i;
        alive.(v) <- false;
        decr remaining)
      marked;
    List.iter
      (fun v ->
        Array.iter
          (fun u -> if alive.(u) then deg.(u) <- deg.(u) - 1)
          (Graph.neighbors graph v))
      marked
  done;
  let is_higher u v =
    if layer_of.(u) <> layer_of.(v) then layer_of.(u) > layer_of.(v)
    else ids.(u) > ids.(v)
  in
  let higher_of e =
    let u, v = Graph.edge_endpoints graph e in
    if is_higher u v then u else v
  in
  let lower_of e =
    let u, v = Graph.edge_endpoints graph e in
    if is_higher u v then v else u
  in
  let f_index_of = Array.make m 0 in
  let next_color = Array.make n 1 in
  for e = 0 to m - 1 do
    if atypical_of.(e) then begin
      let lo = lower_of e in
      f_index_of.(e) <- next_color.(lo);
      next_color.(lo) <- next_color.(lo) + 1;
      assert (f_index_of.(e) <= b)
    end
  done;
  let star_j = Array.make m 0 in
  let cv_rounds = ref 0 in
  for i = 1 to b do
    let parent = Array.make n (-1) in
    let in_forest = Array.make n false in
    for e = 0 to m - 1 do
      if f_index_of.(e) = i then begin
        parent.(lower_of e) <- higher_of e;
        in_forest.(lower_of e) <- true;
        in_forest.(higher_of e) <- true
      end
    done;
    let nodes = List.filter (fun v -> in_forest.(v)) (List.init n Fun.id) in
    if nodes <> [] then begin
      let colors = Array.make n (-1) in
      let rounds =
        Tl_symmetry.Cole_vishkin.color3 ~nodes:(Array.of_list nodes) ~parent ~ids
          ~color:colors
      in
      if rounds > !cv_rounds then cv_rounds := rounds;
      for e = 0 to m - 1 do
        if f_index_of.(e) = i then star_j.(e) <- colors.(higher_of e) + 1
      done
    end
  done;
  let r =
    { layer_of; iterations = !iteration; atypical_of; f_index_of; star_j;
      cv_rounds = !cv_rounds }
  in
  let stars ~i ~j =
    let by_center = Hashtbl.create 16 in
    Graph.iter_edges
      (fun e _ ->
        if f_index_of.(e) = i && star_j.(e) = j then begin
          let center = higher_of e in
          let old = try Hashtbl.find by_center center with Not_found -> [] in
          Hashtbl.replace by_center center (e :: old)
        end)
      graph;
    Hashtbl.fold (fun center edges acc -> (center, List.rev edges) :: acc) by_center []
    |> List.sort compare
  in
  (r, stars)

(* [check_stars] as the library ran it before its stamp array: a
   [List.mem] over the class's centers for every star edge. *)
let list_check_stars d =
  let ok = ref true in
  for i = 1 to AD.b d do
    for j = 1 to 3 do
      let sts = AD.stars d ~i ~j in
      let centers = List.map fst sts in
      List.iter
        (fun (center, edges) ->
          List.iter
            (fun e ->
              if AD.higher_endpoint d e <> center then ok := false;
              if List.mem (AD.lower_endpoint d e) centers then ok := false)
            edges)
        sts
    done
  done;
  !ok

(* The graphs Algorithm 3 is checked on: power-law unions, forest unions,
   triangulated grids (planar), grids and trees. [ga] is the generated
   arboricity, which may exceed the [a] the run claims. *)
let ad_instance ~family ~n ~ga ~seed =
  match family with
  | 0 -> Gen.power_law_union ~n ~arboricity:ga ~seed
  | 1 -> Gen.forest_union ~n ~arboricity:ga ~seed
  | 2 -> Gen.triangulated_grid (2 + (n mod 23))
  | 3 -> Gen.grid (1 + (n mod 19)) (1 + (seed mod 29))
  | 4 -> Gen.random_tree ~n ~seed
  | _ -> Gen.power_law_tree ~n ~seed

let prop_ad_list_oracle =
  QCheck.Test.make ~name:"flat Algorithm 3 = list-based oracle" ~count:300
    QCheck.(
      pair
        (quad (int_range 0 5) (int_range 1 400) (int_range 1 3) (int_range 1 3))
        (pair bool (int_range 0 100000)))
    (fun ((family, n, ga, a), (wide, seed)) ->
      let g = ad_instance ~family ~n ~ga ~seed in
      let n = Graph.n_nodes g in
      let k = if wide then 10 * a else 5 * a in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      match list_arb_decompose g ~a ~k ~ids with
      | exception Failure msg -> (
        match AD.run g ~a ~k ~ids with
        | exception Failure msg' -> msg = msg'
        | _ -> false)
      | o, stars ->
        let d = AD.run g ~a ~k ~ids in
        let b = AD.b d in
        let every count f = List.for_all f (List.init count Fun.id) in
        AD.iterations d = o.iterations
        && AD.cv_rounds d = o.cv_rounds
        && every n (fun v -> AD.layer d v = o.layer_of.(v))
        && every (Graph.n_edges g) (fun e ->
               AD.atypical d e = o.atypical_of.(e)
               && AD.f_index d e = o.f_index_of.(e)
               && AD.star_class d e = (o.f_index_of.(e), o.star_j.(e)))
        (* out-of-range classes give []; (0, 0) is no class, though the
           oracle's filter reads it as the typical edges *)
        && every (b + 2) (fun i ->
               every 5 (fun j -> (i, j) = (0, 0) || AD.stars d ~i ~j = stars ~i ~j))
        && AD.check_stars d = list_check_stars d)

(* ---------- qcheck properties ---------- *)

let prop_rc_certificates =
  QCheck.Test.make ~name:"rake-and-compress certificates on random trees"
    ~count:40
    QCheck.(triple (int_range 1 300) (int_range 2 10) (int_range 0 100000))
    (fun (n, k, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let rc = RC.run tree ~k ~ids:(Ids.permuted ~n ~seed:(seed + 1)) in
      RC.check_lemma9 rc && RC.check_lemma10 rc && RC.check_lemma11 rc)

let prop_rc_halfedge_partition =
  QCheck.Test.make ~name:"T_C/T_R half-edge partition" ~count:30
    QCheck.(pair (int_range 2 200) (int_range 0 100000))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let rc = RC.run tree ~k:3 ~ids:(Ids.permuted ~n ~seed:(seed + 1)) in
      let t_c = RC.t_c rc and t_r = RC.t_r rc in
      let ok = ref true in
      for h = 0 to Graph.n_half_edges tree - 1 do
        if Semi_graph.half_edge_present t_c h = Semi_graph.half_edge_present t_r h
        then ok := false
      done;
      !ok)

let prop_ad_certificates =
  QCheck.Test.make ~name:"Algorithm 3 certificates on arboricity-a graphs"
    ~count:30
    QCheck.(
      quad (int_range 2 200) (int_range 1 4) (int_range 0 3) (int_range 0 100000))
    (fun (n, a, kslack, seed) ->
      let g = Gen.forest_union ~n ~arboricity:a ~seed in
      let k = (5 * a) + (kslack * a) in
      let d = AD.run g ~a ~k ~ids:(Ids.permuted ~n ~seed:(seed + 1)) in
      AD.check_lemma13 d && AD.check_lemma14 d && AD.check_atypical_bound d
      && AD.check_forests d && AD.check_stars d)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rc_certificates;
      prop_rc_halfedge_partition;
      prop_ad_certificates;
      prop_rc_list_oracle;
      prop_rc_components_oracle;
      prop_ad_list_oracle;
    ]

let () =
  Alcotest.run "tl_decompose"
    [
      ( "rake_compress",
        [
          Alcotest.test_case "lemma 9" `Quick test_rc_marks_everything;
          Alcotest.test_case "path compresses" `Quick test_rc_path_is_all_compress;
          Alcotest.test_case "star rakes" `Quick test_rc_star_rakes_leaves;
          Alcotest.test_case "total order" `Quick test_rc_total_order;
          Alcotest.test_case "lemma 10" `Quick test_rc_lemma10;
          Alcotest.test_case "lemma 11" `Quick test_rc_lemma11;
          Alcotest.test_case "balanced regular trees" `Quick test_rc_balanced_tree;
          Alcotest.test_case "partition" `Quick test_rc_partition;
          Alcotest.test_case "T_C / T_R structure" `Quick test_rc_tc_tr_structure;
          Alcotest.test_case "input validation" `Quick test_rc_rejects;
          Alcotest.test_case "forests accepted" `Quick test_rc_on_forest;
          Alcotest.test_case "allocation budget" `Quick test_rc_allocation_budget;
        ] );
      ( "arb_decompose",
        [
          Alcotest.test_case "lemma 13" `Quick test_ad_marks_everything;
          Alcotest.test_case "lemma 14" `Quick test_ad_lemma14;
          Alcotest.test_case "atypical bound" `Quick test_ad_atypical_bound;
          Alcotest.test_case "forests and stars" `Quick test_ad_forests_and_stars;
          Alcotest.test_case "edge partition" `Quick test_ad_edge_partition;
          Alcotest.test_case "stars cover atypical" `Quick test_ad_stars_cover_atypical;
          Alcotest.test_case "G[E2] structure" `Quick test_ad_g_e2;
          Alcotest.test_case "orientation corollary" `Quick test_ad_orientation_corollary;
          Alcotest.test_case "planar instance" `Quick test_ad_planar;
          Alcotest.test_case "input validation" `Quick test_ad_rejects;
          Alcotest.test_case "bad arboricity guard" `Quick test_ad_dense_graph_fails_gracefully;
        ] );
      ("properties", qcheck_tests);
    ]
