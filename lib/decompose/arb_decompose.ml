module Graph = Tl_graph.Graph
module Props = Tl_graph.Props
module Semi_graph = Tl_graph.Semi_graph
module Class_sort = Tl_symmetry.Class_sort
module Span = Tl_obs.Span

type t = {
  graph : Graph.t;
  a : int;
  b : int;
  k : int;
  ids : int array;
  layer_of : int array; (* 1-based marking iteration *)
  iterations : int;
  f_index_of : int array; (* per edge: 1..2a for atypical, 0 for typical *)
  star_j : int array; (* per edge: 1..3 for atypical (color of higher end), 0 otherwise *)
  cv_rounds : int;
  star_edges : int array;
      (* the atypical edges by class, then center, then id: class
         c = 3 (i - 1) + (j - 1) is star_edges.(star_start.(c) ..
         star_start.(c + 1) - 1) *)
  star_start : int array; (* 3b + 1 slots *)
}

let lemma13_bound_of ~a ~k ~n =
  (* ⌈10 log_{k/a} n⌉ + 1 *)
  if n <= 1 then 1
  else
    let r = 10.0 *. log (float_of_int n) /. log (float_of_int k /. float_of_int a) in
    int_of_float (Float.ceil (r -. 1e-9)) + 1

(* The total order on nodes: layers, ties broken by id. *)
let higher layer_of ids u v =
  if layer_of.(u) <> layer_of.(v) then layer_of.(u) > layer_of.(v)
  else ids.(u) > ids.(v)

let higher_of graph layer_of ids e =
  let u, v = Graph.edge_endpoints graph e in
  if higher layer_of ids u v then u else v

let lower_of graph layer_of ids e =
  let u, v = Graph.edge_endpoints graph e in
  if higher layer_of ids u v then v else u

let run graph ~a ~k ~ids =
  if a < 1 then invalid_arg "Arb_decompose.run: a < 1";
  if k < 5 * a then invalid_arg "Arb_decompose.run: k < 5a";
  let n = Graph.n_nodes graph in
  if Array.length ids <> n then invalid_arg "Arb_decompose.run: bad ids";
  Span.with_span "arb-decompose"
    ~attrs:
      [ ("a", string_of_int a); ("k", string_of_int k); ("n", string_of_int n) ]
  @@ fun () ->
  let b = 2 * a in
  let m = Graph.n_edges graph in
  (* [layer_of.(v)] is 0 while [v] is alive, and [deg.(v)] counts its
     alive neighbors. [alive.(0 .. !n_alive - 1)] holds the alive nodes,
     in no particular order. The peel marks an atypical edge with
     [f_index_of.(e) = -1]; the F_i split gives it its forest. *)
  let layer_of = Array.make n 0 in
  let f_index_of = Array.make m 0 in
  let deg = Array.init n (Graph.degree graph) in
  let alive = Array.init n Fun.id in
  let n_alive = ref n in
  let n_atypical = ref 0 in
  let iteration = ref 0 in
  let bound = lemma13_bound_of ~a ~k ~n in
  (* An alive neighbor of degree above [k]: what a compress candidate
     counts, and the higher end of an atypical edge. *)
  let high u = layer_of.(u) = 0 && deg.(u) > k in
  let compressible v =
    deg.(v) <= k
    &&
    let nbrs = Graph.neighbors graph v in
    let count = ref 0 and i = ref 0 in
    while !count <= b && !i < Array.length nbrs do
      if high nbrs.(!i) then incr count;
      incr i
    done;
    !count <= b
  in
  Span.with_span "peel" (fun () ->
      while !n_alive > 0 do
        incr iteration;
        if !iteration > bound then
          failwith
            "Arb_decompose.run: Lemma 13 bound exceeded (arboricity larger than a?)";
        let i = !iteration in
        (* Compress(G[V_{i-1}], b, k), decided against the iteration-start
           state and applied simultaneously. The scan partitions [alive]
           in place, so the marked nodes end up in
           [alive.(!n_alive .. last)]. Marking a node during the scan
           cannot change a later decision: a marked node has degree at
           most [k], so [high] is false for it either way. *)
        let last = !n_alive - 1 in
        let lo = ref 0 and hi = ref last in
        while !lo <= !hi do
          let v = alive.(!lo) in
          if compressible v then begin
            layer_of.(v) <- i;
            alive.(!lo) <- alive.(!hi);
            alive.(!hi) <- v;
            decr hi
          end
          else incr lo
        done;
        n_alive := !lo;
        (* The atypical edges, still judged on the iteration-start
           degrees: from each marked node to its high neighbors, which
           stay alive and are therefore higher. *)
        for p = !lo to last do
          let u = alive.(p) in
          let nbrs = Graph.neighbors graph u and inc = Graph.incident graph u in
          for x = 0 to Array.length nbrs - 1 do
            if high nbrs.(x) then begin
              f_index_of.(inc.(x)) <- -1;
              incr n_atypical
            end
          done
        done;
        for p = !lo to last do
          let nbrs = Graph.neighbors graph alive.(p) in
          for x = 0 to Array.length nbrs - 1 do
            let u = nbrs.(x) in
            if layer_of.(u) = 0 then deg.(u) <- deg.(u) - 1
          done
        done
      done;
      Span.add_counter "iterations" !iteration);
  let star_j = Array.make m 0 in
  let n_atypical = !n_atypical in
  let cv_rounds, star_edges, star_start =
    if n_atypical = 0 then begin
      Span.with_span "cv3-forests" (fun () -> Span.add_counter "cv_rounds" 0);
      (0, [||], Array.make ((3 * b) + 1) 0)
    end
    else begin
      let cv_rounds = ref 0 in
      let lower_of = lower_of graph layer_of ids
      and higher_of = higher_of graph layer_of ids in
      (* F_i split, one pass in edge order: each lower endpoint numbers its
         atypical edges 1..2a. [deg] now counts the edges numbered so far. *)
      let numbered = deg in
      Array.fill numbered 0 n 0;
      let atypical = Array.make n_atypical 0 in
      let count = ref 0 in
      for e = 0 to m - 1 do
        if f_index_of.(e) <> 0 then begin
          let lo = lower_of e in
          let f = numbered.(lo) + 1 in
          numbered.(lo) <- f;
          f_index_of.(e) <- f;
          (* the compress condition guarantees at most b atypical edges per
             lower endpoint *)
          assert (f <= b);
          atypical.(!count) <- e;
          incr count
        end
      done;
      let forest_start = Array.make (b + 1) 0 in
      let by_forest = Array.make n_atypical 0 in
      Class_sort.sort ~classes:b
        ~class_of:(fun e -> f_index_of.(e) - 1)
        atypical ~start:forest_start ~order:by_forest;
      (* 3-color each forest F_i with Cole-Vishkin; a node may lie in
         several forests, so colors are per (node, i). Each forest writes
         its parent pointers into [parent] and its colors into [color] and
         resets both afterwards; [color.(v) >= 0] also marks [v] as listed
         in [members]. *)
      Span.with_span "cv3-forests" (fun () ->
          let parent = alive in
          Array.fill parent 0 n (-1);
          let color = numbered in
          Array.fill color 0 n (-1);
          let members = Array.make (min n (2 * n_atypical)) 0 in
          for i = 1 to b do
            let first = forest_start.(i - 1) and stop = forest_start.(i) in
            if stop > first then begin
              let size = ref 0 in
              let add v =
                if color.(v) < 0 then begin
                  color.(v) <- 0;
                  members.(!size) <- v;
                  incr size
                end
              in
              for p = first to stop - 1 do
                let e = by_forest.(p) in
                let lo = lower_of e and hi = higher_of e in
                parent.(lo) <- hi;
                add lo;
                add hi
              done;
              let nodes = Array.sub members 0 !size in
              let rounds = Tl_symmetry.Cole_vishkin.color3 ~nodes ~parent ~ids ~color in
              if rounds > !cv_rounds then cv_rounds := rounds;
              for p = first to stop - 1 do
                let e = by_forest.(p) in
                star_j.(e) <- color.(higher_of e) + 1;
                parent.(lower_of e) <- -1
              done;
              Array.iter (fun v -> color.(v) <- -1) nodes
            end
          done;
          Span.add_counter "cv_rounds" !cv_rounds);
      (* The star families: a stable counting sort of the atypical edges
         (in id order) by center, then by class. *)
      let center_start = Array.make (n + 1) 0 in
      let by_center = by_forest in
      Class_sort.sort ~classes:n ~class_of:higher_of atypical ~start:center_start
        ~order:by_center;
      let star_start = Array.make ((3 * b) + 1) 0 in
      let star_edges = atypical in
      Class_sort.sort ~classes:(3 * b)
        ~class_of:(fun e -> (3 * (f_index_of.(e) - 1)) + star_j.(e) - 1)
        by_center ~start:star_start ~order:star_edges;
      (!cv_rounds, star_edges, star_start)
    end
  in
  {
    graph; a; b; k; ids; layer_of; iterations = !iteration; f_index_of; star_j;
    cv_rounds; star_edges; star_start;
  }

let layer t v = t.layer_of.(v)
let iterations t = t.iterations
let a t = t.a
let b t = t.b
let k t = t.k

let is_higher t u v = higher t.layer_of t.ids u v
let higher_endpoint t e = higher_of t.graph t.layer_of t.ids e
let lower_endpoint t e = lower_of t.graph t.layer_of t.ids e

let decomposition_rounds t = 2 * t.iterations
let cv_rounds t = t.cv_rounds
let atypical t e = t.f_index_of.(e) > 0

let edges_where t atypical =
  let acc = ref [] in
  for e = Graph.n_edges t.graph - 1 downto 0 do
    if (t.f_index_of.(e) > 0) = atypical then acc := e :: !acc
  done;
  !acc

let typical_edges t = edges_where t false
let atypical_edges t = edges_where t true
let g_e2 t = Semi_graph.of_edge_subset t.graph (Array.map (fun f -> f = 0) t.f_index_of)

let f_index t e = t.f_index_of.(e)
let star_class t e = (t.f_index_of.(e), t.star_j.(e))

(* Read off the class's slice of [star_edges] back to front, so each
   center's edges come out in ascending id order without a reversal. *)
let stars t ~i ~j =
  if i < 1 || i > t.b || j < 1 || j > 3 then []
  else begin
    let c = (3 * (i - 1)) + (j - 1) in
    let acc = ref [] and center = ref (-1) and edges = ref [] in
    for p = t.star_start.(c + 1) - 1 downto t.star_start.(c) do
      let e = t.star_edges.(p) in
      let h = higher_endpoint t e in
      if h <> !center then begin
        if !edges <> [] then acc := (!center, !edges) :: !acc;
        center := h;
        edges := []
      end;
      edges := e :: !edges
    done;
    if !edges <> [] then (!center, !edges) :: !acc else !acc
  end

let out_degree_orientation t =
  Array.init (Graph.n_edges t.graph) (fun e ->
      let u, _v = Graph.edge_endpoints t.graph e in
      (* true iff oriented smaller -> larger, i.e. the smaller endpoint is
         the lower one *)
      lower_endpoint t e = u)

let max_out_degree t =
  let n = Graph.n_nodes t.graph in
  let out = Array.make n 0 in
  Graph.iter_edges
    (fun e _ ->
      let lo = lower_endpoint t e in
      out.(lo) <- out.(lo) + 1)
    t.graph;
  Array.fold_left max 0 out

let check_acyclic_orientation t =
  (* acyclicity: the orientation follows a total order (layer, id), so a
     directed cycle would need a strictly increasing cycle in that order;
     verify directly by checking every edge goes strictly "up" *)
  let strictly_up =
    Graph.fold_edges
      (fun e _ acc ->
        let lo = lower_endpoint t e and hi = higher_endpoint t e in
        acc && is_higher t hi lo && not (is_higher t lo hi))
      t.graph true
  in
  strictly_up && max_out_degree t <= t.k

let lemma13_bound t =
  lemma13_bound_of ~a:t.a ~k:t.k ~n:(Graph.n_nodes t.graph)

let check_lemma13 t = t.iterations <= lemma13_bound t

let typical_max_degree t =
  let n = Graph.n_nodes t.graph in
  let deg = Array.make n 0 in
  Graph.iter_edges
    (fun e (u, v) ->
      if not (atypical t e) then begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end)
    t.graph;
  Array.fold_left max 0 deg

let check_lemma14 t = typical_max_degree t <= t.k

let max_atypical_per_node t =
  let n = Graph.n_nodes t.graph in
  let cnt = Array.make n 0 in
  Graph.iter_edges
    (fun e _ ->
      if atypical t e then begin
        let lo = lower_endpoint t e in
        cnt.(lo) <- cnt.(lo) + 1
      end)
    t.graph;
  Array.fold_left max 0 cnt

let check_atypical_bound t = max_atypical_per_node t <= t.b

let check_forests t =
  let ok = ref true in
  for i = 1 to t.b do
    let edges = ref [] in
    Graph.iter_edges
      (fun e (u, v) -> if t.f_index_of.(e) = i then edges := (u, v) :: !edges)
      t.graph;
    if !edges <> [] then begin
      let nodes = List.concat_map (fun (u, v) -> [ u; v ]) !edges in
      let remap = Hashtbl.create 16 in
      let count = ref 0 in
      List.iter
        (fun v ->
          if not (Hashtbl.mem remap v) then begin
            Hashtbl.add remap v !count;
            incr count
          end)
        nodes;
      let sub =
        Graph.of_edges ~n:!count
          (List.map
             (fun (u, v) -> (Hashtbl.find remap u, Hashtbl.find remap v))
             !edges)
      in
      if not (Props.is_forest sub) then ok := false;
      (* at most one higher neighbor per node within F_i *)
      let higher_count = Array.make (Graph.n_nodes t.graph) 0 in
      Graph.iter_edges
        (fun e _ ->
          if t.f_index_of.(e) = i then begin
            let lo = lower_endpoint t e in
            higher_count.(lo) <- higher_count.(lo) + 1
          end)
        t.graph;
      if Array.exists (fun c -> c > 1) higher_count then ok := false
    end
  done;
  !ok

(* Linear: class (i, j) stamps its centers with its own number in
   [center_of], so whether a lower endpoint is a center of the class is
   one array read. *)
let check_stars t =
  let center_of = Array.make (Graph.n_nodes t.graph) 0 in
  let ok = ref true in
  for i = 1 to t.b do
    for j = 1 to 3 do
      let stamp = (3 * (i - 1)) + j in
      let sts = stars t ~i ~j in
      List.iter (fun (center, _) -> center_of.(center) <- stamp) sts;
      List.iter
        (fun (center, edges) ->
          (* all edges share [center] as higher endpoint, and no lower
             endpoint is itself a center of this (i, j) class *)
          List.iter
            (fun e ->
              if higher_endpoint t e <> center then ok := false;
              if center_of.(lower_endpoint t e) = stamp then ok := false)
            edges)
        sts
    done
  done;
  !ok
