module Graph = Tl_graph.Graph

type label = int

let pp_label = Format.pp_print_int

let rec all_equal c = function [] -> true | c' :: rest -> c = c' && all_equal c rest

(* One positive color on every half-edge, within the palette for the
   node's degree; an isolated node takes color 1. *)
let node_ok_bounded bound labels =
  match labels with
  | [] -> 1 <= bound 0
  | c :: rest -> c >= 1 && all_equal c rest && c <= bound (List.length labels)

let edge_ok = function
  | [] | [ _ ] -> true
  | [ c1; c2 ] -> c1 <> c2
  | _ -> false

let problem_deg_plus_one =
  {
    Nec.name = "deg+1-coloring";
    equal_label = ( = );
    pp_label;
    node_ok = node_ok_bounded (fun deg -> deg + 1);
    edge_ok;
  }

let problem_delta_plus_one ~delta =
  {
    Nec.name = Printf.sprintf "%d+1-coloring" delta;
    equal_label = ( = );
    pp_label;
    node_ok = node_ok_bounded (fun _ -> delta + 1);
    edge_ok;
  }

let decode g labeling =
  Array.init (Graph.n_nodes g) (fun v ->
      match Labeling.labels_at_node labeling v with [] -> 1 | c :: _ -> c)

let encode g colors =
  if not (Tl_graph.Props.is_proper_coloring g colors) then
    invalid_arg "Coloring.encode: not a proper coloring";
  let labeling = Labeling.create g in
  for v = 0 to Graph.n_nodes g - 1 do
    List.iter
      (fun h -> Labeling.set labeling h colors.(v))
      (Graph.half_edges_of g v)
  done;
  labeling

(* The half-edge in slot [i] of [v]'s incidence row, as in [Mis]. *)
let half_at inc adj v i = (2 * inc.(i)) + if v < adj.(i) then 0 else 1

let solve_edge_list g labeling ~nodes =
  List.iter
    (fun v ->
      let inc = Graph.incident g v and adj = Graph.neighbors g v in
      let deg = Array.length inc in
      for i = 0 to deg - 1 do
        if Labeling.is_labeled labeling (half_at inc adj v i) then
          invalid_arg "Coloring.solve_edge_list: node already partially labeled"
      done;
      let forbidden = Array.make (deg + 2) false in
      for i = 0 to deg - 1 do
        match Labeling.get labeling (half_at inc adj v i lxor 1) with
        | Some c when c <= deg + 1 -> forbidden.(c) <- true
        | Some _ | None -> ()
      done;
      let color = ref 1 in
      while forbidden.(!color) do
        incr color
      done;
      for i = 0 to deg - 1 do
        Labeling.set labeling (half_at inc adj v i) !color
      done)
    nodes

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_edge_list g labeling ~nodes:(List.init (Graph.n_nodes g) Fun.id);
  labeling
