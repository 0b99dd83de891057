module Graph = Tl_graph.Graph

type label = Pair of int * int | D

let pp_label ppf = function
  | Pair (a, b) -> Format.fprintf ppf "(%d,%d)" a b
  | D -> Format.pp_print_string ppf "D"

let rec color_unused b = function
  | [] -> true
  | Pair (_, b') :: rest -> b <> b' && color_unused b rest
  | D :: rest -> color_unused b rest

(* Every pair's degree part lies in [1, p], with [p] the number of pairs
   at the node, and no two pairs share a color. *)
let rec pairs_ok p = function
  | [] -> true
  | Pair (a, b) :: rest -> a >= 1 && a <= p && color_unused b rest && pairs_ok p rest
  | D :: rest -> pairs_ok p rest

let node_ok labels =
  pairs_ok (Nec.count (function Pair _ -> true | D -> false) labels) labels

let edge_ok_base = function
  | [] -> true
  | [ D ] -> true
  | [ Pair _ ] -> false
  | [ Pair (a1, b1); Pair (a2, b2) ] -> b1 = b2 && b1 >= 1 && a1 + a2 >= b1 + 1
  | [ _; _ ] -> false
  | _ -> false

let problem =
  {
    Nec.name = "edge-degree+1-edge-coloring";
    equal_label = ( = );
    pp_label;
    node_ok;
    edge_ok = edge_ok_base;
  }

let problem_two_delta ~delta =
  {
    Nec.name = Printf.sprintf "2*%d-1-edge-coloring" delta;
    equal_label = ( = );
    pp_label;
    node_ok;
    edge_ok =
      (fun labels ->
        edge_ok_base labels
        &&
        match labels with
        | [ Pair (_, b); Pair _ ] -> b <= (2 * delta) - 1
        | _ -> true);
  }

let decode g labeling =
  Array.init (Graph.n_edges g) (fun e ->
      match Labeling.labels_at_edge labeling e with
      | Pair (_, b) :: _ -> b
      | _ -> 0)

let encode g colors =
  if not (Tl_graph.Props.is_proper_edge_coloring g colors) then
    invalid_arg "Edge_coloring.encode: not proper";
  let labeling = Labeling.create g in
  Graph.iter_edges
    (fun e (u, v) ->
      let b = colors.(e) in
      if b < 1 || b > Tl_graph.Props.edge_degree g e + 1 then
        invalid_arg "Edge_coloring.encode: color out of palette";
      let a1 = min (Graph.degree g u) b in
      let a2 = max 1 (b + 1 - a1) in
      Labeling.set labeling (Graph.half_edge g ~edge:e ~node:u) (Pair (a1, b));
      Labeling.set labeling (Graph.half_edge g ~edge:e ~node:v) (Pair (a2, b)))
    g;
  labeling

let colored_count labeling v =
  Nec.count (function Pair _ -> true | D -> false) (Labeling.labels_at_node labeling v)

let colors_at labeling v =
  List.filter_map
    (function Pair (_, b) -> Some b | D -> None)
    (Labeling.labels_at_node labeling v)

let solve_node_list g labeling ~edges =
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      let hu = Graph.half_edge g ~edge:e ~node:u in
      let hv = Graph.half_edge g ~edge:e ~node:v in
      if Labeling.is_labeled labeling hu || Labeling.is_labeled labeling hv then
        invalid_arg "Edge_coloring.solve_node_list: edge already labeled";
      let cu = colored_count labeling u in
      let cv = colored_count labeling v in
      let forbidden = colors_at labeling u @ colors_at labeling v in
      let rec first c = if List.mem c forbidden then first (c + 1) else c in
      let color = first 1 in
      assert (color <= cu + cv + 1);
      Labeling.set labeling hu (Pair (cu + 1, color));
      Labeling.set labeling hv (Pair (cv + 1, color)))
    edges

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_node_list g labeling ~edges:(List.init (Graph.n_edges g) Fun.id);
  labeling
