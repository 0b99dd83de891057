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

(* What one [solve_node_list] call knows of a node: how many non-[D]
   labels it carries, the colors they use, and [mex], a color such that
   every color below it is used there. Read from the labeling once per
   call and updated as the call writes, so a hub's labels are scanned
   once rather than once per edge. *)
type endpoint = { mutable colored : int; used : (int, unit) Hashtbl.t; mutable mex : int }

let advance s =
  while Hashtbl.mem s.used s.mex do
    s.mex <- s.mex + 1
  done

let solve_node_list g labeling ~edges =
  let known = Hashtbl.create 16 in
  let endpoint v =
    match Hashtbl.find_opt known v with
    | Some s -> s
    | None ->
      let s = { colored = 0; used = Hashtbl.create 8; mex = 1 } in
      List.iter
        (function
          | Pair (_, b) ->
            s.colored <- s.colored + 1;
            Hashtbl.replace s.used b ()
          | D -> ())
        (Labeling.labels_at_node labeling v);
      advance s;
      Hashtbl.add known v s;
      s
  in
  let take s color =
    s.colored <- s.colored + 1;
    Hashtbl.replace s.used color ();
    advance s
  in
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      let hu = Graph.half_edge g ~edge:e ~node:u in
      let hv = Graph.half_edge g ~edge:e ~node:v in
      if Labeling.is_labeled labeling hu || Labeling.is_labeled labeling hv then
        invalid_arg "Edge_coloring.solve_node_list: edge already labeled";
      let su = endpoint u and sv = endpoint v in
      let cu = su.colored and cv = sv.colored in
      (* the smallest color free at both ends is at least either mex *)
      let color = ref (max su.mex sv.mex) in
      while Hashtbl.mem su.used !color || Hashtbl.mem sv.used !color do
        incr color
      done;
      let color = !color in
      assert (color <= cu + cv + 1);
      Labeling.set labeling hu (Pair (cu + 1, color));
      Labeling.set labeling hv (Pair (cv + 1, color));
      take su color;
      take sv color)
    edges

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_node_list g labeling ~edges:(List.init (Graph.n_edges g) Fun.id);
  labeling
