module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph

type 'l t = {
  name : string;
  equal_label : 'l -> 'l -> bool;
  pp_label : Format.formatter -> 'l -> unit;
  node_ok : 'l list -> bool;
  edge_ok : 'l list -> bool;
}

type violation =
  | Node_violation of int * string
  | Edge_violation of int * string
  | Missing_half_edge of int

let render_config pp_label labels =
  Format.asprintf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_label)
    labels

(* One pass over the present edges, then one over the present nodes,
   reading labels straight from the incidence arrays. Side 0 of edge [e]
   is its smaller endpoint, so the half-edge of [e] at [v] is [2e] when
   [v] is below its neighbor and [2e + 1] otherwise. *)
let validate_semi problem sg labeling =
  let g = Semi_graph.base sg in
  let render labels = render_config problem.pp_label labels in
  let missing = ref [] and node_bad = ref [] and edge_bad = ref [] in
  let check_edge e labels =
    if not (problem.edge_ok labels) then
      edge_bad := Edge_violation (e, render labels) :: !edge_bad
  in
  for e = 0 to Graph.n_edges g - 1 do
    if Semi_graph.edge_present sg e then begin
      let u, w = Graph.edge_endpoints g e in
      let has_u = Semi_graph.node_present sg u in
      let has_w = Semi_graph.node_present sg w in
      let a = if has_u then Labeling.get labeling (2 * e) else None in
      let b = if has_w then Labeling.get labeling ((2 * e) + 1) else None in
      if has_u && Option.is_none a then
        missing := Missing_half_edge (2 * e) :: !missing;
      if has_w && Option.is_none b then
        missing := Missing_half_edge ((2 * e) + 1) :: !missing;
      (* the rank-sized configuration, checked once every present
         endpoint's half-edge is labeled *)
      match (has_u, has_w, a, b) with
      | true, true, Some a, Some b -> check_edge e [ a; b ]
      | true, false, Some a, _ -> check_edge e [ a ]
      | false, true, _, Some b -> check_edge e [ b ]
      | false, false, _, _ -> check_edge e []
      | _ -> ()
    end
  done;
  for v = Graph.n_nodes g - 1 downto 0 do
    if Semi_graph.node_present sg v then begin
      let inc = Graph.incident g v and adj = Graph.neighbors g v in
      let labels = ref [] and complete = ref true in
      for i = Array.length inc - 1 downto 0 do
        let e = inc.(i) in
        if Semi_graph.edge_present sg e then
          match Labeling.get labeling ((2 * e) + if v < adj.(i) then 0 else 1) with
          | Some l -> labels := l :: !labels
          | None -> complete := false
      done;
      if !complete && not (problem.node_ok !labels) then
        node_bad := Node_violation (v, render !labels) :: !node_bad
    end
  done;
  !missing @ !node_bad @ List.rev !edge_bad

let validate problem g labeling =
  validate_semi problem (Semi_graph.of_graph g) labeling

let validate_partial problem g labeling =
  let violations = ref [] in
  for v = Graph.n_nodes g - 1 downto 0 do
    let hs = Graph.half_edges_of g v in
    let labels = List.filter_map (Labeling.get labeling) hs in
    if List.length labels = List.length hs && not (problem.node_ok labels)
    then
      violations :=
        Node_violation (v, render_config problem.pp_label labels) :: !violations
  done;
  Graph.iter_edges
    (fun e _ ->
      match Labeling.labels_at_edge labeling e with
      | [ _; _ ] as labels ->
        if not (problem.edge_ok labels) then
          violations :=
            Edge_violation (e, render_config problem.pp_label labels)
            :: !violations
      | _ -> ())
    g;
  !violations

let is_valid problem g labeling = validate problem g labeling = []

let pp_violation ppf = function
  | Node_violation (v, config) ->
    Format.fprintf ppf "node %d has invalid configuration %s" v config
  | Edge_violation (e, config) ->
    Format.fprintf ppf "edge %d has invalid configuration %s" e config
  | Missing_half_edge h -> Format.fprintf ppf "half-edge %d is unlabeled" h

let multiset_equal equal xs ys =
  let rec remove_one x = function
    | [] -> None
    | y :: rest when equal x y -> Some rest
    | y :: rest -> Option.map (fun r -> y :: r) (remove_one x rest)
  in
  let rec go xs ys =
    match xs with
    | [] -> ys = []
    | x :: rest -> (
      match remove_one x ys with
      | None -> false
      | Some ys' -> go rest ys')
  in
  go xs ys

(* A fold with [p] as an argument rather than captured, so counting
   allocates no closure. *)
let rec count_from n p = function
  | [] -> n
  | l :: rest -> count_from (if p l then n + 1 else n) p rest

let count p labels = count_from 0 p labels
