module Graph = Tl_graph.Graph

type label = M | P | O | D

let pp_label ppf l =
  Format.pp_print_string ppf
    (match l with M -> "M" | P -> "P" | O -> "O" | D -> "D")

let node_ok labels =
  match Nec.count (function M -> true | P | O | D -> false) labels with
  | 1 -> true (* exactly one M; the rest are necessarily in {P, O, D} *)
  | 0 -> List.for_all (function O | D -> true | M | P -> false) labels
  | _ -> false

let edge_ok = function
  | [] -> true
  | [ D ] -> true
  | [ M ] | [ P ] | [ O ] -> false
  | [ a; b ] -> (
    match (a, b) with
    | P, O | O, P | M, M | P, P -> true
    | _ -> false)
  | _ -> false

let problem =
  { Nec.name = "maximal-matching"; equal_label = ( = ); pp_label; node_ok; edge_ok }

let decode g labeling =
  Array.init (Graph.n_edges g) (fun e ->
      match Labeling.labels_at_edge labeling e with
      | [ M; M ] -> true
      | _ -> false)

let encode g in_matching =
  if not (Tl_graph.Props.is_maximal_matching g in_matching) then
    invalid_arg "Matching.encode: not a maximal matching";
  let n = Graph.n_nodes g in
  let matched = Array.make n false in
  Graph.iter_edges
    (fun e (u, v) ->
      if in_matching.(e) then begin
        matched.(u) <- true;
        matched.(v) <- true
      end)
    g;
  let labeling = Labeling.create g in
  Graph.iter_edges
    (fun e (u, v) ->
      let hu = Graph.half_edge g ~edge:e ~node:u in
      let hv = Graph.half_edge g ~edge:e ~node:v in
      if in_matching.(e) then begin
        Labeling.set labeling hu M;
        Labeling.set labeling hv M
      end
      else begin
        Labeling.set labeling hu (if matched.(u) then P else O);
        Labeling.set labeling hv (if matched.(v) then P else O)
      end)
    g;
  labeling

(* One shared block per label for [Labeling.set_some]. *)
let some_m = Some M
let some_p = Some P
let some_o = Some O

(* Whether a node has an M half-edge is read from the labeling once per
   call and kept in [matched]: during the call only the call itself
   writes at the nodes it touches (the stars of one class are
   node-disjoint), and it writes M exactly where it records [true]. A hub
   of degree d is then read once instead of once per star edge. Edges
   are stored smaller endpoint first, so edge [e]'s half-edges are [2e]
   at [u] and [2e + 1] at [v]. *)
let solve_node_list g labeling ~edges =
  let matched = Hashtbl.create 16 in
  let has_m v =
    match Hashtbl.find_opt matched v with
    | Some b -> b
    | None ->
      let inc = Graph.incident g v and adj = Graph.neighbors g v in
      let b = ref false and i = ref 0 in
      while (not !b) && !i < Array.length inc do
        let h = (2 * inc.(!i)) + if v < adj.(!i) then 0 else 1 in
        (match Labeling.get labeling h with Some M -> b := true | _ -> ());
        incr i
      done;
      Hashtbl.replace matched v !b;
      !b
  in
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      let hu = 2 * e and hv = (2 * e) + 1 in
      if Labeling.is_labeled labeling hu || Labeling.is_labeled labeling hv then
        invalid_arg "Matching.solve_node_list: edge already labeled";
      match (has_m u, has_m v) with
      | false, false ->
        Labeling.set_some labeling hu some_m;
        Labeling.set_some labeling hv some_m;
        Hashtbl.replace matched u true;
        Hashtbl.replace matched v true
      | false, true ->
        Labeling.set_some labeling hu some_o;
        Labeling.set_some labeling hv some_p
      | true, false ->
        Labeling.set_some labeling hu some_p;
        Labeling.set_some labeling hv some_o
      | true, true ->
        Labeling.set_some labeling hu some_p;
        Labeling.set_some labeling hv some_p)
    edges

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_node_list g labeling ~edges:(List.init (Graph.n_edges g) Fun.id);
  labeling
