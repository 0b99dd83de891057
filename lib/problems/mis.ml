module Graph = Tl_graph.Graph

type label = M | P | O

let pp_label ppf = function
  | M -> Format.pp_print_string ppf "M"
  | P -> Format.pp_print_string ppf "P"
  | O -> Format.pp_print_string ppf "O"

(* In MIS: every label M (vacuous for isolated nodes). Out of MIS: no M,
   one pointer P, the rest O. *)
let rec node_ok_from ms ps deg = function
  | [] -> ms = deg || (ms = 0 && ps = 1)
  | M :: rest -> node_ok_from (ms + 1) ps (deg + 1) rest
  | P :: rest -> node_ok_from ms (ps + 1) (deg + 1) rest
  | O :: rest -> node_ok_from ms ps (deg + 1) rest

let node_ok labels = node_ok_from 0 0 0 labels

let edge_ok = function
  | [] -> true
  | [ M ] | [ O ] -> true (* a rank-1 boundary label must not be a pointer *)
  | [ P ] -> false
  | [ a; b ] -> (
    match (a, b) with
    | M, P | P, M | M, O | O, M | O, O -> true
    | M, M | P, P | P, O | O, P -> false)
  | _ -> false

let problem =
  {
    Nec.name = "mis";
    equal_label = ( = );
    pp_label;
    node_ok;
    edge_ok;
  }

let decode g labeling =
  Array.init (Graph.n_nodes g) (fun v ->
      List.for_all (( = ) M) (Labeling.labels_at_node labeling v))

let encode g in_mis =
  if not (Tl_graph.Props.is_maximal_independent_set g in_mis) then
    invalid_arg "Mis.encode: not a maximal independent set";
  let labeling = Labeling.create g in
  for v = 0 to Graph.n_nodes g - 1 do
    if in_mis.(v) then
      List.iter (fun h -> Labeling.set labeling h M) (Graph.half_edges_of g v)
    else begin
      (* point at the first MIS neighbor; O on the rest *)
      let pointed = ref false in
      Array.iteri
        (fun i e ->
          let u = (Graph.neighbors g v).(i) in
          let h = Graph.half_edge g ~edge:e ~node:v in
          if in_mis.(u) && not !pointed then begin
            pointed := true;
            Labeling.set labeling h P
          end
          else Labeling.set labeling h O)
        (Graph.incident g v)
    end
  done;
  labeling

let label_all_halfedges g labeling v l =
  List.iter (fun h -> Labeling.set labeling h l) (Graph.half_edges_of g v)

let solve_edge_list g labeling ~nodes =
  List.iter
    (fun v ->
      List.iter
        (fun h ->
          if Labeling.is_labeled labeling h then
            invalid_arg "Mis.solve_edge_list: node already partially labeled")
        (Graph.half_edges_of g v);
      let opposite_m h =
        Labeling.get labeling (Graph.opposite_half_edge h) = Some M
      in
      let hs = Graph.half_edges_of g v in
      if not (List.exists opposite_m hs) then label_all_halfedges g labeling v M
      else begin
        let pointed = ref false in
        List.iter
          (fun h ->
            if opposite_m h && not !pointed then begin
              pointed := true;
              Labeling.set labeling h P
            end
            else Labeling.set labeling h O)
          hs
      end)
    nodes

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_edge_list g labeling ~nodes:(List.init (Graph.n_nodes g) Fun.id);
  labeling
