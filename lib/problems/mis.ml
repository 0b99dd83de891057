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

(* The half-edge in slot [i] of [v]'s incidence row: [2e + side], side 0
   being the smaller endpoint. *)
let half_at inc adj v i = (2 * inc.(i)) + if v < adj.(i) then 0 else 1

(* The first slot from [i] on whose opposite half-edge reads M, or the
   degree. *)
let rec first_m labeling inc adj v i =
  if i = Array.length inc then i
  else
    match Labeling.get labeling (half_at inc adj v i lxor 1) with
    | Some M -> i
    | Some (P | O) | None -> first_m labeling inc adj v (i + 1)

(* One shared block per label for [Labeling.set_some]. *)
let some_m = Some M
let some_p = Some P
let some_o = Some O

let solve_edge_list g labeling ~nodes =
  List.iter
    (fun v ->
      let inc = Graph.incident g v and adj = Graph.neighbors g v in
      let d = Array.length inc in
      for i = 0 to d - 1 do
        if Labeling.is_labeled labeling (half_at inc adj v i) then
          invalid_arg "Mis.solve_edge_list: node already partially labeled"
      done;
      let p = first_m labeling inc adj v 0 in
      for i = 0 to d - 1 do
        Labeling.set_some labeling (half_at inc adj v i)
          (if p = d then some_m else if i = p then some_p else some_o)
      done)
    nodes

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_edge_list g labeling ~nodes:(List.init (Graph.n_nodes g) Fun.id);
  labeling
