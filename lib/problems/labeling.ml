module Graph = Tl_graph.Graph

type 'l t = { graph : Graph.t; labels : 'l option array }

let create graph = { graph; labels = Array.make (Graph.n_half_edges graph) None }
let graph t = t.graph
let get t h = t.labels.(h)

let set t h l =
  match t.labels.(h) with
  | Some _ -> invalid_arg (Printf.sprintf "Labeling.set: half-edge %d already labeled" h)
  | None -> t.labels.(h) <- Some l

let set_some t h o =
  match (t.labels.(h), o) with
  | Some _, _ -> invalid_arg (Printf.sprintf "Labeling.set: half-edge %d already labeled" h)
  | None, None -> invalid_arg "Labeling.set_some: no label"
  | None, Some _ -> t.labels.(h) <- o

let set_exn_free t h l = t.labels.(h) <- Some l
let is_labeled t h = Option.is_some t.labels.(h)

let labels_at_node t v =
  List.filter_map (fun h -> t.labels.(h)) (Graph.half_edges_of t.graph v)

let labels_at_edge t e =
  List.filter_map (fun h -> t.labels.(h)) [ 2 * e; (2 * e) + 1 ]

let node_fully_labeled t v =
  List.for_all (fun h -> Option.is_some t.labels.(h)) (Graph.half_edges_of t.graph v)

let complete t = Array.for_all Option.is_some t.labels

let unlabeled_count t =
  Array.fold_left (fun acc l -> if Option.is_some l then acc else acc + 1) 0 t.labels

let copy t = { graph = t.graph; labels = Array.copy t.labels }
