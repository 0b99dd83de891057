module Graph = Tl_graph.Graph
module Props = Tl_graph.Props

type label = In | Out

let pp_label ppf l =
  Format.pp_print_string ppf (match l with In -> "In" | Out -> "Out")

let node_ok labels =
  List.length labels < 3 || List.exists (function Out -> true | In -> false) labels

let edge_ok = function
  | [] | [ In ] | [ Out ] -> true
  | [ In; Out ] | [ Out; In ] -> true
  | _ -> false

let problem =
  { Nec.name = "sinkless-orientation"; equal_label = ( = ); pp_label; node_ok; edge_ok }

let decode g labeling =
  Array.init (Graph.n_edges g) (fun e ->
      Labeling.get labeling (2 * e) = Some Out)

(* Orient edge e away from node v. *)
let orient g labeling e ~from =
  let to_ = Graph.other_endpoint g e from in
  Labeling.set labeling (Graph.half_edge g ~edge:e ~node:from) Out;
  Labeling.set labeling (Graph.half_edge g ~edge:e ~node:to_) In

(* Find a cycle in the component of [start] (assumes one exists); returns
   the cycle as a list of (node, edge-to-next) pairs. *)
let find_cycle g start =
  let n = Graph.n_nodes g in
  let parent_edge = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let state = Array.make n 0 (* 0 unseen, 1 on stack, 2 done *) in
  let exception Found of int * int * int in
  (* (ancestor, descendant, closing edge) *)
  let rec dfs v =
    state.(v) <- 1;
    let adj = Graph.neighbors g v in
    let inc = Graph.incident g v in
    Array.iteri
      (fun i u ->
        let e = inc.(i) in
        if e <> parent_edge.(v) then
          if state.(u) = 1 then raise (Found (u, v, e))
          else if state.(u) = 0 then begin
            parent.(u) <- v;
            parent_edge.(u) <- e;
            dfs u
          end)
      adj;
    state.(v) <- 2
  in
  match dfs start with
  | () -> invalid_arg "Orientation.find_cycle: acyclic component"
  | exception Found (anc, desc, closing) ->
    (* walk up from desc to anc collecting tree edges *)
    let rec walk v acc =
      if v = anc then acc
      else walk parent.(v) ((parent.(v), parent_edge.(v)) :: acc)
    in
    (* cycle: anc -> ... -> desc -> (closing) -> anc *)
    walk desc [ (desc, closing) ]

let solve_sequential g =
  let labeling = Labeling.create g in
  let n = Graph.n_nodes g in
  let members = Props.component_members g in
  Array.iter
    (fun nodes ->
      match nodes with
      | [] -> ()
      | first :: _ ->
        let low_degree =
          List.find_opt (fun v -> Graph.degree g v <= 2) nodes
        in
        let sources, oriented_cycle =
          match low_degree with
          | Some root -> ([ root ], [])
          | None ->
            (* min degree >= 3: a cycle exists; orient it cyclically *)
            let cycle = find_cycle g first in
            List.iter (fun (v, e) -> orient g labeling e ~from:v) cycle;
            (List.map fst cycle, List.map snd cycle)
        in
        ignore oriented_cycle;
        (* BFS from the sources; orient each tree edge child -> parent *)
        let seen = Array.make n false in
        let queue = Queue.create () in
        List.iter
          (fun s ->
            seen.(s) <- true;
            Queue.push s queue)
          sources;
        while not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          let adj = Graph.neighbors g v in
          let inc = Graph.incident g v in
          Array.iteri
            (fun i u ->
              if not seen.(u) then begin
                seen.(u) <- true;
                orient g labeling inc.(i) ~from:u;
                Queue.push u queue
              end)
            adj
        done)
    members;
  (* any remaining (non-tree, non-cycle) edges: orient small -> large *)
  Graph.iter_edges
    (fun e (u, _) ->
      if not (Labeling.is_labeled labeling (2 * e)) then
        orient g labeling e ~from:u)
    g;
  labeling
