type t = {
  base : Graph.t;
  node_in : bool array;
  edge_in : bool array;
}

let of_node_subset base node_in =
  if Array.length node_in <> Graph.n_nodes base then
    invalid_arg "Semi_graph.of_node_subset: wrong node mask length";
  let edge_in = Array.make (Graph.n_edges base) false in
  Graph.iter_edges
    (fun e (u, v) -> if node_in.(u) || node_in.(v) then edge_in.(e) <- true)
    base;
  { base; node_in = Array.copy node_in; edge_in }

let of_edge_subset base edge_in =
  if Array.length edge_in <> Graph.n_edges base then
    invalid_arg "Semi_graph.of_edge_subset: wrong edge mask length";
  let node_in = Array.make (Graph.n_nodes base) false in
  Graph.iter_edges
    (fun e (u, v) ->
      if edge_in.(e) then begin
        node_in.(u) <- true;
        node_in.(v) <- true
      end)
    base;
  { base; node_in; edge_in = Array.copy edge_in }

let of_graph base =
  {
    base;
    node_in = Array.make (Graph.n_nodes base) true;
    edge_in = Array.make (Graph.n_edges base) true;
  }

let base t = t.base
let node_present t v = t.node_in.(v)
let edge_present t e = t.edge_in.(e)

let hide_node t v = t.node_in.(v) <- false
let hide_edge t e = t.edge_in.(e) <- false

let half_edge_present t h =
  t.edge_in.(Graph.half_edge_edge h) && t.node_in.(Graph.half_edge_node t.base h)

let nodes t =
  let acc = ref [] in
  for v = Array.length t.node_in - 1 downto 0 do
    if t.node_in.(v) then acc := v :: !acc
  done;
  !acc

let edges t =
  let acc = ref [] in
  for e = Array.length t.edge_in - 1 downto 0 do
    if t.edge_in.(e) then acc := e :: !acc
  done;
  !acc

let n_present_nodes t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.node_in

let rank t e =
  if not t.edge_in.(e) then invalid_arg "Semi_graph.rank: absent edge";
  let u, v = Graph.edge_endpoints t.base e in
  (if t.node_in.(u) then 1 else 0) + if t.node_in.(v) then 1 else 0

let sdeg t v =
  if not t.node_in.(v) then invalid_arg "Semi_graph.sdeg: absent node";
  Array.fold_left
    (fun acc e -> if t.edge_in.(e) then acc + 1 else acc)
    0 (Graph.incident t.base v)

let underlying_degree t v =
  if not t.node_in.(v) then invalid_arg "Semi_graph.underlying_degree: absent node";
  let inc = Graph.incident t.base v in
  let adj = Graph.neighbors t.base v in
  let d = ref 0 in
  Array.iteri
    (fun i e -> if t.edge_in.(e) && t.node_in.(adj.(i)) then incr d)
    inc;
  !d

let max_underlying_degree t =
  let d = ref 0 in
  Array.iteri
    (fun v present ->
      if present then begin
        let dv = underlying_degree t v in
        if dv > !d then d := dv
      end)
    t.node_in;
  !d

let half_edges_of t v =
  if not t.node_in.(v) then invalid_arg "Semi_graph.half_edges_of: absent node";
  List.filter
    (fun h -> t.edge_in.(Graph.half_edge_edge h))
    (Graph.half_edges_of t.base v)

let rank2_neighbors t v =
  if not t.node_in.(v) then invalid_arg "Semi_graph.rank2_neighbors: absent node";
  let inc = Graph.incident t.base v in
  let adj = Graph.neighbors t.base v in
  let acc = ref [] in
  for i = Array.length inc - 1 downto 0 do
    if t.edge_in.(inc.(i)) && t.node_in.(adj.(i)) then
      acc := (adj.(i), inc.(i)) :: !acc
  done;
  !acc

let iter_rank2_neighbors t v f =
  if not t.node_in.(v) then
    invalid_arg "Semi_graph.iter_rank2_neighbors: absent node";
  let inc = Graph.incident t.base v in
  let adj = Graph.neighbors t.base v in
  for i = 0 to Array.length inc - 1 do
    if t.edge_in.(inc.(i)) && t.node_in.(adj.(i)) then f adj.(i) inc.(i)
  done

let underlying_components t =
  let n = Graph.n_nodes t.base in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if t.node_in.(s) && comp.(s) < 0 then begin
      comp.(s) <- !count;
      Queue.push s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        List.iter
          (fun (u, _e) ->
            if comp.(u) < 0 then begin
              comp.(u) <- !count;
              Queue.push u queue
            end)
          (rank2_neighbors t v)
      done;
      incr count
    end
  done;
  let members = Array.make !count [] in
  for v = n - 1 downto 0 do
    if comp.(v) >= 0 then members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  members

let component_of t v =
  if not (node_present t v) then invalid_arg "Semi_graph.component_of: absent node";
  let dist = ref [ v ] in
  let seen = Hashtbl.create 16 in
  Hashtbl.add seen v ();
  let queue = Queue.create () in
  Queue.push v queue;
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    List.iter
      (fun (u, _e) ->
        if not (Hashtbl.mem seen u) then begin
          Hashtbl.add seen u ();
          dist := u :: !dist;
          Queue.push u queue
        end)
      (rank2_neighbors t w)
  done;
  List.sort compare !dist

let underlying_distances t src =
  if not (node_present t src) then
    invalid_arg "Semi_graph.underlying_distances: absent node";
  let n = Graph.n_nodes t.base in
  let dist = Array.make n (-1) in
  (* an int queue over the incidence rows: each node enters once *)
  let queue = Array.make n 0 in
  let tail = ref 1 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let inc = Graph.incident t.base v and adj = Graph.neighbors t.base v in
    let d = dist.(v) + 1 in
    for i = 0 to Array.length inc - 1 do
      let u = adj.(i) in
      if dist.(u) < 0 && t.edge_in.(inc.(i)) && t.node_in.(u) then begin
        dist.(u) <- d;
        queue.(!tail) <- u;
        incr tail
      end
    done
  done;
  dist

let underlying_eccentricity t v =
  Array.fold_left max 0 (underlying_distances t v)
