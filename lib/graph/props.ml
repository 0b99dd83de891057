let bfs_distances g src =
  let n = Graph.n_nodes g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun u ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.push u queue
        end)
      (Graph.neighbors g v)
  done;
  dist

(* BFS on an int-array queue: each component's nodes occupy the queue
   from index 0 while it is explored. *)
let components g =
  let n = Graph.n_nodes g in
  let comp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let c = !count in
      comp.(s) <- c;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let nbrs = Graph.neighbors g queue.(!head) in
        incr head;
        for i = 0 to Array.length nbrs - 1 do
          let u = nbrs.(i) in
          if comp.(u) < 0 then begin
            comp.(u) <- c;
            queue.(!tail) <- u;
            incr tail
          end
        done
      done;
      incr count
    end
  done;
  (comp, !count)

let component_members g =
  let comp, count = components g in
  let members = Array.make count [] in
  for v = Graph.n_nodes g - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  members

let is_connected g =
  let _, count = components g in
  count <= 1

let eccentricity g v =
  let dist = bfs_distances g v in
  Array.fold_left max 0 dist

let diameter g =
  let d = ref 0 in
  for v = 0 to Graph.n_nodes g - 1 do
    let e = eccentricity g v in
    if e > !d then d := e
  done;
  !d

let component_diameters g =
  let comp, count = components g in
  let diam = Array.make count 0 in
  for v = 0 to Graph.n_nodes g - 1 do
    let e = eccentricity g v in
    if e > diam.(comp.(v)) then diam.(comp.(v)) <- e
  done;
  diam

let is_forest g =
  let _, count = components g in
  Graph.n_edges g = Graph.n_nodes g - count

let is_tree g = is_connected g && Graph.n_edges g = Graph.n_nodes g - 1

let is_star g =
  let n = Graph.n_nodes g in
  if not (is_tree g) then false
  else if n <= 2 then true
  else begin
    let centers = ref 0 in
    for v = 0 to n - 1 do
      if Graph.degree g v = n - 1 then incr centers
    done;
    !centers = 1
  end

let degeneracy_order_and_value g =
  let n = Graph.n_nodes g in
  let deg = Array.init n (Graph.degree g) in
  let removed = Array.make n false in
  (* bucket queue on degrees *)
  let maxd = Array.fold_left max 0 deg in
  let buckets = Array.make (maxd + 1) [] in
  Array.iteri (fun v d -> buckets.(d) <- v :: buckets.(d)) deg;
  let order = Array.make n (-1) in
  let k = ref 0 in
  let cur = ref 0 in
  for i = 0 to n - 1 do
    (* find the next non-removed node of minimum current degree *)
    if !cur > 0 then decr cur;
    let v = ref (-1) in
    while !v < 0 do
      match buckets.(!cur) with
      | [] -> incr cur
      | u :: rest ->
        buckets.(!cur) <- rest;
        if (not removed.(u)) && deg.(u) = !cur then v := u
    done;
    let v = !v in
    removed.(v) <- true;
    order.(i) <- v;
    if deg.(v) > !k then k := deg.(v);
    Array.iter
      (fun u ->
        if not removed.(u) then begin
          deg.(u) <- deg.(u) - 1;
          buckets.(deg.(u)) <- u :: buckets.(deg.(u))
        end)
      (Graph.neighbors g v)
  done;
  (order, !k)

let degeneracy g =
  if Graph.n_nodes g = 0 then 0 else snd (degeneracy_order_and_value g)

let degeneracy_order g =
  if Graph.n_nodes g = 0 then [||] else fst (degeneracy_order_and_value g)

let nash_williams_lower_bound g =
  let members = component_members g in
  let comp, _ = components g in
  let comp_edges = Array.make (Array.length members) 0 in
  Graph.iter_edges (fun _ (u, _) -> comp_edges.(comp.(u)) <- comp_edges.(comp.(u)) + 1) g;
  let best = ref 0 in
  Array.iteri
    (fun c nodes ->
      let size = List.length nodes in
      if size >= 2 then begin
        let bound = (comp_edges.(c) + size - 2) / (size - 1) in
        if bound > !best then best := bound
      end)
    members;
  !best

let arboricity_interval g = (nash_williams_lower_bound g, degeneracy g)

let is_independent_set g in_set =
  Graph.fold_edges (fun _ (u, v) ok -> ok && not (in_set.(u) && in_set.(v))) g true

let is_maximal_independent_set g in_set =
  is_independent_set g in_set
  &&
  let n = Graph.n_nodes g in
  let rec check v =
    if v >= n then true
    else if in_set.(v) then check (v + 1)
    else if Array.exists (fun u -> in_set.(u)) (Graph.neighbors g v) then check (v + 1)
    else false
  in
  check 0

let is_matching g in_matching =
  let n = Graph.n_nodes g in
  let hit = Array.make n 0 in
  Graph.iter_edges
    (fun e (u, v) ->
      if in_matching.(e) then begin
        hit.(u) <- hit.(u) + 1;
        hit.(v) <- hit.(v) + 1
      end)
    g;
  Array.for_all (fun c -> c <= 1) hit

let is_maximal_matching g in_matching =
  let n = Graph.n_nodes g in
  let hit = Array.make n 0 in
  Graph.iter_edges
    (fun e (u, v) ->
      if in_matching.(e) then begin
        hit.(u) <- hit.(u) + 1;
        hit.(v) <- hit.(v) + 1
      end)
    g;
  Array.for_all (fun c -> c <= 1) hit
  && Graph.fold_edges
       (fun e (u, v) ok -> ok && (in_matching.(e) || hit.(u) > 0 || hit.(v) > 0))
       g true

let is_proper_coloring g colors =
  Graph.fold_edges (fun _ (u, v) ok -> ok && colors.(u) <> colors.(v)) g true

let is_proper_edge_coloring g colors =
  let ok = ref true in
  for v = 0 to Graph.n_nodes g - 1 do
    let inc = Graph.incident g v in
    let d = Array.length inc in
    for i = 0 to d - 1 do
      for j = i + 1 to d - 1 do
        if colors.(inc.(i)) = colors.(inc.(j)) then ok := false
      done
    done
  done;
  !ok

let edge_degree g e =
  let u, v = Graph.edge_endpoints g e in
  Graph.degree g u + Graph.degree g v - 2

let max_edge_degree g =
  Graph.fold_edges (fun e _ acc -> max acc (edge_degree g e)) g 0
