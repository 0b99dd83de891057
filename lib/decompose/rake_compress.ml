module Graph = Tl_graph.Graph
module Props = Tl_graph.Props
module Semi_graph = Tl_graph.Semi_graph

type mark = Compressed of int | Raked of int

(* A node's layer is kept as its index in the total order of layers:
   [2 (i - 1)] for [C_i], [2 (i - 1) + 1] for [R_i]; [mark] rebuilds the
   constructor on demand. *)
type t = {
  tree : Graph.t;
  k : int;
  ids : int array;
  layers : int array;
  iterations : int;
}

let ceil_log ~base x =
  (* smallest integer i with base^i >= x *)
  let rec go acc p = if p >= x then acc else go (acc + 1) (p * base) in
  go 0 1

let lemma9_bound ~k ~n = ceil_log ~base:k n + 1

let run tree ~k ~ids =
  if k < 2 then invalid_arg "Rake_compress.run: k < 2";
  if not (Props.is_forest tree) then
    invalid_arg "Rake_compress.run: not a forest";
  let n = Graph.n_nodes tree in
  if Array.length ids <> n then invalid_arg "Rake_compress.run: bad ids";
  Tl_obs.Span.with_span "rake-compress"
    ~attrs:[ ("k", string_of_int k); ("n", string_of_int n) ]
  @@ fun () ->
  (* [layers.(v)] is -1 while [v] is alive, and [deg.(v)] counts its alive
     neighbors. [alive.(0 .. !n_alive - 1)] holds the alive nodes, in no
     particular order. *)
  let layers = Array.make n (-1) in
  let deg = Array.init n (Graph.degree tree) in
  let alive = Array.init n Fun.id in
  let n_alive = ref n in
  (* One step: every alive node passing [select] gets [layer], all of
     them decided against the state before the step, then removed
     together. The scan partitions [alive] in place, each node read
     once: a selected node is swapped behind the unread ones, so the
     step's nodes end up in [alive.(!n_alive .. last)]. Marking a node
     during the scan cannot change a later decision: a compress
     candidate only asks that each alive neighbor have degree at most
     [k], which a marked neighbor has, and a rake candidate reads its
     own degree only. *)
  let step layer select =
    let last = !n_alive - 1 in
    let lo = ref 0 and hi = ref last in
    while !lo <= !hi do
      let v = alive.(!lo) in
      if select v then begin
        layers.(v) <- layer;
        alive.(!lo) <- alive.(!hi);
        alive.(!hi) <- v;
        decr hi
      end
      else incr lo
    done;
    n_alive := !lo;
    for j = !lo to last do
      let nbrs = Graph.neighbors tree alive.(j) in
      for i = 0 to Array.length nbrs - 1 do
        let u = nbrs.(i) in
        if layers.(u) < 0 then deg.(u) <- deg.(u) - 1
      done
    done
  in
  let compressible v =
    deg.(v) <= k
    &&
    let nbrs = Graph.neighbors tree v in
    let low = ref true and i = ref 0 in
    while !low && !i < Array.length nbrs do
      let u = nbrs.(!i) in
      if layers.(u) < 0 && deg.(u) > k then low := false;
      incr i
    done;
    !low
  in
  let rakeable v = deg.(v) <= 1 in
  let iteration = ref 0 in
  let bound = lemma9_bound ~k ~n in
  while !n_alive > 0 do
    incr iteration;
    if !iteration > bound then
      failwith "Rake_compress.run: Lemma 9 bound exceeded (input not a tree?)";
    let i = !iteration in
    (* Compress, then rake on the nodes the compress step left. *)
    step (2 * (i - 1)) compressible;
    step ((2 * (i - 1)) + 1) rakeable
  done;
  Tl_obs.Span.add_counter "iterations" !iteration;
  { tree; k; ids; layers; iterations = !iteration }

let mark t v =
  let l = t.layers.(v) in
  if l land 1 = 0 then Compressed ((l / 2) + 1) else Raked ((l / 2) + 1)

let iterations t = t.iterations
let layer_index t v = t.layers.(v)
let is_raked t v = t.layers.(v) land 1 = 1

let is_higher t u v =
  let lu = t.layers.(u) and lv = t.layers.(v) in
  if lu <> lv then lu > lv else t.ids.(u) > t.ids.(v)

let higher_endpoint t e =
  let u, v = Graph.edge_endpoints t.tree e in
  if is_higher t u v then u else v

let lower_endpoint t e =
  let u, v = Graph.edge_endpoints t.tree e in
  if is_higher t u v then v else u

let decomposition_rounds t = 3 * t.iterations

let nodes_where t raked =
  let acc = ref [] in
  for v = Graph.n_nodes t.tree - 1 downto 0 do
    if is_raked t v = raked then acc := v :: !acc
  done;
  !acc

let compressed_nodes t = nodes_where t false
let raked_nodes t = nodes_where t true

let node_mask t raked = Array.init (Graph.n_nodes t.tree) (fun v -> is_raked t v = raked)
let t_c t = Semi_graph.of_node_subset t.tree (node_mask t false)
let t_r t = Semi_graph.of_node_subset t.tree (node_mask t true)

type raked_components = {
  members : int list array;
  highest : int array;
  eccentricity : int array;
}

let raked_components t =
  let tree = t.tree in
  let n = Graph.n_nodes tree in
  (* [comp.(v)]: the component of raked node [v] once reached;
     [dist.(v)]: its distance from its component's highest node. Both
     stay -1 on compressed nodes. *)
  let comp = Array.make n (-1) in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let count = ref 0 and highest = ref [] and eccentricity = ref [] in
  for s = 0 to n - 1 do
    if is_raked t s && comp.(s) < 0 then begin
      let c = !count in
      incr count;
      (* Sweep 1 from the smallest node: the members and the highest. *)
      comp.(s) <- c;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 and top = ref s in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        if is_higher t v !top then top := v;
        let nbrs = Graph.neighbors tree v in
        for i = 0 to Array.length nbrs - 1 do
          let u = nbrs.(i) in
          if comp.(u) < 0 && is_raked t u then begin
            comp.(u) <- c;
            queue.(!tail) <- u;
            incr tail
          end
        done
      done;
      (* Sweep 2 from the highest node: its eccentricity. *)
      let h = !top in
      dist.(h) <- 0;
      queue.(0) <- h;
      head := 0;
      tail := 1;
      let far = ref 0 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        let du = dist.(v) + 1 in
        let nbrs = Graph.neighbors tree v in
        for i = 0 to Array.length nbrs - 1 do
          let u = nbrs.(i) in
          if dist.(u) < 0 && is_raked t u then begin
            dist.(u) <- du;
            if du > !far then far := du;
            queue.(!tail) <- u;
            incr tail
          end
        done
      done;
      highest := h :: !highest;
      eccentricity := !far :: !eccentricity
    end
  done;
  let members = Array.make !count [] in
  for v = n - 1 downto 0 do
    let c = comp.(v) in
    if c >= 0 then members.(c) <- v :: members.(c)
  done;
  {
    members;
    highest = Array.of_list (List.rev !highest);
    eccentricity = Array.of_list (List.rev !eccentricity);
  }

let check_lemma9 t =
  t.iterations <= lemma9_bound ~k:t.k ~n:(Graph.n_nodes t.tree)

let compress_part_max_degree t =
  (* degree in the graph induced by edges whose lower endpoint is in a
     compress layer *)
  let n = Graph.n_nodes t.tree in
  let deg = Array.make n 0 in
  Graph.iter_edges
    (fun e _ ->
      if not (is_raked t (lower_endpoint t e)) then begin
        let u, v = Graph.edge_endpoints t.tree e in
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end)
    t.tree;
  Array.fold_left max 0 deg

let check_lemma10 t = compress_part_max_degree t <= t.k

let rake_component_diameters t =
  (* the raked subgraph is a forest (subgraph of a tree), so each
     component's diameter is exact via a double BFS *)
  let raked = raked_nodes t in
  let sub, _ = Graph.induced t.tree raked in
  let n = Graph.n_nodes sub in
  let dist = Array.make n (-1) in
  let bfs src =
    (* returns (farthest node, distance); resets [dist] afterwards *)
    let queue = Queue.create () in
    let touched = ref [ src ] in
    let far = ref src in
    dist.(src) <- 0;
    Queue.push src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun u ->
          if dist.(u) < 0 then begin
            dist.(u) <- dist.(v) + 1;
            if dist.(u) > dist.(!far) then far := u;
            touched := u :: !touched;
            Queue.push u queue
          end)
        (Graph.neighbors sub v)
    done;
    let d = dist.(!far) in
    List.iter (fun v -> dist.(v) <- -1) !touched;
    (!far, d)
  in
  let seen = Array.make n false in
  let mark_component src =
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.push src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun u ->
          if not seen.(u) then begin
            seen.(u) <- true;
            Queue.push u queue
          end)
        (Graph.neighbors sub v)
    done
  in
  let diameters = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      mark_component v;
      let far, _ = bfs v in
      let _, d = bfs far in
      diameters := d :: !diameters
    end
  done;
  !diameters

let lemma11_bound t =
  let n = Graph.n_nodes t.tree in
  (* 4 (log_k n + 1) + 2, with log_k n rounded up *)
  (4 * (ceil_log ~base:t.k n + 1)) + 2

let check_lemma11 t =
  let bound = lemma11_bound t in
  List.for_all (fun d -> d <= bound) (rake_component_diameters t)
