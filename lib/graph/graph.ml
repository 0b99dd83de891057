type t = {
  n : int;
  edges : (int * int) array;
  adj : int array array;
  inc : int array array;
}

let order_pair u v = if u < v then (u, v) else (v, u)

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let check ((u, v) as uv) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg
        (Printf.sprintf "Graph.of_edges: endpoint out of range (%d,%d), n=%d"
           u v n);
    if u = v then invalid_arg "Graph.of_edges: self-loop";
    if u < v then uv else (v, u)
  in
  let edges = Array.map check edges in
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.init n (fun v -> Array.make deg.(v) (-1)) in
  let inc = Array.init n (fun v -> Array.make deg.(v) (-1)) in
  let pos = Array.make n 0 in
  Array.iteri
    (fun e (u, v) ->
      adj.(u).(pos.(u)) <- v;
      inc.(u).(pos.(u)) <- e;
      pos.(u) <- pos.(u) + 1;
      adj.(v).(pos.(v)) <- u;
      inc.(v).(pos.(v)) <- e;
      pos.(v) <- pos.(v) + 1)
    edges;
  (* a duplicate edge is a neighbor seen twice in one row: [last.(w) = u]
     once row [u] has listed [w] *)
  let last = pos in
  Array.fill last 0 n (-1);
  for u = 0 to n - 1 do
    Array.iter
      (fun w ->
        if last.(w) = u then invalid_arg "Graph.of_edges: duplicate edge";
        last.(w) <- u)
      adj.(u)
  done;
  { n; edges; adj; inc }

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)
let empty n = of_edges ~n []
let n_nodes g = g.n
let n_edges g = Array.length g.edges
let degree g v = Array.length g.adj.(v)

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !d then d := degree g v
  done;
  !d

let neighbors g v = g.adj.(v)
let incident g v = g.inc.(v)
let edge_endpoints g e = g.edges.(e)

let other_endpoint g e v =
  let u, w = g.edges.(e) in
  if v = u then w
  else if v = w then u
  else invalid_arg "Graph.other_endpoint: node not an endpoint"

let find_edge g u v =
  let rec scan i =
    if i >= Array.length g.adj.(u) then None
    else if g.adj.(u).(i) = v then Some g.inc.(u).(i)
    else scan (i + 1)
  in
  (* scan from the smaller adjacency list *)
  if Array.length g.adj.(u) <= Array.length g.adj.(v) then scan 0
  else
    let rec scan_v i =
      if i >= Array.length g.adj.(v) then None
      else if g.adj.(v).(i) = u then Some g.inc.(v).(i)
      else scan_v (i + 1)
    in
    scan_v 0

let has_edge g u v = Option.is_some (find_edge g u v)
let n_half_edges g = 2 * n_edges g

let half_edge g ~edge ~node =
  let u, v = g.edges.(edge) in
  if node = u then 2 * edge
  else if node = v then (2 * edge) + 1
  else invalid_arg "Graph.half_edge: node not an endpoint"

let half_edge_node g h =
  let u, v = g.edges.(h / 2) in
  if h land 1 = 0 then u else v

let half_edge_edge h = h / 2
let opposite_half_edge h = h lxor 1

(* Written back to front from [inc]/[adj]: side 0 of an edge is its
   smaller endpoint, so [v]'s side is 0 exactly when [v] is below its
   neighbor. *)
let half_edges_of g v =
  let inc = g.inc.(v) and adj = g.adj.(v) in
  let hs = ref [] in
  for i = Array.length inc - 1 downto 0 do
    hs := ((2 * inc.(i)) + if v < adj.(i) then 0 else 1) :: !hs
  done;
  !hs

let fold_edges f g acc =
  let acc = ref acc in
  Array.iteri (fun e uv -> acc := f e uv !acc) g.edges;
  !acc

let iter_edges f g = Array.iteri f g.edges
let edge_list g = Array.to_list g.edges

let line_graph g =
  let m = n_edges g in
  let pairs = Hashtbl.create (4 * m) in
  let add e1 e2 =
    if e1 <> e2 then begin
      let p = order_pair e1 e2 in
      if not (Hashtbl.mem pairs p) then Hashtbl.add pairs p ()
    end
  in
  for v = 0 to g.n - 1 do
    let ivec = g.inc.(v) in
    let d = Array.length ivec in
    for i = 0 to d - 1 do
      for j = i + 1 to d - 1 do
        add ivec.(i) ivec.(j)
      done
    done
  done;
  let edges = Hashtbl.fold (fun p () acc -> p :: acc) pairs [] in
  (of_edges ~n:m edges, fun e -> e)

let induced g nodes =
  let keep = Array.make g.n (-1) in
  let count = ref 0 in
  List.iter
    (fun v ->
      if keep.(v) < 0 then begin
        keep.(v) <- !count;
        incr count
      end)
    nodes;
  let old_of_new = Array.make !count (-1) in
  Array.iteri (fun v idx -> if idx >= 0 then old_of_new.(idx) <- v) keep;
  let edges =
    fold_edges
      (fun _ (u, v) acc ->
        if keep.(u) >= 0 && keep.(v) >= 0 then (keep.(u), keep.(v)) :: acc
        else acc)
      g []
  in
  (of_edges ~n:!count edges, old_of_new)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (n_edges g);
  let shown = min 40 (n_edges g) in
  for e = 0 to shown - 1 do
    let u, v = g.edges.(e) in
    Format.fprintf ppf "  e%d: %d-%d@," e u v
  done;
  if shown < n_edges g then Format.fprintf ppf "  ...@,";
  Format.fprintf ppf "@]"
