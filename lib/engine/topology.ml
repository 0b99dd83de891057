module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph

type t = {
  sg : Semi_graph.t;
  n_base : int;
  n_present : int;
  present : bool array;
  present_nodes : int array;
  off : int array;
  adj : int array;
  eid : int array;
}

let compile sg =
  let base = Semi_graph.base sg in
  let n = Graph.n_nodes base in
  let present = Array.init n (Semi_graph.node_present sg) in
  let n_present = ref 0 in
  Array.iter (fun p -> if p then incr n_present) present;
  let present_nodes = Array.make !n_present 0 in
  let j = ref 0 in
  for v = 0 to n - 1 do
    if present.(v) then begin
      present_nodes.(!j) <- v;
      incr j
    end
  done;
  (* first pass: rank-2 degrees; second pass: fill the CSR rows *)
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    if present.(v) then begin
      let inc = Graph.incident base v and adjv = Graph.neighbors base v in
      let d = ref 0 in
      for i = 0 to Array.length inc - 1 do
        if Semi_graph.edge_present sg inc.(i) && present.(adjv.(i)) then
          incr d
      done;
      off.(v + 1) <- !d
    end
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + off.(v + 1)
  done;
  let m2 = off.(n) in
  let adj = Array.make m2 0 in
  let eid = Array.make m2 0 in
  for v = 0 to n - 1 do
    if present.(v) then begin
      let inc = Graph.incident base v and adjv = Graph.neighbors base v in
      let pos = ref off.(v) in
      for i = 0 to Array.length inc - 1 do
        let e = inc.(i) and u = adjv.(i) in
        if Semi_graph.edge_present sg e && present.(u) then begin
          adj.(!pos) <- u;
          eid.(!pos) <- e;
          incr pos
        end
      done
    end
  done;
  { sg; n_base = n; n_present = !n_present; present; present_nodes;
    off; adj; eid }

let clear_cache () = ()

let n_base t = t.n_base
let n_present t = t.n_present
let present t v = t.present.(v)
let degree t v = t.off.(v + 1) - t.off.(v)

let max_degree t =
  Array.fold_left (fun acc v -> max acc (degree t v)) 0 t.present_nodes

(* Iterative reverse builds: hub nodes can have ~n neighbors, so recursion
   over the row would overflow the stack. *)
let neighbor_nodes t v =
  let acc = ref [] in
  for i = t.off.(v + 1) - 1 downto t.off.(v) do
    acc := t.adj.(i) :: !acc
  done;
  !acc

let neighbor_pairs t v =
  let acc = ref [] in
  for i = t.off.(v + 1) - 1 downto t.off.(v) do
    acc := (t.adj.(i), t.eid.(i)) :: !acc
  done;
  !acc
