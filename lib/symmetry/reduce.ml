(* Both reductions run as bucketed class schedules over a CSR adjacency:
   the nodes are counting-sorted by the class that acts in each round, so
   a round visits only its own class, and all scratch lives in slabs
   allocated once per call — nothing is allocated per round or per
   recolor. [used] is stamped rather than cleared: [used.(x) = stamp]
   marks color [x] taken for the node being recolored, and bumping
   [stamp] empties it in O(1). *)

(* First slot in [0 .. limit - 1] not stamped [stamp]. *)
let first_free used ~stamp ~limit ~err =
  let x = ref 0 in
  while !x < limit && used.(!x) = stamp do
    incr x
  done;
  if !x >= limit then invalid_arg err;
  !x

(* The CSR rows of a [neighbors] callback, indexed by node id over
   [0 .. n - 1]; nodes outside [nodes] get empty rows. Each list is
   requested twice, once to size its row and once to fill it, so that
   none outlives the minor heap. *)
let rows_of_neighbors ~n ~neighbors nodes =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun v -> off.(v + 1) <- List.length (neighbors v)) nodes;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + off.(v + 1)
  done;
  let adj = Array.make off.(n) 0 in
  Array.iter
    (fun v -> List.iteri (fun i u -> adj.(off.(v) + i) <- u) (neighbors v))
    nodes;
  (off, adj)

let kw_to_delta_plus_one_csr ~off ~adj ~nodes ~colors ~palette ~delta =
  let target = delta + 1 in
  let block = 2 * target in
  let n = Array.length colors in
  (* [done_in.(v) = key + b] once v, in block b, has its new color in the
     current phase; [key] advances by the phase's block count, so one
     load answers "same block, already recolored this phase" *)
  let done_in = Array.make n (-1) in
  let block_of = Array.make n 0 in
  let order = Array.make (Array.length nodes) 0 in
  let start = Array.make (block + 1) 0 in
  let used = Array.make target (-1) in
  let stamp = ref 0 in
  let rounds = ref 0 in
  let pal = ref palette in
  let key = ref 0 in
  while !pal > target do
    let nblocks = (!pal + block - 1) / block in
    (* One phase: offsets 0 .. block-1 scheduled one per round; all blocks
       work in parallel. A node's new color is (its block, a slot below
       target) — collisions are only possible with same-block neighbors
       that already recolored in this phase, because later nodes will in
       turn avoid it. Round [o] acts on the nodes whose phase-start color
       is [o] mod [block]; sorting them by that class once per phase
       replaces a scan of every node in every round. *)
    Array.iter
      (fun v ->
        let c = colors.(v) in
        if c < 0 || c >= !pal then
          invalid_arg "Reduce.kw_to_delta_plus_one: color out of palette";
        block_of.(v) <- c / block)
      nodes;
    Class_sort.sort ~classes:block
      ~class_of:(fun v -> colors.(v) mod block)
      nodes ~start ~order;
    for o = 0 to block - 1 do
      incr rounds;
      for i = start.(o) to start.(o + 1) - 1 do
        let v = order.(i) in
        let mine = !key + block_of.(v) in
        if done_in.(v) <> mine then begin
          incr stamp;
          for j = off.(v) to off.(v + 1) - 1 do
            let u = adj.(j) in
            if done_in.(u) = mine then used.(colors.(u) mod target) <- !stamp
          done;
          colors.(v) <-
            (block_of.(v) * target)
            + first_free used ~stamp:!stamp ~limit:target
                ~err:"Reduce.kw: delta below maximum degree";
          done_in.(v) <- mine
        end
      done
    done;
    key := !key + nblocks;
    pal := nblocks * target
  done;
  (!pal, !rounds)

let kw_to_delta_plus_one ~neighbors ~nodes ~colors ~palette ~delta =
  let nodes = Array.of_list nodes in
  let off, adj = rows_of_neighbors ~n:(Array.length colors) ~neighbors nodes in
  kw_to_delta_plus_one_csr ~off ~adj ~nodes ~colors ~palette ~delta

let to_bound_csr ~off ~adj ~nodes ~colors ~palette ~bound =
  (* Bucket nodes by their current color: a node recolors at most once
     (always downward, below its bound), so each bucket is visited once.
     The LOCAL round count is still [palette] — one scheduled round per
     class — the bucketing only speeds up the simulation. *)
  Array.iter
    (fun v ->
      let c = colors.(v) in
      if c < 0 || c >= palette then invalid_arg "Reduce.to_bound: color out of palette")
    nodes;
  let start = Array.make (palette + 1) 0 in
  let order = Array.make (Array.length nodes) 0 in
  Class_sort.sort ~classes:palette ~class_of:(fun v -> colors.(v)) nodes ~start ~order;
  (* a recoloring node has bound <= its color < palette, so every color
     it must avoid indexes [used] *)
  let used = Array.make palette (-1) in
  let stamp = ref 0 in
  for c = palette - 1 downto 0 do
    for i = start.(c) to start.(c + 1) - 1 do
      let v = order.(i) in
      if colors.(v) = c then begin
        let b = bound v in
        if c >= b then begin
          incr stamp;
          for j = off.(v) to off.(v + 1) - 1 do
            let cu = colors.(adj.(j)) in
            if cu < b then used.(cu) <- !stamp
          done;
          colors.(v) <-
            first_free used ~stamp:!stamp ~limit:b
              ~err:"Reduce.to_bound: bound smaller than degree + 1"
        end
      end
    done
  done;
  palette

let to_bound ~neighbors ~nodes ~colors ~palette ~bound =
  let nodes = Array.of_list nodes in
  let off, adj = rows_of_neighbors ~n:(Array.length colors) ~neighbors nodes in
  to_bound_csr ~off ~adj ~nodes ~colors ~palette ~bound
