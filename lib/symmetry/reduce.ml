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

(* KW state per node id, in two slabs: [b0.(v)] is v's phase-0 block
   (-1 for ids outside [nodes]), so its phase-p block is [b0.(v) asr p];
   [state.(v)] is [(phase lsl 32) lor slot] for the last phase that
   recolored v (-1 before phase 0 has). Only phase 0 recolors every
   node: from phase 1 on, the even half of each merged block gets back
   the slot it holds (see reduce.mli), so phase p recolors, in slot
   order, only the nodes with bit p-1 of [b0] set, and the colors are
   written once at the end. During phase 0, [state.(v)] holds v's new
   color [b0.(v) * (delta + 1) + slot] instead, so that one load tells
   whether a neighbor is in v's block and has recolored. *)
let slot_mask = (1 lsl 32) - 1

let kw_to_delta_plus_one_csr ~off ~adj ~nodes ~colors ~palette ~delta =
  let target = delta + 1 in
  let block = 2 * target in
  (* the schedule depends on the palette alone *)
  let phases = ref 0 and pal = ref palette in
  while !pal > target do
    pal := (!pal + block - 1) / block * target;
    incr phases
  done;
  let phases = !phases in
  if phases > 0 then begin
    let n = Array.length colors and count = Array.length nodes in
    let b0 = Array.make n (-1) in
    let state = Array.make n (-1) in
    let order = Array.make count 0 in
    let start = Array.make (block + 1) 0 in
    let used = Array.make target (-1) in
    let stamp = ref 0 and top = ref 0 in
    let err = "Reduce.kw: delta below maximum degree" in
    (* Phase 0: round o recolors the nodes whose color is o mod [block],
       in [nodes] order; a node avoids the slots of the same-block
       neighbors that already recolored. A counting sort by o, whose
       first pass also checks the colors, puts the rounds in order. *)
    for i = 0 to count - 1 do
      let v = nodes.(i) in
      let c = colors.(v) in
      if c < 0 || c >= palette then
        invalid_arg "Reduce.kw_to_delta_plus_one: color out of palette";
      let b = c / block in
      b0.(v) <- b;
      top := max !top b;
      let o = c - (b * block) in
      start.(o + 1) <- start.(o + 1) + 1
    done;
    for o = 1 to block do
      start.(o) <- start.(o) + start.(o - 1)
    done;
    for i = 0 to count - 1 do
      let v = nodes.(i) in
      let o = colors.(v) - (b0.(v) * block) in
      order.(start.(o)) <- v;
      start.(o) <- start.(o) + 1
    done;
    for i = 0 to count - 1 do
      let v = order.(i) in
      if state.(v) < 0 then begin
        let base = b0.(v) * target in
        incr stamp;
        for j = off.(v) to off.(v + 1) - 1 do
          let x = state.(adj.(j)) - base in
          if x >= 0 && x < target then used.(x) <- !stamp
        done;
        state.(v) <- base + first_free used ~stamp:!stamp ~limit:target ~err
      end
    done;
    (* back from colors to slots (a node listed twice converts once) *)
    for i = 0 to count - 1 do
      let v = nodes.(i) in
      if state.(v) >= target then state.(v) <- state.(v) - (b0.(v) * target)
    done;
    (* Phase p: the odd half (h = b0 asr (p - 1) odd), counting-sorted by
       slot, recolors avoiding the whole even half (h - 1) and the
       odd-half neighbors already recolored. Once [top asr (p - 1)] is 0,
       no later phase has an odd half. *)
    let p = ref 1 in
    while !p < phases && !top asr (!p - 1) > 0 do
      let shift = !p - 1 and tag = !p lsl 32 in
      Array.fill start 0 (target + 1) 0;
      for i = 0 to count - 1 do
        let v = nodes.(i) in
        if (b0.(v) asr shift) land 1 = 1 then begin
          let s = state.(v) land slot_mask in
          start.(s + 1) <- start.(s + 1) + 1
        end
      done;
      for s = 1 to target do
        start.(s) <- start.(s) + start.(s - 1)
      done;
      let odd = start.(target) in
      for i = 0 to count - 1 do
        let v = nodes.(i) in
        if (b0.(v) asr shift) land 1 = 1 then begin
          let s = state.(v) land slot_mask in
          order.(start.(s)) <- v;
          start.(s) <- start.(s) + 1
        end
      done;
      for i = 0 to odd - 1 do
        let v = order.(i) in
        if state.(v) asr 32 <> !p then begin
          let h = b0.(v) asr shift in
          incr stamp;
          for j = off.(v) to off.(v + 1) - 1 do
            let u = adj.(j) in
            let hu = b0.(u) asr shift in
            if hu = h - 1 || (hu = h && state.(u) asr 32 = !p) then
              used.(state.(u) land slot_mask) <- !stamp
          done;
          state.(v) <- tag lor first_free used ~stamp:!stamp ~limit:target ~err
        end
      done;
      incr p
    done;
    for i = 0 to count - 1 do
      let v = nodes.(i) in
      colors.(v) <- ((b0.(v) lsr phases) * target) + (state.(v) land slot_mask)
    done
  end;
  (!pal, phases * block)

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
