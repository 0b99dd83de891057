(* Stable counting sort of node ids by color class, into caller-owned
   slabs: the bucketed schedules in Reduce and Algos visit one class per
   LOCAL round, and sorting once lets a round touch only its own class
   instead of rescanning every node.

   [sort ~classes ~class_of nodes ~start ~order] writes the nodes whose
   class lies in [0 .. classes - 1] into [order], grouped by class and in
   [nodes] order within a class; class [c] occupies
   [order.(start.(c)) .. order.(start.(c + 1) - 1)]. Nodes with a class
   outside that range are dropped. [start] needs [classes + 1] slots and
   [order] one slot per node; [class_of] is called twice per node. *)
let sort ~classes ~class_of nodes ~start ~order =
  Array.fill start 0 (classes + 1) 0;
  Array.iter
    (fun v ->
      let c = class_of v in
      if c >= 0 && c < classes then start.(c + 1) <- start.(c + 1) + 1)
    nodes;
  for c = 1 to classes do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  (* start.(c) doubles as class c's write cursor, which leaves it at the
     old start.(c + 1); shift back afterwards *)
  Array.iter
    (fun v ->
      let c = class_of v in
      if c >= 0 && c < classes then begin
        order.(start.(c)) <- v;
        start.(c) <- start.(c) + 1
      end)
    nodes;
  for c = classes downto 1 do
    start.(c) <- start.(c - 1)
  done;
  start.(0) <- 0
