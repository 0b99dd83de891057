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
