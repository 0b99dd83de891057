let log_star x =
  let rec go x acc =
    if x <= 1 then acc else go (int_of_float (Float.log2 (float_of_int x))) (acc + 1)
  in
  go x 0

(* Lowest bit position where a and b differ (a <> b). *)
let lowest_diff_bit a b =
  let x = a lxor b in
  let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let bit a i = (a lsr i) land 1

(* One Cole-Vishkin reduction step for node v with parent color cp. *)
let cv_step cv cp =
  let i = lowest_diff_bit cv cp in
  (2 * i) + bit cv i

(* The forest is renumbered by position in [nodes]: [up.(i)] is the
   position of [nodes.(i)]'s parent (-1 at a root), and the children of
   position [i] are [child.(child_off.(i) .. child_off.(i + 1) - 1)].
   Colors live in [cur], indexed by position, and every round writes
   [next] from [cur] alone before copying it back, so node order cannot
   change the colors or the rounds. *)
let color3 ~nodes ~parent ~ids ~color =
  let f = Array.length nodes in
  (* [color] holds each node's position while the forest is renumbered *)
  Array.iteri (fun i v -> color.(v) <- i) nodes;
  let up = Array.make f (-1) in
  let child_off = Array.make (f + 1) 0 in
  for i = 0 to f - 1 do
    let p = parent.(nodes.(i)) in
    if p >= 0 then begin
      let pi = color.(p) in
      if pi < 0 || pi >= f || nodes.(pi) <> p then
        invalid_arg "Cole_vishkin.color3: a parent outside nodes";
      up.(i) <- pi;
      child_off.(pi + 1) <- child_off.(pi + 1) + 1
    end
  done;
  for i = 1 to f do
    child_off.(i) <- child_off.(i) + child_off.(i - 1)
  done;
  (* [next] is the children's write cursor first, the color buffer after *)
  let next = Array.sub child_off 0 f in
  let child = Array.make child_off.(f) 0 in
  for i = 0 to f - 1 do
    let p = up.(i) in
    if p >= 0 then begin
      child.(next.(p)) <- i;
      next.(p) <- next.(p) + 1
    end
  done;
  let cur = Array.map (fun v -> ids.(v)) nodes in
  let rounds = ref 0 in
  (* Phase 1: CV steps until every color is < 6. A root pretends its
     parent's color is a value differing from its own. *)
  let top = ref (Array.fold_left max 0 cur) in
  while !top >= 6 do
    incr rounds;
    top := 0;
    for i = 0 to f - 1 do
      let c = cur.(i) and p = up.(i) in
      let cp = if p >= 0 then cur.(p) else if c = 0 then 1 else 0 in
      let c' = cv_step c cp in
      next.(i) <- c';
      if c' > !top then top := c'
    done;
    Array.blit next 0 cur 0 f
  done;
  (* Phase 2: remove colors 5, 4, 3 with a shift-down before each removal.
     After a shift-down every node's children share one color, so the
     neighborhood of a recoloring node spans at most 2 colors. *)
  for dropped = 5 downto 3 do
    (* shift-down: 1 round *)
    incr rounds;
    for i = 0 to f - 1 do
      let p = up.(i) in
      next.(i) <- (if p >= 0 then cur.(p) else (cur.(i) + 1) mod 3)
    done;
    Array.blit next 0 cur 0 f;
    (* recolor class [dropped]: 1 round; [used] is a bitmask of the
       parent's and children's colors *)
    incr rounds;
    for i = 0 to f - 1 do
      next.(i) <-
        (if cur.(i) <> dropped then cur.(i)
         else begin
           let p = up.(i) in
           let used = ref (if p >= 0 then 1 lsl cur.(p) else 0) in
           for x = child_off.(i) to child_off.(i + 1) - 1 do
             used := !used lor (1 lsl cur.(child.(x)))
           done;
           let rec first c = if !used land (1 lsl c) <> 0 then first (c + 1) else c in
           first 0
         end)
    done;
    Array.blit next 0 cur 0 f
  done;
  Array.iteri (fun i v -> color.(v) <- cur.(i)) nodes;
  !rounds
