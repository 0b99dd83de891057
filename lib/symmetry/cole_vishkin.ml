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

let bits_needed x =
  let rec go b p = if p > x then b else go (b + 1) (p * 2) in
  go 1 2

let cv_iterations ~max_id =
  (* worst-case bound on the palette after each bit-reduction round *)
  let rec go bound acc =
    if bound <= 5 then acc
    else go ((2 * (bits_needed bound - 1)) + 1) (acc + 1)
  in
  go max_id 0

let schedule_length ~max_id = cv_iterations ~max_id + 6

type runtime_state = { color : int; my_parent : int; steps : int }

let color3_runtime ?mode ~sg ~nodes ~parent ~ids () =
  let in_forest = Hashtbl.create (List.length nodes) in
  List.iter (fun v -> Hashtbl.add in_forest v ()) nodes;
  let max_id = List.fold_left (fun acc v -> max acc ids.(v)) 1 nodes in
  let t_cv = cv_iterations ~max_id in
  let total = schedule_length ~max_id in
  let parent_state neighbors v =
    if parent.(v) < 0 then None
    else
      List.find_map
        (fun (u, _, s) -> if u = parent.(v) then Some s else None)
        neighbors
  in
  let children_colors neighbors v =
    List.filter_map
      (fun (u, _, s) ->
        if Hashtbl.mem in_forest u && s.my_parent = v then Some s.color
        else None)
      neighbors
  in
  let step ~round ~node:v state ~neighbors =
    let state = { state with steps = state.steps + 1 } in
    if not (Hashtbl.mem in_forest v) then state
    else if round <= t_cv then begin
      (* bit-reduction round *)
      let cp =
        match parent_state neighbors v with
        | Some s -> s.color
        | None -> if state.color = 0 then 1 else 0
      in
      { state with color = cv_step state.color cp }
    end
    else begin
      let offset = round - t_cv in
      let dropped = 5 - ((offset - 1) / 2) in
      if offset mod 2 = 1 then begin
        (* shift-down round *)
        match parent_state neighbors v with
        | Some s -> { state with color = s.color }
        | None -> { state with color = (state.color + 1) mod 3 }
      end
      else if state.color = dropped then begin
        (* recolor round for class [dropped] *)
        let used = Array.make 6 false in
        (match parent_state neighbors v with
        | Some s -> used.(s.color) <- true
        | None -> ());
        List.iter (fun c -> used.(c) <- true) (children_colors neighbors v);
        let rec first c = if used.(c) then first (c + 1) else c in
        { state with color = first 0 }
      end
      else state
    end
  in
  (* typed state equality: keeps the engine's change detection on the
     int-compare fast path instead of polymorphic compare *)
  let state_equal a b =
    a.color = b.color && a.my_parent = b.my_parent && a.steps = b.steps
  in
  let outcome =
    Tl_local.Runtime.run ?mode ~sg ~equal:state_equal
      ~init:(fun v ->
        if Hashtbl.mem in_forest v then
          { color = ids.(v); my_parent = parent.(v); steps = 0 }
        else { color = 0; my_parent = -1; steps = 0 })
      ~step
      ~halted:(fun s -> s.steps >= total)
      ~max_rounds:(total + 1) ()
  in
  let colors = Array.make (Array.length parent) (-1) in
  List.iter
    (fun v -> colors.(v) <- outcome.Tl_local.Runtime.states.(v).color)
    nodes;
  (colors, outcome.Tl_local.Runtime.rounds)

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
