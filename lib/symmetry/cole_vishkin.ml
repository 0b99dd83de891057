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

let color3 ~nodes ~parent ~ids =
  let n = Array.length parent in
  let color = Array.make n (-1) in
  let rounds = ref 0 in
  List.iter (fun v -> color.(v) <- ids.(v)) nodes;
  (* children lists, to let parents read their children in the 6->3 phase *)
  let children = Array.make n [] in
  List.iter
    (fun v -> if parent.(v) >= 0 then children.(parent.(v)) <- v :: children.(parent.(v)))
    nodes;
  (* Phase 1: iterate CV steps until every color is < 6. A root pretends
     its parent's color is a value differing from its own. *)
  let max_color () = List.fold_left (fun acc v -> max acc color.(v)) 0 nodes in
  while max_color () >= 6 do
    incr rounds;
    let next = Array.copy color in
    List.iter
      (fun v ->
        let cp =
          if parent.(v) >= 0 then color.(parent.(v))
          else if color.(v) = 0 then 1
          else 0
        in
        next.(v) <- cv_step color.(v) cp)
      nodes;
    List.iter (fun v -> color.(v) <- next.(v)) nodes
  done;
  (* Phase 2: remove colors 5, 4, 3 with a shift-down before each removal.
     After a shift-down every node's children share one color, so the
     neighborhood of a recoloring node spans at most 2 colors. *)
  for dropped = 5 downto 3 do
    (* shift-down: 1 round *)
    incr rounds;
    let next = Array.copy color in
    List.iter
      (fun v ->
        if parent.(v) >= 0 then next.(v) <- color.(parent.(v))
        else next.(v) <- (color.(v) + 1) mod 3)
      nodes;
    List.iter (fun v -> color.(v) <- next.(v)) nodes;
    (* recolor class [dropped]: 1 round *)
    incr rounds;
    let next = Array.copy color in
    List.iter
      (fun v ->
        if color.(v) = dropped then begin
          let used = Array.make 6 false in
          if parent.(v) >= 0 then used.(color.(parent.(v))) <- true;
          List.iter (fun c -> used.(color.(c)) <- true) children.(v);
          let rec first c = if used.(c) then first (c + 1) else c in
          next.(v) <- first 0
        end)
      nodes;
    List.iter (fun v -> color.(v) <- next.(v)) nodes
  done;
  (color, !rounds)
