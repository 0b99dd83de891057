(* The naive LOCAL simulator (Definition 5): the independent reference of
   every flat kernel in the test suite.

   Each round every present node recomputes its state from its own and
   its rank-2 neighbors' published states, gathered as
   [(neighbor, edge, state)] lists through Semi_graph.rank2_neighbors;
   the next states go to a whole-array copy that is blitted back after
   the round. No CSR, no frontier, no shared round driver: the only
   thing it shares with Tl_engine is the fault gate it checks after each
   counted round ([Engine.gate_open]) and the failure texts it raises.
   Do not "optimize" these loops — their value is that they are too
   simple to be wrong in the same way as the engine.

   [records] derives the per-round trace records the engine must report
   under each scheduling, from the active-set rule alone: round 1 steps
   every present node, and round r+1 steps the closed neighborhoods of
   the nodes that changed in round r (under Full_scan, every present
   node again). The boxed machines at the bottom are the twins of the
   flat kernels the tests run; [cv_color3] is the Cole-Vishkin state
   machine, the oracle of [Cole_vishkin.color3]. *)

module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine

type 'state step =
  round:int ->
  node:int ->
  'state ->
  neighbors:(int * int * 'state) list ->
  'state

type 'state outcome = { states : 'state array; rounds : int }

(* ---------- the three naive loops ---------- *)

let gather_neighbors sg states v =
  List.map
    (fun (u, e) -> (u, e, states.(u)))
    (Semi_graph.rank2_neighbors sg v)

let run ~topo ~init ~step ~halted ~max_rounds =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let all_halted () =
    let ok = ref true in
    for v = 0 to n - 1 do
      if present.(v) && not (halted states.(v)) then ok := false
    done;
    !ok
  in
  let rounds = ref 0 in
  let interrupted = ref false in
  while (not !interrupted) && (not (all_halted ())) && !rounds < max_rounds do
    incr rounds;
    let next = Array.copy states in
    for v = 0 to n - 1 do
      if present.(v) then
        next.(v) <-
          step ~round:!rounds ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
    done;
    Array.blit next 0 states 0 n;
    if not (Engine.gate_open ~round:!rounds) then interrupted := true
  done;
  if (not !interrupted) && not (all_halted ()) then
    failwith (Printf.sprintf "Engine.run: max_rounds=%d exceeded" max_rounds);
  { states; rounds = !rounds }

let run_until_stable ~topo ~init ~step ~equal ~max_rounds =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let rounds = ref 0 in
  let stable = ref false in
  let interrupted = ref false in
  while (not !interrupted) && (not !stable) && !rounds < max_rounds do
    let next = Array.copy states in
    let changed = ref 0 in
    for v = 0 to n - 1 do
      if present.(v) then begin
        let s =
          step ~round:(!rounds + 1) ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
        in
        if not (equal s states.(v)) then incr changed;
        next.(v) <- s
      end
    done;
    if !changed > 0 then begin
      incr rounds;
      Array.blit next 0 states 0 n;
      if not (Engine.gate_open ~round:!rounds) then interrupted := true
    end
    else stable := true
  done;
  if (not !interrupted) && not !stable then
    failwith
      (Printf.sprintf "Engine.run_until_stable: max_rounds=%d exceeded"
         max_rounds);
  { states; rounds = !rounds }

let run_rounds ~topo ~init ~step ~rounds:total =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let executed = ref 0 in
  let r = ref 1 in
  let interrupted = ref false in
  while (not !interrupted) && !r <= total do
    let next = Array.copy states in
    for v = 0 to n - 1 do
      if present.(v) then
        next.(v) <-
          step ~round:!r ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
    done;
    Array.blit next 0 states 0 n;
    executed := !r;
    if not (Engine.gate_open ~round:!r) then interrupted := true;
    incr r
  done;
  { states; rounds = (if !interrupted then !executed else total) }

(* The loop of a stop policy; [halted] is required under [Halted]. *)
let exec ~stop ~topo ~init ~step ?halted ~equal () =
  match stop with
  | Engine.Halted max_rounds ->
    run ~topo ~init ~step ~halted:(Option.get halted) ~max_rounds
  | Engine.Stable max_rounds ->
    run_until_stable ~topo ~init ~step ~equal ~max_rounds
  | Engine.Rounds rounds -> run_rounds ~topo ~init ~step ~rounds

(* ---------- trace records under the active-set rule ---------- *)

(* [(round, active, changed, unhalted)] per executed round of a run
   under [sched] and [stop], as the engine's trace must record them:
   [unhalted] after the round under [Halted], -1 otherwise. A round with
   nothing to step records nothing: under [Rounds] it is still counted,
   under [Halted] it is a stall and under [Stable] a fixed point. Under
   [Stable] the round that changes nothing is recorded but ends the run.
   Steps only the scheduled nodes, so a non-stationary machine shows
   what the frontier really skips. *)
let records ~sched ~stop ~topo ~init ~step ?halted ~equal () =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let nodes = List.filter (fun v -> present.(v)) (List.init n Fun.id) in
  let states = Array.init n init in
  let unhalted () =
    let h = Option.get halted in
    List.length (List.filter (fun v -> not (h states.(v))) nodes)
  in
  let limit =
    match stop with
    | Engine.Halted m | Engine.Stable m | Engine.Rounds m -> m
  in
  let scheduled = ref nodes in
  let out = ref [] and rounds = ref 0 and finished = ref false in
  while (not !finished) && !rounds < limit do
    match stop with
    | Engine.Halted _ when unhalted () = 0 -> finished := true
    | _ ->
      (if !scheduled = [] then
         match stop with Engine.Rounds _ -> () | _ -> finished := true
       else begin
         let round = !rounds + 1 in
         let next = Array.copy states in
         List.iter
           (fun v ->
             next.(v) <-
               step ~round ~node:v states.(v)
                 ~neighbors:(gather_neighbors sg states v))
           !scheduled;
         let changed =
           List.filter (fun v -> not (equal next.(v) states.(v))) !scheduled
         in
         Array.blit next 0 states 0 n;
         let unhalted =
           match stop with Engine.Halted _ -> unhalted () | _ -> -1
         in
         out :=
           (round, List.length !scheduled, List.length changed, unhalted)
           :: !out;
         (scheduled :=
            match sched with
            | Engine.Full_scan -> nodes
            | Engine.Active_set ->
              let mark = Array.make n false in
              List.iter
                (fun v ->
                  mark.(v) <- true;
                  List.iter
                    (fun (u, _) -> mark.(u) <- true)
                    (Semi_graph.rank2_neighbors sg v))
                changed;
              List.filter (fun v -> mark.(v)) nodes);
         match stop with
         | Engine.Stable _ when changed = [] -> finished := true
         | _ -> ()
       end);
      if not !finished then begin
        incr rounds;
        if not (Engine.gate_open ~round:!rounds) then finished := true
      end
  done;
  List.rev !out

(* ---------- boxed machines ---------- *)

(* flooding from the nodes whose state starts [true] *)
let flood_step ~round:_ ~node:_ s ~neighbors =
  s || List.exists (fun (_, _, su) -> su) neighbors

(* greedy MIS by local id maximum: 0 undecided / 1 in / 2 out *)
let mis_step ids ~round:_ ~node:v s ~neighbors =
  if s <> 0 then s
  else if List.exists (fun (_, _, su) -> su = 1) neighbors then 2
  else if
    List.for_all (fun (u, _, su) -> su <> 0 || ids.(u) < ids.(v)) neighbors
  then 1
  else 0

(* max-propagation *)
let max_step ~round:_ ~node:_ s ~neighbors =
  List.fold_left (fun acc (_, _, su) -> max acc su) s neighbors

(* leaf peeling: a node peels once at most one neighbor is unpeeled *)
let peel_step ~round:_ ~node:_ s ~neighbors =
  s || List.length (List.filter (fun (_, _, su) -> not su) neighbors) <= 1

(* ---------- Cole-Vishkin as a message-passing state machine ---------- *)

(* The 3-coloring of [Cole_vishkin.color3] as every node runs it: it
   reads its neighbors' published states over the semi-graph's rank-2
   edges and follows a fixed schedule — data-independent, as a real
   LOCAL algorithm must be when termination cannot be detected locally:
   the worst-case bit-reduction count from the id space (computable by
   every node from the known id bound), then three shift-down/recolor
   pairs. *)

let lowest_diff_bit a b =
  let x = a lxor b in
  let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let cv_step cv cp =
  let i = lowest_diff_bit cv cp in
  (2 * i) + ((cv lsr i) land 1)

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

type cv_state = { color : int; my_parent : int; steps : int }

(* [(colors, rounds)] of the forest on [nodes] ([parent.(v)] a rank-2
   neighbor in [sg], -1 at roots); [rounds = schedule_length]. *)
let cv_color3 ~sg ~nodes ~parent ~ids =
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
  let outcome =
    run ~topo:(Topology.compile sg)
      ~init:(fun v ->
        if Hashtbl.mem in_forest v then
          { color = ids.(v); my_parent = parent.(v); steps = 0 }
        else { color = 0; my_parent = -1; steps = 0 })
      ~step
      ~halted:(fun s -> s.steps >= total)
      ~max_rounds:(total + 1)
  in
  let colors = Array.make (Array.length parent) (-1) in
  List.iter (fun v -> colors.(v) <- outcome.states.(v).color) nodes;
  (colors, outcome.rounds)
