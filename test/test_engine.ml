(* Tests for the execution engine: Topology compilation and its cache,
   the pool and the domain team, and every flat kernel against the naive
   oracle (test/naive.ml) in each in-process mode — flat:seq and
   flat:par:N at either par_grain, under both schedulings: final
   states, round counts, the per-round trace records the oracle derives,
   failure texts and the fault gate. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Tree = Tl_graph.Tree
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Trace = Tl_engine.Trace
module Round_cost = Tl_local.Round_cost
module Ids = Tl_local.Ids
module Linial = Tl_symmetry.Linial

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Graph families exercised by the differential properties: random trees,
   forest unions (arboricity 2), stars (one huge hub) and
   preferential-attachment trees (skewed hubs). *)
let family ~n ~seed ~pick =
  let n = max 2 n in
  match pick mod 4 with
  | 0 -> Gen.random_tree ~n ~seed
  | 1 -> Gen.forest_union ~n ~arboricity:2 ~seed
  | 2 -> Gen.star n
  | _ -> Gen.power_law_tree ~n ~seed

(* ---------- Topology vs Semi_graph ---------- *)

let topo_agrees sg =
  let topo = Topology.compile sg in
  Topology.n_present topo = Semi_graph.n_present_nodes sg
  && Topology.max_degree topo = Semi_graph.max_underlying_degree sg
  && List.for_all
       (fun v ->
         Topology.present topo v
         && Topology.neighbor_pairs topo v = Semi_graph.rank2_neighbors sg v
         && Topology.degree topo v
            = List.length (Semi_graph.rank2_neighbors sg v)
         && Topology.neighbor_nodes topo v
            = List.map fst (Semi_graph.rank2_neighbors sg v))
       (Semi_graph.nodes sg)

let prop_topology_matches_semigraph =
  QCheck.Test.make ~name:"Topology.compile agrees with rank2_neighbors"
    ~count:60
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      topo_agrees (Semi_graph.of_graph g))

let prop_topology_on_subsets =
  QCheck.Test.make ~name:"Topology.compile agrees on node subsets" ~count:40
    QCheck.(triple (int_range 3 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      (* drop every third node: absent nodes and their edges must vanish
         from the snapshot exactly like they do from the semi-graph *)
      let keep = Array.init (Graph.n_nodes g) (fun v -> v mod 3 <> 2) in
      topo_agrees (Semi_graph.of_node_subset g keep))

(* ---------- flat kernels against the naive oracle ---------- *)

(* Every kernel differential runs on the full view and on the masked
   view below, where the steppers step only the present nodes. *)
let views g =
  let keep = Array.init (Graph.n_nodes g) (fun v -> v mod 3 <> 2) in
  List.map Topology.compile
    [ Semi_graph.of_graph g; Semi_graph.of_node_subset g keep ]

let with_par_grain g f =
  let saved = !Engine.par_grain in
  Engine.par_grain := g;
  Fun.protect ~finally:(fun () -> Engine.par_grain := saved) f

(* The in-process modes as (par, par_grain): grain 0 forces even tiny
   qcheck instances through the team, the default grain exercises the
   inline path. Results must not depend on either knob. *)
let flat_variants = [ (1, 2048); (1, 0); (2, 0); (3, 0); (4, 2048) ]

let scheds = [ Engine.Active_set; Engine.Full_scan ]

let record_sig t =
  List.map
    (fun r -> (r.Trace.round, r.Trace.active, r.Trace.changed, r.Trace.unhalted))
    (Trace.records t)

(* A flat run in every in-process mode and scheduling against the
   oracle's run of the boxed twin: the same rounds and, read as ints
   through [word], the same states in slot 0. *)
let modes_agree ~topo ~kernel ~stop ~word (want : _ Naive.outcome) =
  let col = Array.map word want.Naive.states in
  List.for_all
    (fun sched ->
      List.for_all
        (fun (par, grain) ->
          with_par_grain grain (fun () ->
              let o = Flat.exec ~par ~sched ~topo ~kernel ~stop () in
              o.Flat.rounds = want.Naive.rounds && Flat.column o ~slot:0 = col))
        flat_variants)
    scheds

(* One-word kernels from an int step over the node's own word and its
   neighbors' words: the flat twins of Naive.peel_step and
   Naive.max_step. *)
let rec row_fold f acc cur adj j hi =
  if j >= hi then acc else row_fold f (f acc cur.(adj.(j))) cur adj (j + 1) hi

let row_kernel name ~init ~step =
  {
    Flat.name;
    slots = 1;
    scratch_words = 0;
    init = (fun ~node ~slot:_ -> init node);
    step =
      (fun ctx ~scratch:_ ~round:_ ~node ->
        ctx.Flat.nxt.(node) <-
          step ctx.Flat.cur.(node)
            (row_fold
               (fun acc s -> s :: acc)
               [] ctx.Flat.cur ctx.Flat.adj ctx.Flat.off.(node)
               ctx.Flat.off.(node + 1)));
    halted = None;
  }

let peel_kernel =
  row_kernel "peel"
    ~init:(fun _ -> 0)
    ~step:(fun s nbrs ->
      if s = 1 || List.length (List.filter (fun x -> x = 0) nbrs) <= 1 then 1
      else 0)

let max_kernel ids =
  row_kernel "max" ~init:(fun v -> ids.(v)) ~step:(List.fold_left max)

(* The oracle's Cole-Vishkin machine as a flat kernel over three words
   (color, parent, steps), every node in the forest. *)
let cv_kernel ~parent ~ids =
  let max_id = Array.fold_left max 1 ids in
  let t_cv = Naive.cv_iterations ~max_id in
  let total = Naive.schedule_length ~max_id in
  let step (ctx : Flat.ctx) ~scratch:_ ~round ~node:v =
    let cur = ctx.Flat.cur and nxt = ctx.Flat.nxt and b = v * 3 in
    let lo = ctx.Flat.off.(v) and hi = ctx.Flat.off.(v + 1) in
    let parent_color =
      let p = parent.(v) and c = ref (-1) in
      for j = lo to hi - 1 do
        if ctx.Flat.adj.(j) = p then c := cur.(p * 3)
      done;
      !c
    in
    let color = cur.(b) in
    let color' =
      if round <= t_cv then
        Naive.cv_step color
          (if parent_color >= 0 then parent_color
           else if color = 0 then 1
           else 0)
      else
        let offset = round - t_cv in
        let dropped = 5 - ((offset - 1) / 2) in
        if offset mod 2 = 1 then
          if parent_color >= 0 then parent_color else (color + 1) mod 3
        else if color = dropped then begin
          let used = Array.make 6 false in
          if parent_color >= 0 then used.(parent_color) <- true;
          for j = lo to hi - 1 do
            let u = ctx.Flat.adj.(j) in
            if cur.((u * 3) + 1) = v then used.(cur.(u * 3)) <- true
          done;
          let rec first c = if used.(c) then first (c + 1) else c in
          first 0
        end
        else color
    in
    nxt.(b) <- color';
    nxt.(b + 1) <- cur.(b + 1);
    nxt.(b + 2) <- cur.(b + 2) + 1
  in
  {
    Flat.name = "cv3";
    slots = 3;
    scratch_words = 0;
    init =
      (fun ~node ~slot ->
        match slot with 0 -> ids.(node) | 1 -> parent.(node) | _ -> 0);
    step;
    halted = Some (fun ctx ~node -> ctx.Flat.cur.((node * 3) + 2) >= total);
  }

let prop_flood_differential =
  QCheck.Test.make ~name:"flood: modes and scheds bit-identical" ~count:50
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let max_rounds = Graph.n_nodes g + 1 in
      List.for_all
        (fun topo ->
          modes_agree ~topo ~kernel:(Flat.Kernels.flood ())
            ~stop:(Engine.Stable max_rounds) ~word:Bool.to_int
            (Naive.run_until_stable ~topo
               ~init:(fun v -> v = 0)
               ~step:Naive.flood_step ~equal:Bool.equal ~max_rounds))
        (views g))

let prop_mis_differential =
  QCheck.Test.make ~name:"MIS machine: modes bit-identical" ~count:50
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      List.for_all
        (fun topo ->
          modes_agree ~topo
            ~kernel:(Flat.Kernels.mis_local_max ~ids)
            ~stop:(Engine.Halted (n + 1)) ~word:Fun.id
            (Naive.run ~topo
               ~init:(fun _ -> 0)
               ~step:(Naive.mis_step ids)
               ~halted:(fun s -> s <> 0)
               ~max_rounds:(n + 1)))
        (views g))

let prop_peel_differential =
  QCheck.Test.make ~name:"leaf peeling: modes bit-identical" ~count:50
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let max_rounds = Graph.n_nodes g + 1 in
      modes_agree ~topo ~kernel:peel_kernel ~stop:(Engine.Stable max_rounds)
        ~word:Bool.to_int
        (Naive.run_until_stable ~topo
           ~init:(fun _ -> false)
           ~step:Naive.peel_step ~equal:Bool.equal ~max_rounds))

let prop_cv_differential =
  (* a round-number-driven machine over three words: every node steps
     every round (its step counter changes), so both schedulings must
     follow the fixed schedule to the same colors *)
  QCheck.Test.make
    ~name:"CV 3-coloring: modes bit-identical to the oracle machine"
    ~count:30
    QCheck.(pair (int_range 2 120) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let sg = Semi_graph.of_graph g in
      let colors, rounds =
        Naive.cv_color3 ~sg ~nodes:(List.init n Fun.id) ~parent ~ids
      in
      modes_agree ~topo:(Topology.compile sg) ~kernel:(cv_kernel ~parent ~ids)
        ~stop:(Engine.Halted (rounds + 1)) ~word:Fun.id
        { Naive.states = colors; rounds })

let prop_run_rounds_differential =
  (* max-propagation for a fixed number of rounds; also checks that the
     engine keeps executing (and counting) after the machine goes quiet *)
  QCheck.Test.make ~name:"run_rounds: modes bit-identical, exact count"
    ~count:40
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 5) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 3 + (seed mod 5) in
      let want =
        Naive.run_rounds ~topo ~init:(fun v -> ids.(v)) ~step:Naive.max_step
          ~rounds:r
      in
      want.Naive.rounds = r
      && modes_agree ~topo ~kernel:(max_kernel ids) ~stop:(Engine.Rounds r)
           ~word:Fun.id want)

(* ---------- trace records, failures and the gate ---------- *)

(* A flat run in every in-process mode, under [sched], against the
   oracle: rounds, slot-0 states and the trace records the active-set
   rule implies. *)
let traced_agree ~sched ~topo ~kernel ~stop ~word ~records
    (want : _ Naive.outcome) =
  let col = Array.map word want.Naive.states in
  List.for_all
    (fun (par, grain) ->
      with_par_grain grain (fun () ->
          let tr = Trace.create () in
          let o = Flat.exec ~par ~sched ~trace:tr ~topo ~kernel ~stop () in
          o.Flat.rounds = want.Naive.rounds
          && Flat.column o ~slot:0 = col
          && record_sig tr = records))
    flat_variants

let prop_flat_flood_differential =
  QCheck.Test.make
    ~name:"flat flood == boxed flood (states, rounds, traces)" ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let max_rounds = Graph.n_nodes g + 1 in
      let stop = Engine.Stable max_rounds and init v = v = 0 in
      List.for_all
        (fun topo ->
          let want =
            Naive.run_until_stable ~topo ~init ~step:Naive.flood_step
              ~equal:Bool.equal ~max_rounds
          in
          List.for_all
            (fun sched ->
              traced_agree ~sched ~topo ~kernel:(Flat.Kernels.flood ()) ~stop
                ~word:Bool.to_int want
                ~records:
                  (Naive.records ~sched ~stop ~topo ~init
                     ~step:Naive.flood_step ~equal:Bool.equal ()))
            scheds)
        (views g))

let prop_flat_mis_differential =
  QCheck.Test.make ~name:"flat MIS == boxed MIS (run with halting)" ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let stop = Engine.Halted (n + 1) and step = Naive.mis_step ids in
      let init _ = 0 and halted s = s <> 0 in
      List.for_all
        (fun topo ->
          let want = Naive.run ~topo ~init ~step ~halted ~max_rounds:(n + 1) in
          List.for_all
            (fun sched ->
              traced_agree ~sched ~topo
                ~kernel:(Flat.Kernels.mis_local_max ~ids)
                ~stop ~word:Fun.id want
                ~records:
                  (Naive.records ~sched ~stop ~topo ~init ~step ~halted
                     ~equal:Int.equal ()))
            scheds)
        (views g))

let prop_flat_run_rounds_differential =
  QCheck.Test.make ~name:"flat run_rounds == boxed run_rounds" ~count:30
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 1 + (seed mod 4) in
      let stop = Engine.Rounds r and step = Naive.mis_step ids in
      let init _ = 0 in
      let want = Naive.run_rounds ~topo ~init ~step ~rounds:r in
      List.for_all
        (fun sched ->
          traced_agree ~sched ~topo
            ~kernel:(Flat.Kernels.mis_local_max ~ids)
            ~stop ~word:Fun.id want
            ~records:
              (Naive.records ~sched ~stop ~topo ~init ~step ~equal:Int.equal
                 ()))
        scheds)

let failure_message f =
  match f () with
  | exception Failure m -> Some m
  | _ -> None

(* never halts, never changes: the oracle spins to max_rounds, the
   active-set stepper stalls — both must raise the same Failure *)
let frozen_kernel =
  {
    Flat.name = "frozen";
    slots = 1;
    scratch_words = 0;
    init = (fun ~node:_ ~slot:_ -> 0);
    step = (fun ctx ~scratch:_ ~round:_ ~node:v -> ctx.Flat.nxt.(v) <- 0);
    halted = Some (fun _ ~node:_ -> false);
  }

(* flips every round: never stabilizes *)
let blinker_kernel =
  {
    Flat.name = "blinker";
    slots = 1;
    scratch_words = 0;
    init = (fun ~node:_ ~slot:_ -> 0);
    step =
      (fun ctx ~scratch:_ ~round:_ ~node:v ->
        ctx.Flat.nxt.(v) <- 1 - ctx.Flat.cur.(v));
    halted = None;
  }

let oracle_failures topo =
  ( failure_message (fun () ->
        Naive.run ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s)
          ~halted:(fun _ -> false)
          ~max_rounds:10),
    failure_message (fun () ->
        Naive.run_until_stable ~topo
          ~init:(fun _ -> false)
          ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> not s)
          ~equal:Bool.equal ~max_rounds:7) )

let test_flat_failure_parity () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 5)) in
  let frozen, blinker = oracle_failures topo in
  Alcotest.(check (option string))
    "oracle stall text" (Some "Engine.run: max_rounds=10 exceeded") frozen;
  Alcotest.(check (option string))
    "oracle blinker text"
    (Some "Engine.run_until_stable: max_rounds=7 exceeded")
    blinker;
  Alcotest.(check (option string))
    "stall failure parity" frozen
    (failure_message (fun () ->
         Flat.exec ~topo ~kernel:frozen_kernel ~stop:(Engine.Halted 10) ()));
  Alcotest.(check (option string))
    "max_rounds failure parity" blinker
    (failure_message (fun () ->
         Flat.exec ~topo ~kernel:blinker_kernel ~stop:(Engine.Stable 7) ()));
  (* a kernel without a halting predicate cannot run under Halted, nor a
     kernel without state words at all *)
  (match
     Flat.exec ~topo ~kernel:blinker_kernel ~stop:(Engine.Halted 7) ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for halted-less kernel");
  match
    Flat.exec ~topo
      ~kernel:{ blinker_kernel with Flat.slots = 0 }
      ~stop:(Engine.Stable 7) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a zero-slot kernel"

let test_flat_fault_gate_parity () =
  (* an armed Engine.fault_gate interrupts flat runs at the same round
     boundary as the oracle under every stop policy: same rounds, states
     and derived trace records, and no max_rounds failure *)
  let n = 20 in
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path n)) in
  let kernel = Flat.Kernels.flood () in
  let init v = v = 0 and step = Naive.flood_step in
  let saved = !Engine.fault_gate in
  Engine.fault_gate := Some (fun ~round -> round < 3);
  Fun.protect
    ~finally:(fun () -> Engine.fault_gate := saved)
    (fun () ->
      List.iter
        (fun stop ->
          let policy =
            match stop with
            | Engine.Halted _ -> "Halted"
            | Engine.Stable _ -> "Stable"
            | Engine.Rounds _ -> "Rounds"
          in
          let want =
            Naive.exec ~stop ~topo ~init ~step ~halted:Fun.id
              ~equal:Bool.equal ()
          in
          check_int (policy ^ ": gate stops the oracle at 3") 3
            want.Naive.rounds;
          List.iter
            (fun sched ->
              check
                (Printf.sprintf "%s %s: flat rounds, states, records" policy
                   (Engine.sched_to_string sched))
                true
                (traced_agree ~sched ~topo ~kernel ~stop ~word:Bool.to_int
                   want
                   ~records:
                     (Naive.records ~sched ~stop ~topo ~init ~step
                        ~halted:Fun.id ~equal:Bool.equal ())))
            scheds)
        [ Engine.Halted (n + 1); Engine.Stable (n + 1); Engine.Rounds 10 ])

let test_rounds_gate_on_drained_rounds () =
  (* under Rounds, a round whose active set has drained is skipped but
     counted, and the gate must see it like any counted round: flood on
     a 6-path drains after round 6, the gate closes after round 8, and
     every mode must stop where the oracle does *)
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 6)) in
  let saved = !Engine.fault_gate in
  Engine.fault_gate := Some (fun ~round -> round < 8);
  Fun.protect
    ~finally:(fun () -> Engine.fault_gate := saved)
    (fun () ->
      let want =
        Naive.run_rounds ~topo
          ~init:(fun v -> v = 0)
          ~step:Naive.flood_step ~rounds:20
      in
      check_int "the oracle stops at the gate" 8 want.Naive.rounds;
      check "every flat mode stops there too" true
        (modes_agree ~topo ~kernel:(Flat.Kernels.flood ())
           ~stop:(Engine.Rounds 20) ~word:Bool.to_int want))

let test_flat_zero_alloc_per_step () =
  (* the flat hot path must allocate nothing on the minor heap per step:
     run flood down a long path (many rounds, tiny frontiers — the shape
     that amplifies any per-round or per-step allocation) and bound the
     whole run's minor-heap delta by a per-run constant. A 2-word leak
     per round would show up as ~40k words here. Every stop policy is
     measured: they share one round driver, but each has its own arm.
     The masked path hides the far half of the same path, so the
     stepper runs over present nodes that are not the whole id range. *)
  let n = 20_000 in
  let g = Gen.path n in
  let kernel = Flat.Kernels.flood () in
  List.iter
    (fun (input, sg, reach) ->
      let topo = Topology.compile sg in
      List.iter
        (fun (arm, stop) ->
          let arm = input ^ " " ^ arm in
          let run () = Flat.exec ~topo ~kernel ~stop () in
          ignore (run ());
          let w0 = Gc.minor_words () in
          let o = run () in
          let w1 = Gc.minor_words () in
          check_int (arm ^ ": flood covered the path") (reach - 1) o.Flat.rounds;
          check (arm ^ ": flood reached every node") true
            (Array.for_all
               (fun v -> Flat.read o ~node:v ~slot:0 = Bool.to_int (v < reach))
               (Array.init n Fun.id));
          let delta = w1 -. w0 in
          check
            (Printf.sprintf "%s: per-run minor words bounded (got %.0f)" arm
               delta)
            true (delta < 2048.))
        [
          ("Stable", Engine.Stable (n + 1));
          ("Halted", Engine.Halted (n + 1));
          ("Rounds", Engine.Rounds (reach - 1));
        ])
    [
      ("path", Semi_graph.of_graph g, n);
      ( "masked path",
        Semi_graph.of_node_subset g (Array.init n (fun v -> v < n / 2)),
        n / 2 );
    ]

(* ---------- Linial's direct loop ---------- *)

(* Set once some case settles a node at x >= 1 of the last round, i.e.
   ends on a color >= that round's q: at x = 0 alone, p(0) is a node's
   lowest digit, and the x-major pending sweep would go untested. *)
let linial_settled_late = ref false

let prop_linial_topo_equivalence =
  QCheck.Test.make ~name:"Linial.reduce_topo == Linial.reduce" ~count:40
    QCheck.(pair (int_range 2 120) (int_range 0 100000))
    (fun (n, seed) ->
      (* Two cases in five are power-law unions, whose hubs have high
         degree. Their ids come from 1 .. n^3: Linial runs no round
         unless the palette exceeds q² > Δ², which ids up to n <= 120
         rarely do. About 3 hub cases in 4 settle some node at x >= 1,
         so 40 cases miss it with probability below 1e-5. *)
      let hubs = seed mod 5 >= 3 in
      let g =
        if hubs then Gen.power_law_union ~n ~arboricity:2 ~seed
        else family ~n ~seed ~pick:(seed mod 4)
      in
      let n = Graph.n_nodes g in
      let nodes = List.init n Fun.id in
      let ids =
        if hubs then Ids.spread ~n ~c:3 ~seed:(seed + 7)
        else Ids.permuted ~n ~seed:(seed + 7)
      in
      let palette = Ids.max_id ids in
      let colors_a = Array.map (fun id -> id - 1) ids in
      let colors_b = Array.copy colors_a in
      let max_degree = Graph.max_degree g in
      let ra =
        Linial.reduce
          ~neighbors:(fun v -> Array.to_list (Graph.neighbors g v))
          ~nodes ~colors:colors_a ~palette ~max_degree
      in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let rb =
        Linial.reduce_topo ~topo ~nodes ~colors:colors_b ~palette ~max_degree
      in
      let sched = Linial.schedule ~palette ~max_degree in
      let last = Array.length sched - 1 in
      if last >= 0 && Array.exists (fun c -> c >= fst sched.(last)) colors_b then
        linial_settled_late := true;
      ra = rb && colors_a = colors_b)

let test_linial_topo_equivalence () =
  linial_settled_late := false;
  QCheck.Test.check_exn ~rand:(Random.State.make_self_init ())
    prop_linial_topo_equivalence;
  check "some case settles a node at x >= 1" true !linial_settled_late

(* ---------- failure semantics ---------- *)

let test_max_rounds_failure_parity () =
  (* every in-process mode and scheduling raises the oracle's texts *)
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 5)) in
  let frozen, blinker = oracle_failures topo in
  check "the oracle raises both" true (frozen <> None && blinker <> None);
  List.iter
    (fun sched ->
      List.iter
        (fun (par, grain) ->
          with_par_grain grain (fun () ->
              let what =
                Printf.sprintf "par %d grain %d %s" par grain
                  (Engine.sched_to_string sched)
              in
              Alcotest.(check (option string))
                ("stall parity: " ^ what) frozen
                (failure_message (fun () ->
                     Flat.exec ~par ~sched ~topo ~kernel:frozen_kernel
                       ~stop:(Engine.Halted 10) ()));
              Alcotest.(check (option string))
                ("blinker parity: " ^ what) blinker
                (failure_message (fun () ->
                     Flat.exec ~par ~sched ~topo ~kernel:blinker_kernel
                       ~stop:(Engine.Stable 7) ()))))
        flat_variants)
    scheds

let test_empty_present_set () =
  let g = Gen.path 4 in
  let topo = Topology.compile (Semi_graph.of_node_subset g (Array.make 4 false)) in
  let count =
    {
      blinker_kernel with
      Flat.name = "count";
      step =
        (fun ctx ~scratch:_ ~round:_ ~node:v ->
          ctx.Flat.nxt.(v) <- ctx.Flat.cur.(v) + 1);
      halted = Some (fun _ ~node:_ -> false);
    }
  in
  List.iter
    (fun (what, stop, want) ->
      let oracle =
        Naive.exec ~stop ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s + 1)
          ~halted:(fun _ -> false)
          ~equal:Int.equal ()
      in
      check_int ("oracle: " ^ what) want oracle.Naive.rounds;
      List.iter
        (fun (par, _) ->
          check_int
            (Printf.sprintf "%s: par %d" what par)
            want
            (Flat.exec ~par ~topo ~kernel:count ~stop ()).Flat.rounds)
        flat_variants)
    [
      ("Halted costs 0 rounds", Engine.Halted 5, 0);
      ("Stable costs 0 rounds", Engine.Stable 5, 0);
      ("Rounds counts its rounds", Engine.Rounds 3, 3);
    ]

(* ---------- tracing and the ledger bridge ---------- *)

let test_trace_metrics () =
  let n = 64 in
  let g = Gen.random_tree ~n ~seed:23 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let trace = Trace.create ~label:"test-flood" () in
  let o =
    Flat.exec ~trace ~topo ~kernel:(Flat.Kernels.flood ())
      ~stop:(Engine.Halted (n + 1)) ()
  in
  let m = Trace.metrics trace in
  check_int "trace rounds = outcome rounds" o.Flat.rounds m.Trace.rounds;
  check_int "naive_steps = rounds * n" (o.Flat.rounds * n) m.Trace.naive_steps;
  check "active-set executed fewer steps" true (m.Trace.steps < m.Trace.naive_steps);
  check_int "steps = sum of per-round active"
    (List.fold_left (fun acc r -> acc + r.Trace.active) 0 (Trace.records trace))
    m.Trace.steps;
  check "max_active bounded by n" true (m.Trace.max_active <= n);
  check "mode stamped" true (Trace.mode trace = "flat:seq");
  let json = Trace.to_json trace in
  check "json carries the label" true
    (let needle = "\"label\":\"test-flood\"" in
     let rec find i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  (* ledger bridge, as the CLI's trace summary charges it: the measured
     engine rounds land in a named phase, apart from the paper's *)
  let ledger = Round_cost.create () in
  Round_cost.charge ledger ("engine:" ^ Trace.label trace) m.Trace.rounds;
  check_int "engine:<label> phase" o.Flat.rounds
    (Round_cost.get ledger "engine:test-flood")

let test_trace_sink () =
  let got = ref [] in
  let saved = !Engine.trace_sink in
  Engine.trace_sink := Some (fun t -> got := t :: !got);
  Fun.protect
    ~finally:(fun () -> Engine.trace_sink := saved)
    (fun () ->
      let topo = Topology.compile (Semi_graph.of_graph (Gen.path 12)) in
      ignore
        (Flat.exec ~topo ~kernel:(Flat.Kernels.flood ())
           ~stop:(Engine.Halted 20) ()));
  check_int "sink received exactly one trace" 1 (List.length !got);
  let t = List.hd !got in
  check "sink trace measured rounds" true ((Trace.metrics t).Trace.rounds > 0);
  check "sink trace keeps the default label" true
    (Trace.label t = "flat.flood")

let test_trace_zero_rounds () =
  (* a trace that never recorded a round: every metric must be defined,
     in particular naive_steps = 0 must not blow up step_savings in the
     JSON (it prints 0, not nan/inf) *)
  let tr = Trace.create ~label:"empty" () in
  Trace.set_meta tr ~mode:"seq" ~scheduling:"active-set" ~n_base:10
    ~n_present:0;
  Trace.finish tr ~total_s:0.0;
  let m = Trace.metrics tr in
  check_int "rounds" 0 m.Trace.rounds;
  check_int "steps" 0 m.Trace.steps;
  check_int "naive_steps" 0 m.Trace.naive_steps;
  check_int "max_active" 0 m.Trace.max_active;
  let j = Tl_obs.Json.parse (Trace.to_json tr) in
  let metrics = Option.get (Tl_obs.Json.member "metrics" j) in
  check "step_savings finite" true
    (Option.bind (Tl_obs.Json.member "step_savings" metrics) Tl_obs.Json.to_float
    = Some 0.);
  check "n_present 0 serialized" true
    (Option.bind (Tl_obs.Json.member "n_present" j) Tl_obs.Json.to_int = Some 0);
  check "empty rounds_detail" true
    (Option.bind (Tl_obs.Json.member "rounds_detail" j) Tl_obs.Json.to_list
    = Some [])

let test_trace_json_roundtrip () =
  (* rounds_detail through a real parser: tracked fields present,
     untracked (-1) fields omitted per the schema doc in trace.mli *)
  let tr = Trace.create ~label:"rt" () in
  Trace.set_meta tr ~mode:"flat:seq" ~scheduling:"full-scan" ~n_base:4
    ~n_present:4;
  Trace.record tr
    { Trace.round = 1; active = 4; changed = 2; unhalted = 3; wall_s = 0.5 };
  Trace.record tr
    { Trace.round = 2; active = 3; changed = -1; unhalted = -1; wall_s = 0.25 };
  Trace.finish tr ~total_s:1.0;
  let open Tl_obs.Json in
  let j = parse (Trace.to_json tr) in
  let detail = Option.get (Option.bind (member "rounds_detail" j) to_list) in
  check_int "two detail rows" 2 (List.length detail);
  let r1 = List.nth detail 0 and r2 = List.nth detail 1 in
  check "r1 changed present" true
    (Option.bind (member "changed" r1) to_int = Some 2);
  check "r1 unhalted present" true
    (Option.bind (member "unhalted" r1) to_int = Some 3);
  check "r1 wall_s" true (Option.bind (member "wall_s" r1) to_float = Some 0.5);
  check "r2 changed omitted" true (member "changed" r2 = None);
  check "r2 unhalted omitted" true (member "unhalted" r2 = None);
  check "r2 active" true (Option.bind (member "active" r2) to_int = Some 3);
  check "label round-trips" true
    (Option.bind (member "label" j) to_str = Some "rt");
  (* one state layout and no compile step in a run: the schema carries
     neither *)
  List.iter
    (fun key -> check (key ^ " not serialized") true (member key j = None))
    [ "layout"; "compile_s"; "compile_cached" ];
  (* the accessors added for the span bridge *)
  check "mode accessor" true (Trace.mode tr = "flat:seq");
  check "scheduling accessor" true (Trace.scheduling tr = "full-scan");
  check_int "n_base accessor" 4 (Trace.n_base tr);
  check_int "n_present accessor" 4 (Trace.n_present tr)

(* ---------- mode parsing ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_mode_strings () =
  List.iter
    (fun m ->
      check
        ("round-trip " ^ Engine.mode_to_string m)
        true
        (Engine.mode_of_string (Engine.mode_to_string m) = m))
    [ Engine.Seq; Engine.Par 1; Engine.Par 2; Engine.Par 16; Engine.Proc 3 ];
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (match Engine.mode_of_string s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      "naive";
      "par:0";
      "par:x";
      "threads";
      "";
      "par";
      "shard:4";
      "par:+2" (* int_of_string would take it; digits-only must not *);
      "par:02" (* would print back as par:2 *);
      " seq";
      "seq ";
      "par: 2";
      "par:2 ";
      "par:99999999999999999999" (* out of int range *);
    ];
  (* rejection messages name the offending input — callers surface them
     verbatim as usage errors *)
  (match Engine.mode_of_string "par:0" with
  | exception Invalid_argument msg ->
    check "par:0 message names the input" true (contains msg "\"par:0\"")
  | _ -> Alcotest.fail "par:0 must be rejected");
  match Engine.mode_of_string "naive" with
  | exception Invalid_argument msg ->
    check "naive message names the modes" true
      (contains msg "seq | par:<n> | proc:<n>")
  | _ -> Alcotest.fail "naive must be rejected"

(* Arbitrary bytes, mixed with the near-misses a config line or a
   request carries: retired and bare mode names, zero and 30-digit
   counts, whitespace and NUL. *)
let hostile_mode_string =
  let open QCheck.Gen in
  let near_misses =
    [
      "naive"; "seq"; "par"; "par:"; "proc"; "proc:"; "proc:0"; "par:0"; "0";
      "4"; "007"; "123456789012345678901234567890"; " "; "\t"; "\n"; "\r";
      "\000"; ":"; "+"; "-";
    ]
  in
  let piece = oneof [ oneofl near_misses; string_size ~gen:char (0 -- 6) ] in
  map (String.concat "") (list_size (0 -- 4) piece)

let prop_hostile_mode_strings =
  QCheck.Test.make ~name:"hostile strings: exact round-trip or Invalid_argument"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") hostile_mode_string)
    (fun s ->
      match Engine.mode_of_string s with
      | m -> Engine.mode_to_string m = s
      | exception Invalid_argument _ -> true)

(* ---------- Pool ---------- *)

module Pool = Tl_engine.Pool

let test_pool_create () =
  let rejects label w =
    match Pool.create ~workers:w () with
    | exception Invalid_argument msg ->
      check label true
        (String.length msg > 0
        && String.sub msg 0 (min 11 (String.length msg)) = "Pool.create")
    | pool ->
      Alcotest.fail
        (Printf.sprintf "expected Invalid_argument on %d workers, got %d" w
           (Pool.workers pool))
  in
  rejects "rejects 0 workers" 0;
  rejects "rejects negative workers" (-3);
  (* 65+ used to be silently clamped to 64 — a typo'd --pool 640 ran at
     64 workers with plausible timings; now it is an explicit error *)
  rejects "rejects 65 workers" 65;
  rejects "rejects 1000 workers" 1000;
  check_int "64 workers accepted" 64 (Pool.workers (Pool.create ~workers:64 ()));
  let saved = !Pool.default_workers in
  Pool.default_workers := 5;
  check_int "create () reads default_workers" 5 (Pool.workers (Pool.create ()));
  Pool.default_workers := saved

let test_pool_map_deterministic () =
  let tasks = Array.init 37 (fun i -> i) in
  let expected = Array.map (fun x -> x * x) tasks in
  List.iter
    (fun w ->
      let pool = Pool.create ~workers:w () in
      let got = Pool.map pool ~tasks ~f:(fun ~worker:_ ~index:_ x -> x * x) in
      check (Printf.sprintf "map result workers=%d" w) true (got = expected))
    [ 1; 2; 3; 4; 7; 64 ]

let test_pool_chunking () =
  (* fixed contiguous chunking: task i runs on worker i / ceil(n/p),
     independent of scheduling *)
  let n = 10 and p = 3 in
  let tasks = Array.init n (fun i -> i) in
  let pool = Pool.create ~workers:p () in
  let owners = Pool.map pool ~tasks ~f:(fun ~worker ~index:_ _ -> worker) in
  let chunk = (n + p - 1) / p in
  check "contiguous chunks" true (owners = Array.init n (fun i -> i / chunk))

let test_pool_exception_lowest_index () =
  (* when several tasks raise, the lowest-index failure is re-raised —
     the same exception the sequential run would have surfaced first *)
  let tasks = Array.init 8 (fun i -> i) in
  let pool = Pool.create ~workers:4 () in
  match
    Pool.map pool ~tasks ~f:(fun ~worker:_ ~index:_ x ->
        if x = 6 then failwith "high";
        if x = 2 then failwith "low";
        x)
  with
  | exception Failure msg ->
    check "lowest-index failure wins" true (msg = "low")
  | _ -> Alcotest.fail "expected Failure"

let test_pool_commit_order () =
  let tasks = Array.init 23 (fun i -> i) in
  let pool = Pool.create ~workers:5 () in
  let order = ref [] in
  Pool.map_commit pool ~tasks
    ~work:(fun ~worker:_ ~index:_ x -> x)
    ~commit:(fun ~index r -> order := (index, r) :: !order);
  check "commit in task order" true
    (List.rev !order = List.init 23 (fun i -> (i, i)))

(* ---------- the persistent domain team ---------- *)

module Team = Tl_engine.Team

let test_team_coverage () =
  List.iter
    (fun w ->
      let hits = Array.make (max 1 w) 0 in
      Team.run ~workers:w (fun i -> hits.(i) <- hits.(i) + 1);
      check
        (Printf.sprintf "every index ran exactly once, workers=%d" w)
        true
        (Array.for_all (fun c -> c = 1) hits))
    [ 1; 2; 3; 4; 8 ]

let test_team_reuse () =
  (* the whole point: domains are spawned once and parked, not respawned
     per map / per round *)
  Team.prewarm 4;
  let s0 = Team.spawns () in
  check "prewarm spawned the members" true (s0 >= 3);
  for _ = 1 to 50 do
    Team.run ~workers:4 (fun _ -> ())
  done;
  check_int "50 team runs spawn nothing new" s0 (Team.spawns ());
  let pool = Pool.create ~workers:4 () in
  let tasks = Array.init 100 Fun.id in
  for _ = 1 to 10 do
    ignore (Pool.map pool ~tasks ~f:(fun ~worker:_ ~index:_ x -> x + 1))
  done;
  check_int "pool maps ride the same parked team" s0 (Team.spawns ());
  with_par_grain 0 (fun () ->
      let topo = Topology.compile (Semi_graph.of_graph (Gen.path 200)) in
      ignore
        (Flat.exec ~par:4 ~topo ~kernel:(Flat.Kernels.flood ())
           ~stop:(Engine.Stable 201) ()));
  check_int "par rounds ride the same parked team" s0 (Team.spawns ())

let test_team_exception_lowest_index () =
  (* several workers raise; every member still finishes, and the lowest
     worker index's exception is re-raised *)
  match
    Team.run ~workers:4 (fun w ->
        if w = 3 then failwith "three";
        if w = 1 then failwith "one")
  with
  | exception Failure msg -> check "lowest worker index wins" true (msg = "one")
  | () -> Alcotest.fail "expected Failure"

let test_team_reentrant_inline () =
  (* a job calling back into the team (nested parallelism) must not
     deadlock on the barrier: the nested run degrades to inline *)
  let marks = Array.make 4 0 in
  Team.run ~workers:2 (fun w ->
      Team.run ~workers:2 (fun i -> marks.((w * 2) + i) <- 1));
  check "nested run covered all indices" true
    (Array.for_all (fun m -> m = 1) marks);
  (* and the team still works afterwards *)
  let hits = Array.make 3 0 in
  Team.run ~workers:3 (fun i -> hits.(i) <- 1);
  check "team alive after nested run" true (Array.for_all (fun m -> m = 1) hits)

(* ---------- compile cache ---------- *)

let test_topology_cache_hit_and_invalidation () =
  Topology.clear_cache ();
  let g = Gen.random_tree ~n:40 ~seed:5 in
  let sg = Semi_graph.of_graph g in
  let h0, m0 = Topology.cache_stats () in
  let t1, hit1 = Topology.compile_cached_stat sg in
  let t2, hit2 = Topology.compile_cached_stat sg in
  check "first compile misses" true (not hit1);
  check "second compile hits" true hit2;
  check "hit returns the same snapshot" true (t1 == t2);
  let h1, m1 = Topology.cache_stats () in
  check_int "one hit counted" 1 (h1 - h0);
  check_int "one miss counted" 1 (m1 - m0);
  (* masking a node bumps the generation, making the old key unreachable *)
  let gen0 = Semi_graph.generation sg in
  Semi_graph.hide_node sg 0;
  check_int "generation bumped" (gen0 + 1) (Semi_graph.generation sg);
  let t3, hit3 = Topology.compile_cached_stat sg in
  check "mutation invalidates" true (not hit3);
  check "recompiled snapshot" true (not (t3 == t1));
  check "node masked out" true (not (Topology.present t3 0));
  (* hiding an already-hidden node must not bump the generation *)
  Semi_graph.hide_node sg 0;
  check_int "no-op hide keeps generation" (gen0 + 1) (Semi_graph.generation sg);
  let _, hit4 = Topology.compile_cached_stat sg in
  check "no-op hide keeps the entry live" true hit4

let test_topology_cache_eviction_generation () =
  (* generation bumps (hide_node / hide_edge) interleaved with FIFO
     overflow: every transition is predicted and the hit/miss counters
     must account for all of them exactly *)
  Topology.clear_cache ();
  Topology.set_cache_limit 2;
  let sg = Semi_graph.of_graph (Gen.random_tree ~n:30 ~seed:41) in
  let sg2 = Semi_graph.of_graph (Gen.path 10) in
  let sg3 = Semi_graph.of_graph (Gen.star 8) in
  let h0, m0 = Topology.cache_stats () in
  check "initial compile misses" true (not (snd (Topology.compile_cached_stat sg)));
  check "recompile hits" true (snd (Topology.compile_cached_stat sg));
  Semi_graph.hide_edge sg 0;
  check "hide_edge invalidates" true
    (not (snd (Topology.compile_cached_stat sg)));
  Semi_graph.hide_node sg 1;
  (* third generation of the same view: FIFO (limit 2) drops gen 0 *)
  check "hide_node invalidates again" true
    (not (snd (Topology.compile_cached_stat sg)));
  (* two fresh views overflow the bound and evict both sg generations *)
  check "fresh view misses" true (not (snd (Topology.compile_cached_stat sg2)));
  check "second fresh view misses" true
    (not (snd (Topology.compile_cached_stat sg3)));
  check "sg evicted by overflow" true
    (not (snd (Topology.compile_cached_stat sg)));
  check "sg2 evicted by sg reinsert" true
    (not (snd (Topology.compile_cached_stat sg2)));
  check "sg3 evicted by sg2 reinsert" true
    (not (snd (Topology.compile_cached_stat sg3)));
  let h1, m1 = Topology.cache_stats () in
  check_int "exactly one hit" 1 (h1 - h0);
  check_int "exactly eight misses" 8 (m1 - m0);
  Topology.set_cache_limit 64

let test_topology_cache_limit () =
  Topology.clear_cache ();
  (match Topology.set_cache_limit (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on negative limit");
  let sgs = Array.init 3 (fun i -> Semi_graph.of_graph (Gen.path (i + 2))) in
  Topology.set_cache_limit 2;
  Array.iter (fun sg -> ignore (Topology.compile_cached_stat sg)) sgs;
  (* FIFO: inserting the third view evicted the first *)
  check "oldest evicted" true (not (snd (Topology.compile_cached_stat sgs.(0))));
  check "recent kept" true (snd (Topology.compile_cached_stat sgs.(2)));
  Topology.set_cache_limit 0;
  check "limit 0 disables caching" true
    (not (snd (Topology.compile_cached_stat sgs.(2))));
  check "still disabled on repeat" true
    (not (snd (Topology.compile_cached_stat sgs.(2))));
  Topology.set_cache_limit 64

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "tl_engine"
    [
      ( "topology",
        qsuite [ prop_topology_matches_semigraph; prop_topology_on_subsets ]
        @ [
            Alcotest.test_case "compile cache hit/miss/invalidation" `Quick
              test_topology_cache_hit_and_invalidation;
            Alcotest.test_case "compile cache FIFO limit" `Quick
              test_topology_cache_limit;
            Alcotest.test_case "cache eviction: generation bumps x FIFO"
              `Quick test_topology_cache_eviction_generation;
          ] );
      ( "pool",
        [
          Alcotest.test_case "create validates and clamps" `Quick
            test_pool_create;
          Alcotest.test_case "map deterministic across widths" `Quick
            test_pool_map_deterministic;
          Alcotest.test_case "fixed contiguous chunking" `Quick
            test_pool_chunking;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "commit runs in task order" `Quick
            test_pool_commit_order;
        ] );
      ( "team",
        [
          Alcotest.test_case "every index runs exactly once" `Quick
            test_team_coverage;
          Alcotest.test_case "domains parked and reused, never respawned"
            `Quick test_team_reuse;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_team_exception_lowest_index;
          Alcotest.test_case "reentrant run degrades to inline" `Quick
            test_team_reentrant_inline;
        ] );
      ( "flat",
        qsuite
          [
            prop_flat_flood_differential;
            prop_flat_mis_differential;
            prop_flat_run_rounds_differential;
          ]
        @ [
            Alcotest.test_case "failure parity with the boxed engine" `Quick
              test_flat_failure_parity;
            Alcotest.test_case "fault gate parity with the boxed engine"
              `Quick test_flat_fault_gate_parity;
            Alcotest.test_case "rounds gate on drained rounds" `Quick
              test_rounds_gate_on_drained_rounds;
            Alcotest.test_case "zero minor-heap words per step" `Quick
              test_flat_zero_alloc_per_step;
          ] );
      ( "differential",
        qsuite
          [
            prop_flood_differential;
            prop_mis_differential;
            prop_peel_differential;
            prop_cv_differential;
            prop_run_rounds_differential;
          ] );
      ( "linial",
        [
          Alcotest.test_case "Linial.reduce_topo == Linial.reduce" `Quick
            test_linial_topo_equivalence;
        ] );
      ( "failure",
        [
          Alcotest.test_case "max_rounds and stall parity" `Quick
            test_max_rounds_failure_parity;
          Alcotest.test_case "empty present set" `Quick test_empty_present_set;
        ] );
      ( "trace",
        [
          Alcotest.test_case "metrics and ledger bridge" `Quick
            test_trace_metrics;
          Alcotest.test_case "global sink" `Quick test_trace_sink;
          Alcotest.test_case "zero-round metrics" `Quick
            test_trace_zero_rounds;
          Alcotest.test_case "rounds_detail json round-trip" `Quick
            test_trace_json_roundtrip;
        ] );
      ( "modes",
        Alcotest.test_case "parsing" `Quick test_mode_strings
        :: qsuite [ prop_hostile_mode_strings ] );
    ]
