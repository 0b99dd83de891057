(* The shard layer under the process backend: plan invariants and
   caches, the shard-local round body ({!Tl_shard.Local}) over flat
   kernel slabs — its link cuts, and shard:{2,4,8} x pool:{1,4} runs of
   it in one process bit-identical to the naive oracle (test/naive.ml),
   trace records included — and the run report's per-shard spans. The
   backend itself — proc:N over real sockets bit-identical to seq — is
   test_proc's battery. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Stepper = Tl_engine.Stepper
module Flat = Tl_engine.Flat
module Trace = Tl_engine.Trace
module Pool = Tl_engine.Pool
module Plan = Tl_shard.Plan
module Local = Tl_shard.Local
module Kernels = Tl_proc.Coordinator.Kernels
module Ids = Tl_local.Ids
module Span = Tl_obs.Span

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The acceptance families: random trees, balanced regular trees, paths
   and forest unions. *)
let family ~n ~seed ~pick =
  let n = max 2 n in
  match pick mod 4 with
  | 0 -> Gen.random_tree ~n ~seed
  | 1 -> Gen.balanced_regular_tree ~delta:(2 + (seed mod 4)) ~n
  | 2 -> Gen.path n
  | _ -> Gen.forest_union ~n ~arboricity:2 ~seed

(* max-propagation of the ids: the flat twin of Naive.max_step *)
let max_kernel ids ~l2g =
  {
    Flat.name = "max";
    slots = 1;
    scratch_words = 0;
    init = (fun ~node ~slot:_ -> ids.(l2g.(node)));
    step =
      (fun ctx ~scratch:_ ~round:_ ~node ->
        let best = ref ctx.Flat.cur.(node) in
        for j = ctx.Flat.off.(node) to ctx.Flat.off.(node + 1) - 1 do
          best := max !best ctx.Flat.cur.(ctx.Flat.adj.(j))
        done;
        ctx.Flat.nxt.(node) <- !best);
    halted = None;
  }

(* ---------- plan invariants ---------- *)

let plan_invariants topo s =
  let plan = Plan.build ~topo ~shards:s in
  let shards = plan.Plan.shards in
  let np = topo.Topology.n_present in
  (* owned slices partition present_nodes in order *)
  let concat =
    Array.concat (Array.to_list (Array.map (fun sh -> sh.Plan.owned) shards))
  in
  concat = topo.Topology.present_nodes
  && Array.length shards = max 1 (min s (max 1 np))
  && Array.for_all
       (fun sh ->
         (* each owned row reproduces the global CSR row, remapped *)
         let ok = ref (sh.Plan.n_owned <= sh.Plan.n_local) in
         for l = 0 to sh.Plan.n_owned - 1 do
           let v = sh.Plan.l2g.(l) in
           let row_g =
             List.init
               (topo.Topology.off.(v + 1) - topo.Topology.off.(v))
               (fun i ->
                 ( topo.Topology.adj.(topo.Topology.off.(v) + i),
                   topo.Topology.eid.(topo.Topology.off.(v) + i) ))
           in
           let row_l =
             List.init
               (sh.Plan.off.(l + 1) - sh.Plan.off.(l))
               (fun i ->
                 ( sh.Plan.l2g.(sh.Plan.adj.(sh.Plan.off.(l) + i)),
                   sh.Plan.eid.(sh.Plan.off.(l) + i) ))
           in
           if row_g <> row_l then ok := false
         done;
         (* every ghost is owned by some other shard at the routed slot *)
         for h = sh.Plan.n_owned to sh.Plan.n_local - 1 do
           let v = sh.Plan.l2g.(h) in
           let o = plan.Plan.owner.(v) in
           if o = sh.Plan.id || o < 0 then ok := false
         done;
         !ok)
       shards
  (* a cross edge is counted by both endpoint shards *)
  && Plan.cut_edges_total plan mod 2 = 0
  && Plan.imbalance_permille plan >= 1000

let prop_plan_invariants =
  QCheck.Test.make ~name:"Plan.build invariants across families" ~count:60
    QCheck.(
      quad (int_range 2 150) (int_range 0 100000) (int_range 0 3)
        (int_range 1 9))
    (fun (n, seed, pick, s) ->
      let g = family ~n ~seed ~pick in
      plan_invariants (Topology.compile (Semi_graph.of_graph g)) s)

let prop_plan_on_subsets =
  QCheck.Test.make ~name:"Plan.build on masked views" ~count:40
    QCheck.(triple (int_range 3 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let keep = Array.init (Graph.n_nodes g) (fun v -> v mod 3 <> 2) in
      let topo = Topology.compile (Semi_graph.of_node_subset g keep) in
      List.for_all (fun s -> plan_invariants topo s) [ 1; 2; 4; 8 ])

(* ---------- link cuts in the round body ---------- *)

(* Path 0..7 in two shards: shard 0 owns 0-3 with node 4 as its ghost.
   Flooding from node 2, node 3 turns in round 1 and routes its state
   to shard 1 — the only halo message shard 0 ever sends. *)
let drain_path_shard0 cuts =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 8)) in
  let sh = (Plan.build ~topo ~shards:2).Plan.shards.(0) in
  let csr = Local.csr sh in
  let _, store =
    Flat.store csr ~workers:1 ~halting:false
      (Kernels.flood ~source:2 () ~l2g:sh.Plan.l2g)
  in
  let loc = Local.create sh csr ~sched:Engine.Active_set ~cuts store in
  let core = Local.stepper loc in
  let sent = ref [] in
  for round = 1 to 3 do
    Stepper.compute core ~par:1 ~round;
    ignore (Stepper.commit core);
    Local.drain loc ~round (fun ~dst ~slot:_ ~src:_ n ->
        sent := (round, Array.to_list (Array.sub dst 0 n)) :: !sent);
    Stepper.advance core
  done;
  (List.rev !sent, Local.halo_words loc, Local.exchange_rounds loc,
   Local.dropped loc)

let test_local_cuts () =
  let sent, words, ex, dropped = drain_path_shard0 [] in
  check "uncut: one message to shard 1 in round 1" true (sent = [ (1, [ 1 ]) ]);
  check_int "uncut: halo words" 1 words;
  check_int "uncut: exchange rounds" 1 ex;
  check "uncut: nothing dropped" true (dropped = []);
  let sent, words, ex, dropped = drain_path_shard0 [ (3, 1); (1, 1) ] in
  check "cut: the message is skipped" true (sent = []);
  check_int "cut: no halo words" 0 words;
  check_int "cut: the round still exchanged" 1 ex;
  check "cut: counted as (round, peer, msgs)" true (dropped = [ (1, 1, 1) ]);
  let sent, _, _, dropped = drain_path_shard0 [ (2, 1); (1, 0) ] in
  check "a cut in a silent round or to another peer drops nothing" true
    (sent = [ (1, [ 1 ]) ] && dropped = [])

(* ---------- differential: shard-local bodies vs seq ---------- *)

let shard_counts = [ 2; 4; 8 ]
let pool_widths = [ 1; 4 ]

(* The process backend's round without its wire: every shard of a plan
   runs its Local body over its flat kernel's slab (Flat.store, as a
   proc worker does) in this process, the computes of distinct shards
   fanned over a pool of [workers] domains, each drained route's words
   copied straight into its target shard's ghost slot, and Engine.drive
   deciding when to stop and tracing each round — the worker's and the
   coordinator's split of a round, minus the sockets. A mismatch here
   is the shard layer's; one only under proc is the wire's. Returns the
   final labeling (slot 0 of every node) and the rounds. *)
let run_local ~sched ~topo ~kernel_for stop ~shards ~workers trace =
  let halting = match stop with Engine.Halted _ -> true | _ -> false in
  let parts =
    Array.map
      (fun sh ->
        let csr = Local.csr sh in
        let ctx, store =
          Flat.store csr ~workers:1 ~halting (kernel_for ~l2g:sh.Plan.l2g)
        in
        (sh, ctx, Local.create sh csr ~sched ~cuts:[] store))
      (Plan.build ~topo ~shards).Plan.shards
  in
  let pool = Pool.create ~workers () in
  let total f =
    Array.fold_left (fun acc (_, _, loc) -> acc + f (Local.stepper loc)) 0 parts
  in
  let exec round =
    ignore
      (Pool.map pool ~tasks:parts ~f:(fun ~worker:_ ~index:_ (_, _, loc) ->
           Stepper.compute (Local.stepper loc) ~par:1 ~round));
    let changed = total Stepper.commit in
    Array.iter
      (fun (_, (ctx : Flat.ctx), loc) ->
        let slots = ctx.Flat.slots in
        Local.drain loc ~round (fun ~dst ~slot ~src n ->
            for b = 0 to n - 1 do
              let _, ctx', loc' = parts.(dst.(b)) in
              Array.blit ctx.Flat.cur (src.(b) * slots) ctx'.Flat.cur
                (slot.(b) * slots) slots;
              Local.ghost_written loc' slot.(b)
            done))
      parts;
    Array.iter (fun (_, _, loc) -> Stepper.advance (Local.stepper loc)) parts;
    changed
  in
  let rounds, exhausted =
    Engine.drive ~trace:(Some trace) ~stop
      ~active:(fun () -> total Stepper.n_active)
      ~unhalted:(fun () -> total Stepper.unhalted)
      ~exec
  in
  if exhausted then Engine.exhausted stop;
  let n = topo.Topology.n_base in
  let global = kernel_for ~l2g:(Array.init n Fun.id) in
  let states = Array.init n (fun v -> global.Flat.init ~node:v ~slot:0) in
  Array.iter
    (fun (sh, (ctx : Flat.ctx), _) ->
      for l = 0 to sh.Plan.n_owned - 1 do
        states.(sh.Plan.l2g.(l)) <- ctx.Flat.cur.(l * ctx.Flat.slots)
      done)
    parts;
  (states, rounds)

(* Outcomes AND per-round trace records: the shard-local bodies must
   reproduce seq's active/changed/unhalted counts round by round, not
   just the final labeling. *)
let record_key r =
  (r.Trace.round, r.Trace.active, r.Trace.changed, r.Trace.unhalted)

let traced run =
  let trace = Trace.create ~label:"diff" () in
  let o = run trace in
  (o, List.map record_key (Trace.records trace))

(* [want] is the naive oracle's run of the kernel's boxed twin, its
   states read as ints by [word]; [records] the trace records the oracle
   derives for the run's scheduling *)
let local_matches_seq ~word ~(want : _ Naive.outcome) ~records ~local =
  let want = (Array.map word want.Naive.states, want.Naive.rounds) in
  List.for_all
    (fun shards ->
      List.for_all
        (fun workers -> traced (local ~shards ~workers) = (want, records))
        pool_widths)
    shard_counts

let prop_flood_differential =
  QCheck.Test.make ~name:"flood: shard x pool == seq (states + records)"
    ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let max_rounds = Graph.n_nodes g + 1 in
      let stop = Engine.Stable max_rounds in
      let init v = v = 0 and step = Naive.flood_step and equal = Bool.equal in
      (* the full view, and the masked view of prop_plan_on_subsets *)
      let keep = Array.init (Graph.n_nodes g) (fun v -> v mod 3 <> 2) in
      List.for_all
        (fun sg ->
          let topo = Topology.compile sg in
          let want =
            Naive.run_until_stable ~topo ~init ~step ~equal ~max_rounds
          in
          List.for_all
            (fun sched ->
              local_matches_seq ~word:Bool.to_int ~want
                ~records:
                  (Naive.records ~sched ~stop ~topo ~init ~step ~equal ())
                ~local:
                  (run_local ~sched ~topo ~kernel_for:(Kernels.flood ()) stop))
            [ Engine.Active_set; Engine.Full_scan ])
        [ Semi_graph.of_graph g; Semi_graph.of_node_subset g keep ])

let prop_mis_differential =
  QCheck.Test.make ~name:"MIS machine: shard x pool == seq" ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let stop = Engine.Halted (n + 1) and step = Naive.mis_step ids in
      let init _ = 0 and halted s = s <> 0 in
      local_matches_seq ~word:Fun.id
        ~want:(Naive.run ~topo ~init ~step ~halted ~max_rounds:(n + 1))
        ~records:
          (Naive.records ~sched:Engine.Active_set ~stop ~topo ~init ~step
             ~halted ~equal:Int.equal ())
        ~local:
          (run_local ~sched:Engine.Active_set ~topo
             ~kernel_for:(Kernels.mis_local_max ~ids) stop))

let prop_run_rounds_differential =
  QCheck.Test.make ~name:"run_rounds: shard x pool == seq, exact count"
    ~count:30
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 5) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 3 + (seed mod 5) in
      let stop = Engine.Rounds r and step = Naive.max_step in
      let init v = ids.(v) in
      let want = Naive.run_rounds ~topo ~init ~step ~rounds:r in
      want.Naive.rounds = r
      && local_matches_seq ~word:Fun.id ~want
           ~records:
             (Naive.records ~sched:Engine.Active_set ~stop ~topo ~init ~step
                ~equal:Int.equal ())
           ~local:
             (run_local ~sched:Engine.Active_set ~topo
                ~kernel_for:(max_kernel ids) stop))

(* ---------- spans: the per-shard observability contract ---------- *)

let rec find_spans pred s =
  let here = if pred s then [ s ] else [] in
  here @ List.concat_map (find_spans pred) (Span.children s)

let test_shard_spans () =
  let g = Gen.random_tree ~n:500 ~seed:11 in
  let plan = Plan.build ~topo:(Topology.compile (Semi_graph.of_graph g)) ~shards:4 in
  (* shard 3's epilogue never arrived: no child span for it *)
  let traffic s = if s = 3 then None else Some (10 * (s + 1), s + 1) in
  let (), root =
    Span.run "shard-span-test" (fun () ->
        Local.report plan ~shape:0 ~latency_s:0. traffic)
  in
  let shard_spans =
    find_spans
      (fun s ->
        String.length (Span.name s) > 5
        && String.sub (Span.name s) 0 5 = "proc:")
      root
  in
  check_int "one child span per known shard" 3 (List.length shard_spans);
  List.iter
    (fun s ->
      let c = Span.counters s in
      List.iter
        (fun key ->
          check
            (Printf.sprintf "%s carries %s" (Span.name s) key)
            true (List.mem_assoc key c))
        [
          "proc:cut_edges"; "proc:halo_words"; "proc:imbalance";
          "proc:exchange_rounds"; "proc:owned"; "proc:halo";
        ])
    shard_spans;
  let root_counters = Span.counters root in
  check_int "aggregate shard count" 4 (List.assoc "proc:procs" root_counters);
  check_int "known traffic summed" 60
    (List.assoc "proc:halo_words" root_counters);
  check_int "cut edges of the whole plan" (Plan.cut_edges_total plan)
    (List.assoc "proc:cut_edges" root_counters)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "tl_shard"
    [
      ( "plan",
        qsuite [ prop_plan_invariants; prop_plan_on_subsets ] );
      ( "local",
        [ Alcotest.test_case "link cuts skip and count routes" `Quick
            test_local_cuts ] );
      ( "differential",
        qsuite
          [
            prop_flood_differential;
            prop_mis_differential;
            prop_run_rounds_differential;
          ] );
      ( "obs",
        [ Alcotest.test_case "per-shard spans" `Quick test_shard_spans ] );
    ]
