(* Differential battery for the process backend: the tlp wire codec
   (round-trips, chunked reassembly, malformed-input rejection, the
   zero-allocation scalar path), collective-tree geometry, and flat
   kernels on proc:{1,2,4} through Coordinator.run_kernel bit-identical
   to its seq mode — labelings, per-round trace records, round counts
   and failure texts, under both schedulings and every stop policy —
   plus worker-crash containment, zombie-free cleanup and the refused
   pairings (kernels that cannot run under their stop policy, a
   zero-slot prologue).

   Ordering matters on OCaml 5: fork is forbidden once a domain has
   spawned, so every comparison here is against seq — never Par modes,
   which may spin up the domain team and would poison every later proc
   run in this process. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Trace = Tl_engine.Trace
module Plan = Tl_shard.Plan
module Wire = Tl_proc.Wire
module Collective = Tl_proc.Collective
module Proc = Tl_proc.Coordinator
module Ids = Tl_local.Ids
module Span = Tl_obs.Span

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let proc_counts = [ 1; 2; 4 ]

(* The acceptance families: random trees, balanced regular trees, paths
   and forest unions. *)
let family ~n ~seed ~pick =
  let n = max 2 n in
  match pick mod 4 with
  | 0 -> Gen.random_tree ~n ~seed
  | 1 -> Gen.balanced_regular_tree ~delta:(2 + (seed mod 4)) ~n
  | 2 -> Gen.path n
  | _ -> Gen.forest_union ~n ~arboricity:2 ~seed

(* ---------- wire: scalar codec ---------- *)

let test_scalar_codec () =
  let b = Bytes.create 16 in
  List.iter
    (fun v ->
      Wire.put_i64 b 3 v;
      check (Printf.sprintf "i64 round-trip %d" v) true (Wire.get_i64 b 3 = v))
    [
      0; 1; -1; 2; -2; 42; -9999; max_int; min_int; max_int - 1; min_int + 1;
      0x1234_5678_9abc; -0x1234_5678_9abc; 1 lsl 61; -(1 lsl 61);
    ];
  List.iter
    (fun v ->
      Wire.put_u32 b 0 v;
      check (Printf.sprintf "u32 round-trip %d" v) true (Wire.get_u32 b 0 = v))
    [ 0; 1; 0xffff; 0xffff_ffff; 0x1234_5678 ];
  List.iter
    (fun v ->
      Wire.put_u16 b 9 v;
      check (Printf.sprintf "u16 round-trip %d" v) true (Wire.get_u16 b 9 = v))
    [ 0; 1; 255; 256; 0xffff ]

(* The steady-state halo path must not allocate: the scalar codec is
   byte-by-byte precisely so that no Int64 box appears per word. Allow a
   few words of slack for the Gc.minor_words float boxes themselves. *)
let test_codec_alloc_budget () =
  let b = Bytes.create 32 in
  Wire.put_i64 b 0 42;
  ignore (Wire.get_i64 b 0);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Wire.put_i64 b 0 (i * 1_000_003);
    if Wire.get_i64 b 0 <> i * 1_000_003 then assert false;
    Wire.put_u32 b 8 i;
    if Wire.get_u32 b 8 <> i then assert false;
    Wire.put_u16 b 12 (i land 0xffff);
    if Wire.get_u16 b 12 <> i land 0xffff then assert false
  done;
  let dw = Gc.minor_words () -. w0 in
  check (Printf.sprintf "codec allocates nothing (%.0f words)" dw) true
    (dw < 64.)

(* ---------- wire: typed frame round-trips ---------- *)

let mk_frame (pick, a, b, s) =
  let u8 x = x land 0xff
  and u16 x = x land 0xffff
  and u32 x = x land 0xffff_ffff in
  let by = Bytes.of_string s in
  let peers =
    Array.init
      (String.length s mod 5)
      (fun i -> u16 ((Char.code s.[i] * 7) + i))
  in
  match pick mod 6 with
  | 0 ->
    Wire.Prologue
      {
        rank = u16 a;
        size = u16 b;
        entry = u8 a;
        sched = u8 b;
        shape = u16 (a + b);
        slots = u16 ((a * 3) + 1);
        in_peers = peers;
        out_peers = Array.map (fun p -> u16 (p + 1)) peers;
        cuts = List.mapi (fun i p -> (u32 (a + i), p)) (Array.to_list peers);
        shard = by;
      }
  | 1 -> Wire.Halo { round = u32 a; src = u16 b; n = u32 (a + b); payload = by }
  | 2 ->
    Wire.Stats
      {
        round = u32 a;
        src = u16 b;
        active = a - b;
        changed = (a * b) - 7;
        unhalted = -a;
        halo_words = b;
      }
  | 3 -> Wire.Decision { action = 1 + (abs a mod 3); round = u32 b }
  | 4 ->
    Wire.Epilogue
      {
        src = u16 a;
        halo_words = b;
        exchange_rounds = a;
        drops =
          List.mapi (fun i p -> (u32 (b + i), p, a - (i * b))) (Array.to_list peers);
        states = (if b mod 2 = 0 then None else Some by);
      }
  | _ -> Wire.Error_frame { src = u16 a; failure = a mod 2 = 0; message = s }

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips every frame kind"
    ~count:200
    QCheck.(
      quad (int_range 0 5) (int_range 0 1_000_000) (int_range 0 1_000_000)
        string)
    (fun spec -> Wire.decode (Wire.encode (mk_frame spec)) = mk_frame spec)

(* Every frame kind but halo (whose entries run to the end of the
   payload) is self-delimiting: cutting its payload short anywhere, with
   the length prefix patched to match, must raise [Proc_failure], never
   decode a shorter frame. *)
let prop_frame_truncation =
  QCheck.Test.make ~name:"every truncated payload rejected" ~count:100
    QCheck.(
      pair
        (quad (int_range 0 5) (int_range 0 1_000_000) (int_range 0 1_000_000)
           string)
        (int_range 1 1_000))
    (fun (spec, cut) ->
      match mk_frame spec with
      | Wire.Halo _ -> true
      | f ->
        let img = Wire.encode f in
        let body = Bytes.length img - Wire.frame_overhead in
        let keep = Bytes.length img - 1 - (cut mod max 1 body) in
        let short = Bytes.sub img 0 keep in
        Wire.put_u32 short 0 (keep - 4);
        (match Wire.decode short with
        | exception Wire.Proc_failure _ -> true
        | _ -> false))

let test_extreme_stats_roundtrip () =
  let f =
    Wire.Stats
      {
        round = 0xffff_ffff;
        src = 0xffff;
        active = min_int;
        changed = max_int;
        unhalted = -1;
        halo_words = 0;
      }
  in
  check "min_int/max_int stats survive the wire" true
    (Wire.decode (Wire.encode f) = f)

(* ---------- wire: chunked reassembly ---------- *)

let prop_reassembly =
  QCheck.Test.make
    ~name:"Reassembler: arbitrary chunking preserves the stream" ~count:120
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 6)
           (quad (int_range 0 5) (int_range 0 100_000) (int_range 0 100_000)
              string))
        (int_range 0 100_000))
    (fun (specs, chop) ->
      let frames = List.map mk_frame specs in
      let stream =
        Bytes.concat Bytes.empty (List.map Wire.encode frames)
      in
      let total = Bytes.length stream in
      let r = Wire.Reassembler.create () in
      let out = ref [] in
      let pos = ref 0 in
      let i = ref 0 in
      while !pos < total do
        let len = min (1 + ((chop + (!i * 13)) mod 9)) (total - !pos) in
        out := !out @ Wire.Reassembler.feed r stream ~pos:!pos ~len;
        pos := !pos + len;
        incr i
      done;
      !out = frames && Wire.Reassembler.pending r = 0)

let proc_fails f =
  match f () with exception Wire.Proc_failure _ -> true | _ -> false

let test_wire_rejection () =
  let img = Wire.encode (Wire.Decision { action = Wire.a_step; round = 7 }) in
  (* truncated: length prefix promises more than the buffer holds *)
  check "truncated frame rejected" true
    (proc_fails (fun () -> Wire.decode (Bytes.sub img 0 (Bytes.length img - 1))));
  (* bad magic *)
  let bad = Bytes.copy img in
  Bytes.set bad 4 'X';
  check "bad magic rejected" true (proc_fails (fun () -> Wire.decode bad));
  (* version mismatch *)
  let badv = Bytes.copy img in
  Bytes.set badv 7 (Char.chr (Wire.version + 9));
  check "version mismatch rejected" true
    (proc_fails (fun () -> Wire.decode badv));
  (* trailing bytes inside the payload *)
  let fat = Bytes.cat img (Bytes.make 2 '\000') in
  Wire.put_u32 fat 0 (Bytes.length fat - 4);
  check "trailing payload bytes rejected" true
    (proc_fails (fun () -> Wire.decode fat));
  (* the reassembler rejects a malformed header as soon as it is fully
     visible (9 bytes), long before the frame completes *)
  let r = Wire.Reassembler.create () in
  check "reassembler rejects bad magic early" true
    (proc_fails (fun () -> Wire.Reassembler.feed r bad ~pos:0 ~len:9));
  (* an oversized length prefix is refused outright *)
  let huge = Bytes.make 8 '\000' in
  Wire.put_u32 huge 0 (Wire.max_frame_bytes + 1);
  let r2 = Wire.Reassembler.create () in
  check "oversized length prefix rejected" true
    (proc_fails (fun () -> Wire.Reassembler.feed r2 huge ~pos:0 ~len:8))

(* ---------- collective-tree geometry ---------- *)

let shapes =
  [
    Collective.Binomial; Collective.Nary 1; Collective.Nary 2;
    Collective.Nary 3; Collective.Nary 7;
  ]

let test_collective_geometry () =
  List.iter
    (fun shape ->
      let sname = Collective.shape_to_string shape in
      List.iter
        (fun size ->
          check (sname ^ ": root has no parent") true
            (Collective.parent shape 0 = -1);
          let edges = ref 0 in
          for r = 1 to size - 1 do
            let p = Collective.parent shape r in
            check (Printf.sprintf "%s size %d: parent below" sname size) true
              (p >= 0 && p < r);
            check
              (Printf.sprintf "%s size %d: child listed" sname size)
              true
              (List.mem r (Collective.children shape ~size p))
          done;
          for r = 0 to size - 1 do
            let cs = Collective.children shape ~size r in
            check (sname ^ ": children ascending") true
              (List.sort compare cs = cs);
            List.iter
              (fun c ->
                check (sname ^ ": child in range") true (c > r && c < size);
                check (sname ^ ": parent-of-child consistent") true
                  (Collective.parent shape c = r))
              cs;
            edges := !edges + List.length cs
          done;
          (* every non-root rank hangs off exactly one parent: the tree
             spans all of [0, size) *)
          check_int
            (Printf.sprintf "%s size %d: spanning" sname size)
            (max 0 (size - 1))
            !edges)
        [ 1; 2; 3; 5; 8; 16; 33 ])
    shapes

let test_shape_codes_and_env () =
  List.iter
    (fun s ->
      check ("code round-trip " ^ Collective.shape_to_string s) true
        (Collective.shape_of_code (Collective.code_of_shape s) = s))
    shapes;
  check "negative shape code rejected" true
    (match Collective.shape_of_code (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let with_fanout v f =
    Unix.putenv "TL_PROC_FANOUT" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "TL_PROC_FANOUT" "binomial") f
  in
  with_fanout "3" (fun () ->
      check "TL_PROC_FANOUT=3" true
        (Collective.shape_of_env () = Collective.Nary 3));
  with_fanout "binomial" (fun () ->
      check "TL_PROC_FANOUT=binomial" true
        (Collective.shape_of_env () = Collective.Binomial));
  with_fanout "" (fun () ->
      check "TL_PROC_FANOUT empty = default" true
        (Collective.shape_of_env () = Collective.Binomial));
  List.iter
    (fun v ->
      with_fanout v (fun () ->
          check ("TL_PROC_FANOUT=" ^ v ^ " rejected") true
            (match Collective.shape_of_env () with
            | exception Invalid_argument _ -> true
            | _ -> false)))
    [ "0"; "-2"; "wide" ]

(* ---------- shard image codec (the prologue's payload) ---------- *)

let prop_shard_image_roundtrip =
  QCheck.Test.make ~name:"Plan.encode_shard/decode_shard round-trip"
    ~count:40
    QCheck.(
      quad (int_range 2 150) (int_range 0 100_000) (int_range 0 3)
        (int_range 1 8))
    (fun (n, seed, pick, s) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let plan = Plan.build ~topo ~shards:s in
      Array.for_all
        (fun sh -> Plan.decode_shard (Plan.encode_shard sh) = sh)
        plan.Plan.shards)

let test_shard_image_rejection () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 12)) in
  let plan = Plan.build ~topo ~shards:3 in
  let img = Plan.encode_shard plan.Plan.shards.(1) in
  let rejects b =
    match Plan.decode_shard b with
    | exception Invalid_argument m ->
      String.length m >= 18 && String.sub m 0 18 = "Plan.decode_shard:"
    | _ -> false
  in
  check "truncated image rejected" true
    (rejects (Bytes.sub img 0 (Bytes.length img - 3)));
  let bad = Bytes.copy img in
  Bytes.set bad 0 'X';
  check "bad magic rejected" true (rejects bad);
  let badv = Bytes.copy img in
  Bytes.set badv 3 '\009';
  check "bad version rejected" true (rejects badv);
  check "trailing garbage rejected" true
    (rejects (Bytes.cat img (Bytes.make 3 'q')))

(* ---------- the kernel entry point: proc == seq ---------- *)

(* Every proc run below goes through Coordinator.run_kernel, the one
   entry point of a flat kernel; its seq mode (Flat.exec) is the
   reference, and test_engine's flat battery holds that against the
   boxed engine. *)

let scheds = [ Engine.Active_set; Engine.Full_scan ]

let record_key r =
  (r.Trace.round, r.Trace.active, r.Trace.changed, r.Trace.unhalted)

let kernel_run ~mode ?(sched = Engine.Active_set) ?trace ~topo ~kernel_for
    stop =
  Proc.run_kernel ~mode ~sched ?trace ~topo ~kernel_for ~stop ()

(* the outcome and the per-round trace records of one run *)
let traced_run ~mode ~sched ~topo ~kernel_for stop =
  let trace = Trace.create ~label:"diff" () in
  let o = kernel_run ~mode ~sched ~trace ~topo ~kernel_for stop in
  ((o.Flat.slab, o.Flat.rounds), List.map record_key (Trace.records trace))

let proc_matches_seq ~topo ~kernel_for stop =
  List.for_all
    (fun sched ->
      let seq = traced_run ~mode:Engine.Seq ~sched ~topo ~kernel_for stop in
      List.for_all
        (fun p ->
          traced_run ~mode:(Engine.Proc p) ~sched ~topo ~kernel_for stop = seq)
        proc_counts)
    scheds

(* A 2-slot kernel, so the multi-word halo entry runs: slot 0 is
   "reached", slot 1 the hop distance from [source] (-1 while
   unreached). Shard-local like [Proc.Kernels]: [l2g] remaps the
   source. *)
let hops_kernel ?(source = 0) () ~l2g =
  let step (ctx : Flat.ctx) ~scratch:_ ~round:_ ~node =
    let cur = ctx.Flat.cur and nxt = ctx.Flat.nxt and b = node * 2 in
    let best = ref (if cur.(b) = 1 then cur.(b + 1) else -1) in
    if cur.(b) = 0 then
      for j = ctx.Flat.off.(node) to ctx.Flat.off.(node + 1) - 1 do
        let u = ctx.Flat.adj.(j) in
        if cur.(u * 2) = 1 && (!best < 0 || cur.((u * 2) + 1) + 1 < !best)
        then best := cur.((u * 2) + 1) + 1
      done;
    nxt.(b) <- (if !best >= 0 then 1 else 0);
    nxt.(b + 1) <- !best
  in
  {
    Flat.name = "hops";
    slots = 2;
    scratch_words = 0;
    init =
      (fun ~node ~slot ->
        match (l2g.(node) = source, slot) with
        | true, 0 -> 1
        | true, _ -> 0
        | false, 0 -> 0
        | false, _ -> -1);
    step;
    halted = Some (fun ctx ~node -> ctx.Flat.cur.(node * 2) = 1);
  }

(* max-propagation of the ids, for a fixed number of rounds *)
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

(* a one-word kernel from an int step, halted by [halted] *)
let simple ?halted name f ~l2g:_ =
  {
    Flat.name;
    slots = 1;
    scratch_words = 0;
    init = (fun ~node:_ ~slot:_ -> 0);
    step =
      (fun ctx ~scratch:_ ~round ~node ->
        ctx.Flat.nxt.(node) <- f ~round ctx.Flat.cur.(node));
    halted = Option.map (fun h ctx ~node -> h ctx.Flat.cur.(node)) halted;
  }

let prop_flood_differential =
  QCheck.Test.make ~name:"flood: proc == seq (states + records)" ~count:20
    QCheck.(triple (int_range 2 150) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let stop = Engine.Stable (Graph.n_nodes g + 1) in
      proc_matches_seq ~topo ~kernel_for:(Proc.Kernels.flood ()) stop
      && proc_matches_seq ~topo ~kernel_for:(hops_kernel ()) stop)

let prop_mis_differential =
  QCheck.Test.make ~name:"MIS machine: proc == seq" ~count:20
    QCheck.(triple (int_range 2 150) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      proc_matches_seq ~topo
        ~kernel_for:(Proc.Kernels.mis_local_max ~ids)
        (Engine.Halted (n + 1)))

let prop_run_rounds_differential =
  QCheck.Test.make ~name:"run_rounds: proc == seq, exact count" ~count:15
    QCheck.(triple (int_range 2 120) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 5) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 3 + (seed mod 5) in
      let seq =
        kernel_run ~mode:Engine.Seq ~topo ~kernel_for:(max_kernel ids)
          (Engine.Rounds r)
      in
      seq.Flat.rounds = r
      && proc_matches_seq ~topo ~kernel_for:(max_kernel ids) (Engine.Rounds r))

(* the tree shape only changes who forwards what: any fanout must leave
   results and ledgers untouched *)
let test_fanout_invariance () =
  let g = Gen.random_tree ~n:400 ~seed:19 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let flood mode =
    let o =
      kernel_run ~mode ~topo ~kernel_for:(Proc.Kernels.flood ())
        (Engine.Stable 401)
    in
    (o.Flat.slab, o.Flat.rounds)
  in
  let seq = flood Engine.Seq in
  List.iter
    (fun fanout ->
      Unix.putenv "TL_PROC_FANOUT" fanout;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "TL_PROC_FANOUT" "binomial")
        (fun () ->
          check
            (Printf.sprintf "proc:4 fanout %s = seq" fanout)
            true
            (flood (Engine.Proc 4) = seq)))
    [ "1"; "2"; "4"; "binomial" ]

(* ---------- failure parity and worker-crash containment ---------- *)

let failure_message f =
  match f () with exception Failure m -> Some m | _ -> None

let test_failure_parity () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 9)) in
  (* never halts and never changes: the active set drains (Halted) *)
  let frozen =
    simple ~halted:(fun _ -> false) "frozen" (fun ~round:_ s -> s)
  in
  (* flips every round: no fixed point (Stable) *)
  let blinker = simple "blinker" (fun ~round:_ s -> 1 - s) in
  List.iter
    (fun sched ->
      let run mode kernel_for stop () =
        kernel_run ~mode ~sched ~topo ~kernel_for stop
      in
      let cases =
        [
          ( "frozen",
            frozen,
            Engine.Halted 10,
            "Engine.run: max_rounds=10 exceeded" );
          ( "blinker",
            blinker,
            Engine.Stable 7,
            "Engine.run_until_stable: max_rounds=7 exceeded" );
        ]
      in
      List.iter
        (fun (what, kernel_for, stop, text) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s seq text (%s)" what
               (Engine.sched_to_string sched))
            (Some text)
            (failure_message (run Engine.Seq kernel_for stop));
          List.iter
            (fun p ->
              Alcotest.(check (option string))
                (Printf.sprintf "%s parity proc:%d (%s)" what p
                   (Engine.sched_to_string sched))
                (Some text)
                (failure_message (run (Engine.Proc p) kernel_for stop)))
            proc_counts)
        cases)
    scheds

(* a flood kernel whose step raises at one node in round 2 *)
let boom ~at ~l2g =
  let k = Proc.Kernels.flood () ~l2g in
  {
    k with
    Flat.step =
      (fun ctx ~scratch ~round ~node ->
        if round = 2 && l2g.(node) = at then failwith "boom";
        k.Flat.step ctx ~scratch ~round ~node);
  }

let no_zombies () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let test_worker_crash_containment () =
  let n = 200 in
  let topo =
    Topology.compile (Semi_graph.of_graph (Gen.random_tree ~n ~seed:31))
  in
  List.iter
    (fun (sched, stop) ->
      List.iter
        (fun p ->
          let what =
            Printf.sprintf "proc:%d %s" p (Engine.sched_to_string sched)
          in
          (* a worker-side exception mid-run must surface as the same
             Failure the sequential stepper raises... *)
          Alcotest.(check (option string))
            (what ^ ": worker exception surfaces verbatim")
            (Some "boom")
            (failure_message (fun () ->
                 kernel_run ~mode:(Engine.Proc p) ~sched ~topo
                   ~kernel_for:(boom ~at:(n / 2)) stop));
          (* ...and leave nothing behind: every worker reaped *)
          check (what ^ ": no zombie workers after a crashed run") true
            (no_zombies ()))
        proc_counts)
    [
      (Engine.Full_scan, Engine.Rounds 4);
      (Engine.Full_scan, Engine.Stable (n + 1));
      (Engine.Full_scan, Engine.Halted (n + 1));
    ];
  Alcotest.(check (option string))
    "seq raises the same Failure" (Some "boom")
    (failure_message (fun () ->
         kernel_run ~mode:Engine.Seq ~sched:Engine.Full_scan ~topo
           ~kernel_for:(boom ~at:(n / 2)) (Engine.Rounds 4)));
  (* a healthy run right after the crash works on the same topology *)
  let o =
    kernel_run ~mode:(Engine.Proc 4) ~topo
      ~kernel_for:(simple "count" (fun ~round:_ s -> s + 1))
      (Engine.Rounds 3)
  in
  check_int "backend recovers after a crash" 3 o.Flat.rounds;
  check "every node counted three rounds" true
    (Array.for_all (fun s -> s = 3) o.Flat.slab)

(* A kernel that cannot run under its stop policy — no halting predicate
   under Halted, no state words — is refused before any worker forks. *)
let test_rejected_pairings () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 3)) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let refused what kernel_for stop needle =
    match kernel_run ~mode:(Engine.Proc 2) ~topo ~kernel_for stop with
    | exception Invalid_argument m ->
      check (what ^ " names it") true (contains m needle)
    | _ -> Alcotest.failf "%s must be refused" what
  in
  refused "a halted-less kernel under Halted"
    (simple "blinker" (fun ~round:_ s -> 1 - s))
    (Engine.Halted 5) "halted";
  refused "a zero-slot kernel"
    (fun ~l2g ->
      { (simple "empty" (fun ~round:_ s -> s) ~l2g) with Flat.slots = 0 })
    (Engine.Stable 5) "slots";
  check "nothing forked" true (no_zombies ())

(* A prologue announcing zero state words per node is refused by the
   worker with an error frame, which the coordinator raises as
   Proc_failure. *)
let test_zero_slot_prologue () =
  let c, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let plan =
    Plan.build ~topo:(Topology.compile (Semi_graph.of_graph (Gen.path 4)))
      ~shards:1
  in
  match Unix.fork () with
  | 0 ->
    Unix.close c;
    Tl_proc.Worker.serve ~rank:0 ~coord:w ~chans:[||] ~body:(fun _ ->
        Unix._exit 3)
  | pid ->
    Unix.close w;
    let img =
      Wire.encode
        (Wire.Prologue
           {
             rank = 0;
             size = 1;
             entry = 1;
             sched = 0;
             shape = 0;
             slots = 0;
             in_peers = [||];
             out_peers = [||];
             cuts = [];
             shard = Plan.encode_shard plan.Plan.shards.(0);
           })
    in
    Tl_proc.Transport.send_frame c img (Bytes.length img);
    let reply =
      Tl_proc.Transport.recv_typed c (Tl_proc.Transport.Buf.create 64)
    in
    let _, status = Unix.waitpid [] pid in
    Unix.close c;
    (match reply with
    | Wire.Error_frame { failure = false; message; _ } ->
      check "the error names the slots" true
        (String.length message > 0
        && (let rec has i =
              i + 5 <= String.length message
              && (String.sub message i 5 = "slots" || has (i + 1))
            in
            has 0))
    | _ -> Alcotest.fail "expected a non-Failure error frame");
    check "worker exits non-zero" true (status = Unix.WEXITED 2)

let test_empty_present_set () =
  let g = Gen.path 4 in
  let topo =
    Topology.compile (Semi_graph.of_node_subset g (Array.make 4 false))
  in
  let count =
    simple ~halted:(fun _ -> false) "count" (fun ~round:_ s -> s + 1)
  in
  List.iter
    (fun p ->
      List.iter
        (fun (what, stop, want) ->
          let o =
            kernel_run ~mode:(Engine.Proc p) ~topo ~kernel_for:count stop
          in
          check_int
            (Printf.sprintf "empty view: %s proc:%d" what p)
            want o.Flat.rounds)
        [
          ("Halted costs 0 rounds", Engine.Halted 5, 0);
          ("Stable costs 0 rounds", Engine.Stable 5, 0);
          ("Rounds counts its rounds", Engine.Rounds 3, 3);
        ])
    proc_counts

(* ---------- mode strings ---------- *)

let test_mode_strings () =
  List.iter
    (fun m ->
      check
        ("round-trip " ^ Engine.mode_to_string m)
        true
        (Engine.mode_of_string (Engine.mode_to_string m) = m))
    [ Engine.Proc 1; Engine.Proc 2; Engine.Proc 16 ];
  (* the count is part of the mode: a bare "proc" names proc:<n> back *)
  (match Engine.mode_of_string "proc" with
  | exception Invalid_argument msg ->
    check "bare \"proc\" rejected, naming proc:<n>" true
      (let rec find i =
         i + 8 <= String.length msg
         && (String.sub msg i 8 = "proc:<n>" || find (i + 1))
       in
       find 0)
  | _ -> Alcotest.fail "a bare \"proc\" must be rejected");
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (match Engine.mode_of_string s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "proc:0"; "proc:x"; "proc:"; "shard"; "shard:2" ]

(* ---------- flat kernels over the wire ---------- *)

let test_flat_proc_parity () =
  let n = 400 in
  let identity = Array.init n Fun.id in
  let same what (o : Flat.outcome) (want : Flat.outcome) =
    check what true
      (o.Flat.slab = want.Flat.slab && o.Flat.rounds = want.Flat.rounds)
  in
  List.iter
    (fun (gname, g) ->
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let ids = Ids.permuted ~n ~seed:14 in
      List.iter
        (fun sched ->
          let tag p kernel =
            Printf.sprintf "%s %s %s proc:%d = flat seq" gname
              (Engine.sched_to_string sched) kernel p
          in
          let seq_flood =
            Flat.exec ~sched ~topo ~kernel:(Flat.Kernels.flood ())
              ~stop:(Engine.Halted (n + 1)) ()
          in
          let seq_mis =
            Flat.exec ~sched ~topo
              ~kernel:(Flat.Kernels.mis_local_max ~ids)
              ~stop:(Engine.Stable (n + 1)) ()
          in
          let seq_hops =
            Flat.exec ~sched ~topo
              ~kernel:(hops_kernel () ~l2g:identity)
              ~stop:(Engine.Stable (n + 1)) ()
          in
          List.iter
            (fun p ->
              let proc kernel_for stop =
                kernel_run ~mode:(Engine.Proc p) ~sched ~topo ~kernel_for stop
              in
              same (tag p "flood")
                (proc (Proc.Kernels.flood ()) (Engine.Halted (n + 1)))
                seq_flood;
              same (tag p "MIS")
                (proc (Proc.Kernels.mis_local_max ~ids) (Engine.Stable (n + 1)))
                seq_mis;
              same (tag p "2-slot hops")
                (proc (hops_kernel ()) (Engine.Stable (n + 1)))
                seq_hops)
            proc_counts;
          (* and the flat path agrees with the naive oracle, column for
             column *)
          let naive =
            Naive.run_until_stable ~topo
              ~init:(fun _ -> 0)
              ~step:(Naive.mis_step ids) ~equal:Int.equal ~max_rounds:(n + 1)
          in
          check (gname ^ " flat column = naive oracle states") true
            (Flat.column seq_mis ~slot:0 = naive.Naive.states
            && seq_mis.Flat.rounds = naive.Naive.rounds))
        scheds)
    [ ("random tree", Gen.random_tree ~n ~seed:13); ("path", Gen.path n) ]

(* Proc runs deliver one engine trace each, stamped proc:N, whose
   per-round records are Flat.exec's. *)
let test_flat_proc_traces () =
  let n = 400 in
  let topo =
    Topology.compile (Semi_graph.of_graph (Gen.random_tree ~n ~seed:17))
  in
  let want stop =
    let trace = Trace.create () in
    ignore (Flat.exec ~trace ~topo ~kernel:(Flat.Kernels.flood ()) ~stop ());
    List.map record_key (Trace.records trace)
  in
  let delivered f =
    let got = ref [] in
    let saved = !Engine.trace_sink in
    Engine.trace_sink := Some (fun t -> got := t :: !got);
    Fun.protect ~finally:(fun () -> Engine.trace_sink := saved) f;
    !got
  in
  List.iter
    (fun p ->
      List.iter
        (fun (what, stop) ->
          let records = want stop in
          match
            delivered (fun () ->
                ignore
                  (kernel_run ~mode:(Engine.Proc p) ~topo
                     ~kernel_for:(Proc.Kernels.flood ()) stop))
          with
          | [ t ] ->
            check (Printf.sprintf "%s proc:%d trace mode" what p) true
              (Trace.mode t = Printf.sprintf "proc:%d" p);
            check (Printf.sprintf "%s proc:%d records = Flat" what p) true
              (List.map record_key (Trace.records t) = records)
          | ts ->
            Alcotest.failf "%s proc:%d: %d traces delivered, want 1" what p
              (List.length ts))
        [
          ("Halted", Engine.Halted (n + 1));
          ("Stable", Engine.Stable (n + 1));
          ("Rounds", Engine.Rounds 7);
        ])
    proc_counts

(* ---------- spans: the per-worker observability contract ---------- *)

let rec find_spans pred s =
  let here = if pred s then [ s ] else [] in
  here @ List.concat_map (find_spans pred) (Span.children s)

let test_proc_spans () =
  let g = Gen.random_tree ~n:500 ~seed:11 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let (), root =
    Span.run "proc-span-test" (fun () ->
        ignore
          (kernel_run ~mode:(Engine.Proc 4) ~topo
             ~kernel_for:(Proc.Kernels.flood ()) (Engine.Stable 501)))
  in
  let rank_spans =
    find_spans
      (fun s ->
        List.mem (Span.name s) [ "proc:0"; "proc:1"; "proc:2"; "proc:3" ])
      root
  in
  check_int "one child span per worker" 4 (List.length rank_spans);
  List.iter
    (fun s ->
      let c = Span.counters s in
      List.iter
        (fun key ->
          check
            (Printf.sprintf "%s carries %s" (Span.name s) key)
            true (List.mem_assoc key c))
        [
          "proc:owned"; "proc:halo"; "proc:cut_edges"; "proc:halo_words";
          "proc:imbalance"; "proc:exchange_rounds";
        ])
    rank_spans;
  let root_counters = Span.counters root in
  check_int "aggregate proc count" 4 (List.assoc "proc:procs" root_counters);
  check "halo traffic at least cut size" true
    (List.assoc "proc:halo_words" root_counters
    >= List.assoc "proc:cut_edges" root_counters / 2)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "tl_proc"
    [
      ( "wire",
        [
          Alcotest.test_case "scalar codec round-trips" `Quick
            test_scalar_codec;
          Alcotest.test_case "scalar codec allocation budget" `Quick
            test_codec_alloc_budget;
          Alcotest.test_case "extreme stats round-trip" `Quick
            test_extreme_stats_roundtrip;
          Alcotest.test_case "malformed input rejected" `Quick
            test_wire_rejection;
        ]
        @ qsuite [ prop_frame_roundtrip; prop_frame_truncation; prop_reassembly ]
      );
      ( "collective",
        [
          Alcotest.test_case "tree geometry" `Quick test_collective_geometry;
          Alcotest.test_case "shape codes and TL_PROC_FANOUT" `Quick
            test_shape_codes_and_env;
        ] );
      ( "plan-codec",
        qsuite [ prop_shard_image_roundtrip ]
        @ [
            Alcotest.test_case "malformed shard image rejected" `Quick
              test_shard_image_rejection;
          ] );
      ( "differential",
        qsuite
          [
            prop_flood_differential;
            prop_mis_differential;
            prop_run_rounds_differential;
          ]
        @ [
            Alcotest.test_case "fanout invariance" `Quick
              test_fanout_invariance;
            Alcotest.test_case "flat kernels over the wire" `Quick
              test_flat_proc_parity;
            Alcotest.test_case "flat runs deliver their traces" `Quick
              test_flat_proc_traces;
          ] );
      ( "failure",
        [
          Alcotest.test_case "max_rounds and stall parity" `Quick
            test_failure_parity;
          Alcotest.test_case "worker crash containment" `Quick
            test_worker_crash_containment;
          Alcotest.test_case "rejected pairings" `Quick
            test_rejected_pairings;
          Alcotest.test_case "zero-slot prologue refused" `Quick
            test_zero_slot_prologue;
          Alcotest.test_case "empty present set" `Quick
            test_empty_present_set;
        ] );
      ( "api",
        [
          Alcotest.test_case "mode strings" `Quick test_mode_strings;
        ] );
      ( "obs",
        [ Alcotest.test_case "per-worker spans" `Quick test_proc_spans ] );
    ]
