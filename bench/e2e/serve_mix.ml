(* The serve-mix workload: the real tree_local_serve daemon, default
   config, driven over its stdio pipes by one single-threaded client.

   Requests name random trees of [n] nodes. They come in blocks of 8 with
   a fixed composition — 4 mis, 2 edge-coloring (the Theorem 3 path,
   a = 1), 2 flood; 2 fresh instances (instance-cache misses: one mis,
   one edge-coloring or flood by turns) and 6 drawn from 4 hot ones — so
   every stretch of the stream carries the same mix, cache misses
   included. Neither the instances nor the arrival times depend on the
   seed, which shuffles the order within each block: every seed does the
   same work. A run of T seconds plays T blocks; from 15 blocks on, the
   fresh instances overflow the daemon's 32-slot FIFO instance cache and
   evict the hot ones.

   Every pass plays the whole sequence on a fresh daemon, so every pass
   meets the same cache states; a request's latency is its fastest pass.
   The closed loop keeps one request in flight. The open loop sends each
   request at its Poisson due time and times it from then, so a stall
   also charges the requests queued behind it; it is what exercises the
   daemon's job queue and batching. The daemon answers a batch only when
   the whole batch is done, so an open-loop request's latency depends on
   which batch it lands in, and it takes more passes than the closed
   loop to find each request's fast one.

   A traced run plays the open loop twice, without and with the
   per-request span report, and derives the per-layer numbers from the
   second. *)

module P = Tl_serve.Protocol
module Json = Tl_obs.Json
module Prng = Tl_graph.Gen.Prng

let default_n = 2_000

(* Open-loop arrivals: a fifth of the ~240 req/s closed-loop capacity at
   n = 2,000 measured on a 2-core x86-64 VM. The Poisson clumps still
   queue and batch requests, but the tail stays measurable: at 40-65%
   of capacity the same host moved the p90 by 20-50% between runs. One
   schedule (generator seed [arrival_seed]) serves every run. *)
let rate = 50.0
let arrival_seed = 1
let hot_seeds = 4
let block = 8
let open_passes = 5
let closed_passes = 3
let now = Unix.gettimeofday

type req = { rid : string; problem : string; inst : int }

(* Spec seeds of the instances: hot instance i is 1 + i mod 4, fresh
   instance j is 1000 + j. *)
let hot i = 1 + (i mod hot_seeds)
let fresh j = 1000 + j

let requests ~seed ~blocks =
  let prng = Prng.create ((seed * 7919) + 17) in
  Array.concat
    (List.init blocks (fun b ->
         (* the fresh edge-coloring and flood requests alternate blocks,
            and the hot instances rotate over the slots *)
         let even = b mod 2 = 0 in
         let slots =
           [| ("mis", fresh (2 * b)); ("mis", hot b); ("mis", hot (b + 1));
              ("mis", hot (b + 2));
              ("edge-coloring", if even then fresh ((2 * b) + 1) else hot (b + 3));
              ("edge-coloring", hot b);
              ("flood", if even then hot (b + 1) else fresh ((2 * b) + 1));
              ("flood", hot (b + 2)) |]
         in
         Prng.shuffle prng slots;
         Array.mapi
           (fun i (problem, inst) -> { rid = string_of_int ((block * b) + i); problem; inst })
           slots))

let request_json ~n ~want_span r =
  P.request_to_json
    (P.request ~id:r.rid ~problem:r.problem
       ~spec:(P.Family { family = "random-tree"; n; seed = r.inst; a = 1; delta = 8 })
       ~want_span ())

(* ---------- the daemon over pipes ---------- *)

type daemon = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  err : Unix.file_descr;  (** the daemon's stderr *)
  pending : Buffer.t;  (** bytes received after the last complete line *)
}

(* The caller's environment with v=0x400 added to OCAMLRUNPARAM: the
   OCaml runtime then prints its GC counters, top_heap_words among them,
   to stderr at exit. It changes nothing else. *)
let daemon_env =
  lazy
    (let key = "OCAMLRUNPARAM=" in
     let env = Array.to_list (Unix.environment ()) in
     let is_key = String.starts_with ~prefix:key in
     let params =
       match List.find_opt is_key env with
       | Some e when String.length e > String.length key -> e ^ ",v=0x400"
       | _ -> key ^ "v=0x400"
     in
     Array.of_list (params :: List.filter (fun e -> not (is_key e)) env))

(* Daemons spawned and not yet reaped. A run that fails midway kills
   and reaps them at exit, so no daemon outlives the benchmark. *)
let live = ref []

let reap pid =
  let status = snd (Unix.waitpid [] pid) in
  live := List.filter (( <> ) pid) !live;
  status

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (reap pid) with Unix.Unix_error _ -> ())
        !live)

let spawn path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env path [| path |] (Lazy.force daemon_env) in_r out_w err_w
  in
  live := pid :: !live;
  List.iter Unix.close [ in_r; out_w; err_w ];
  { pid; to_d = in_w; from_d = out_r; err = err_r; pending = Buffer.create 65536 }

let send d j = Tl_proc.Transport.write_string d.to_d (Json.to_line j)

let take_lines d =
  let s = Buffer.contents d.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear d.pending;
    Buffer.add_substring d.pending s (last + 1) (String.length s - last - 1);
    String.split_on_char '\n' (String.sub s 0 last)

let chunk = Bytes.create 65536

let rec select_in fd timeout =
  try Unix.select [ fd ] [] [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_in fd timeout

(* Complete lines already buffered, else whatever arrives within
   [timeout] seconds (possibly nothing). *)
let read_lines d ~timeout =
  match take_lines d with
  | _ :: _ as lines -> lines
  | [] -> (
    match select_in d.from_d timeout with
    | [], _, _ -> []
    | _ ->
      let k = Tl_proc.Transport.read_some d.from_d chunk 0 (Bytes.length chunk) in
      if k = 0 then failwith "serve-mix: the daemon closed its output";
      Buffer.add_subbytes d.pending chunk 0 k;
      take_lines d)

let decode line =
  match P.response_of_json (Json.parse line) with
  | Ok r -> r
  | Error msg -> failwith ("serve-mix: bad response: " ^ msg)

(* Wait for the reply to [rid]; nothing else may be in flight. *)
let await d rid =
  let deadline = now () +. 120. in
  let rec go () =
    if now () > deadline then failwith ("serve-mix: no reply to " ^ rid);
    match read_lines d ~timeout:1.0 with
    | [] -> go ()
    | [ line ] ->
      let r = decode line in
      if r.P.rid <> rid then failwith ("serve-mix: unexpected reply " ^ r.P.rid);
      r.P.outcome
    | _ -> failwith "serve-mix: more replies than requests"
  in
  go ()

let control d id c =
  send d (P.control_to_json ~id c);
  await d id

(* What the daemon writes to stderr until it exits and so closes it; a
   daemon still running 30 s after acknowledging shutdown is killed. *)
let stderr_until_exit d =
  let buf = Buffer.create 1024 in
  let deadline = now () +. 30. in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. then failwith "serve-mix: the daemon did not exit after shutdown";
    match select_in d.err left with
    | [], _, _ -> go ()
    | _ ->
      let k = Tl_proc.Transport.read_some d.err chunk 0 (Bytes.length chunk) in
      if k > 0 then begin
        Buffer.add_subbytes buf chunk 0 k;
        go ()
      end
  in
  go ();
  Buffer.contents buf

(* The daemon's stderr after exit: its top heap in MiB, out of the GC
   counters v=0x400 prints; every other line is passed on to stderr. *)
let top_heap_of_stderr text =
  let gc_counter line =
    match String.index_opt line ':' with
    | Some i ->
      String.for_all (fun c -> c = '_' || (c >= 'a' && c <= 'z')) (String.sub line 0 i)
      && Float.of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         <> None
    | None -> false
  in
  let top = ref None in
  List.iter
    (fun line ->
      if gc_counter line then
        Scanf.sscanf_opt line "top_heap_words: %d" Fun.id
        |> Option.iter (fun w -> top := Some w)
      else if line <> "" then prerr_endline line)
    (String.split_on_char '\n' text);
  match !top with
  | Some words -> float_of_int (words * (Sys.word_size / 8)) /. 1048576.
  | None -> failwith "serve-mix: the daemon printed no top_heap_words at exit"

(* Read the shutdown reply before closing the pipes, then require a
   clean exit: a client that closes first makes the daemon die on
   EPIPE, which would be the benchmark's fault, not the daemon's.
   Returns the daemon's top heap in MiB. *)
let shutdown d =
  ignore (control d "bye" P.Shutdown);
  Unix.close d.to_d;
  Unix.close d.from_d;
  let err =
    Fun.protect ~finally:(fun () -> Unix.close d.err) (fun () -> stderr_until_exit d)
  in
  match reap d.pid with
  | Unix.WEXITED 0 -> top_heap_of_stderr err
  | Unix.WEXITED c -> failwith (Printf.sprintf "serve-mix: daemon exited with %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failwith (Printf.sprintf "serve-mix: daemon killed by signal %d" s)

(* Spawn -> first pong, [times] times; the last daemon stays up. *)
let setup path ~times =
  let rec go i acc =
    let t0 = now () in
    let d = spawn path in
    (match control d "hello" P.Ping with
    | P.Pong -> ()
    | _ -> failwith "serve-mix: ping not answered with pong");
    let acc = (now () -. t0) :: acc in
    if i = times then (Array.of_list acc, d)
    else begin
      ignore (shutdown d);
      go (i + 1) acc
    end
  in
  go 1 []

(* ---------- load phases ---------- *)

type served = {
  req : req;
  latency_s : float;  (** due (open loop) or send (closed loop) to reply *)
  reply : P.outcome;
}

type open_result = {
  daemon : daemon;  (** still running *)
  served : served array;
  due_at : float array;  (** absolute due times *)
  late_max_s : float;
  backlog_max : int;
}

let open_loop d ~n ~reqs ~due ~want_span =
  let m = Array.length reqs in
  let index = Hashtbl.create m in
  Array.iteri (fun i r -> Hashtbl.replace index r.rid i) reqs;
  let recv = Array.make m nan and reply = Array.make m None in
  let t0 = now () in
  let deadline = t0 +. (if m = 0 then 0. else due.(m - 1)) +. 120. in
  let next = ref 0 and got = ref 0 and late = ref 0. and backlog = ref 0 in
  while !got < m do
    if now () > deadline then failwith "serve-mix: the daemon stopped answering";
    while !next < m && due.(!next) <= now () -. t0 do
      let i = !next in
      send d (request_json ~n ~want_span reqs.(i));
      late := Float.max !late (now () -. t0 -. due.(i));
      incr next;
      backlog := max !backlog (!next - !got)
    done;
    let timeout =
      if !next < m then Float.max 0. (due.(!next) -. (now () -. t0)) else 1.0
    in
    List.iter
      (fun line ->
        let r = decode line in
        match Hashtbl.find_opt index r.P.rid with
        | Some i when reply.(i) = None ->
          recv.(i) <- now () -. t0;
          reply.(i) <- Some r.P.outcome;
          incr got
        | _ -> failwith ("serve-mix: unexpected reply " ^ r.P.rid))
      (read_lines d ~timeout)
  done;
  {
    daemon = d;
    served =
      Array.mapi
        (fun i req ->
          { req; latency_s = recv.(i) -. due.(i); reply = Option.get reply.(i) })
        reqs;
    due_at = Array.map (fun t -> t0 +. t) due;
    late_max_s = !late;
    backlog_max = !backlog;
  }

(* Closed loop: one request in flight, timed from its send. *)
let serve_one d ~n req =
  let ts = now () in
  send d (request_json ~n ~want_span:false req);
  let reply = await d req.rid in
  { req; latency_s = now () -. ts; reply }

(* ---------- correctness ---------- *)

let solved s = match s.reply with P.Solved r -> Some r | _ -> None
let ok s = match solved s with Some r -> r.P.valid | None -> false

(* Served results are deterministic: one (problem, instance) pair must
   always come back with one digest and one round count, cached or
   not. *)
let check_outcomes served =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun s ->
      match solved s with
      | None -> ()
      | Some r -> (
        let key = (s.req.problem, s.req.inst) and v = (r.P.digest, r.P.total_rounds) in
        match Hashtbl.find_opt seen key with
        | None -> Hashtbl.add seen key v
        | Some v' when v' = v -> ()
        | Some _ ->
          failwith
            (Printf.sprintf "serve-mix: %s on instance %d served two results"
               s.req.problem s.req.inst)))
    served

let count_failed served =
  Array.fold_left (fun acc s -> if ok s then acc else acc + 1) 0 served

(* ---------- metrics ---------- *)

let ms x = 1000. *. x
let latencies served = Array.map (fun s -> s.latency_s) served

let p50_ms_where served pred =
  match List.filter pred (Array.to_list served) with
  | [] -> 0.
  | l -> ms (Stats.median (latencies (Array.of_list l)))

(* Elapsed seconds of a named child of a response's span report. *)
let span_child name (r : P.solved) =
  match r.P.span with
  | None -> None
  | Some report ->
    let children =
      Option.bind (Json.member "span" report) (Json.member "children")
      |> Fun.flip Option.bind Json.to_list
      |> Option.value ~default:[]
    in
    List.find_map
      (fun c ->
        if Option.bind (Json.member "name" c) Json.to_str = Some name then
          Option.bind (Json.member "elapsed_s" c) Json.to_float
        else None)
      children

let server_s (r : P.solved) =
  match r.P.span with
  | None -> failwith "serve-mix: traced reply without a span report"
  | Some report -> (
    match
      Option.bind (Json.member "span" report) (Json.member "elapsed_s")
      |> Fun.flip Option.bind Json.to_float
    with
    | Some s -> s
    | None -> failwith "serve-mix: span report without elapsed_s")

let mean_child served name =
  let xs =
    Array.to_list served |> List.filter_map solved |> List.filter_map (span_child name)
  in
  Stats.mean (Array.of_list xs)

let stat kvs key = float_of_int (Option.value ~default:0 (List.assoc_opt key kvs))

let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.

(* Per-layer metrics of a traced open-loop phase in which every request
   was served. The daemon reports each request's server-side span. The
   daemon builds a missed instance before it opens that span, so only on
   a cache hit is the rest of the client-measured latency queueing
   alone (pipe, admission, waiting behind earlier requests); on a miss
   it is queueing plus the instance build. *)
let layer_metrics ~gen_s ~(o : open_result) ~stats ~overhead ~peak_rss_mb =
  let served = Array.map (fun s -> (s, Option.get (solved s))) o.served in
  let server = Array.map (fun (_, r) -> server_s r) served in
  let hit i = (snd served.(i)).P.cache_hit in
  Array.iteri
    (fun i s ->
      let start = o.due_at.(i) and stop = o.due_at.(i) +. s.latency_s in
      let rid = s.req.rid in
      let parent = Tracer.add ~rid "serve.request" ~start ~stop in
      let outside = if hit i then "serve.queue" else "serve.queue+build" in
      ignore (Tracer.add ~rid ~parent outside ~start ~stop:(stop -. server.(i)));
      ignore (Tracer.add ~rid ~parent "serve.server" ~start:(stop -. server.(i)) ~stop))
    o.served;
  let queue =
    List.filter_map
      (fun i -> if hit i then Some (o.served.(i).latency_s -. server.(i)) else None)
      (List.init (Array.length served) Fun.id)
    |> Array.of_list
  in
  let queue_ms q = if queue = [||] then 0. else ms (Stats.quantile queue q) in
  let hits = Array.length queue in
  let cache_hit s = (Option.get (solved s)).P.cache_hit in
  [
    ("graph.gen_s", gen_s);
    ("decompose.s", mean_child o.served "decompose");
    ("base.s", mean_child o.served "base");
    ("gather.s", mean_child o.served "gather-solve");
    ("stars.s", mean_child o.served "stars");
    ("validate.s", mean_child o.served "validate");
    ("peak_rss_mb", peak_rss_mb);
    ("trace.solve_s", Stats.median server);
    ("trace.overhead_frac", overhead);
    ("serve.queue_ms_p50", queue_ms 0.5);
    ("serve.queue_ms_p90", queue_ms 0.9);
    ("serve.server_ms_p50", ms (Stats.median server));
    ("serve.mis.p50_ms", p50_ms_where o.served (fun s -> s.req.problem = "mis"));
    ( "serve.edge-coloring.p50_ms",
      p50_ms_where o.served (fun s -> s.req.problem = "edge-coloring") );
    ("serve.flood.p50_ms", p50_ms_where o.served (fun s -> s.req.problem = "flood"));
    ("serve.cold.p50_ms", p50_ms_where o.served (fun s -> not (cache_hit s)));
    ("serve.warm.p50_ms", p50_ms_where o.served cache_hit);
    ("serve.p99_ms", ms (Stats.quantile (latencies o.served) 0.99));
    ( "serve.cache_hit_ratio",
      float_of_int hits /. float_of_int (max 1 (Array.length served)) );
    ("serve.batches", stat stats "batches");
    ("serve.max_batch", stat stats "max_batch");
    ( "serve.topo_cache_hit_ratio",
      ratio (stat stats "topo:cache_hit") (stat stats "topo:cache_miss") );
    ("serve.gen_late_ms_max", ms o.late_max_s);
    ("serve.backlog_max", float_of_int o.backlog_max);
  ]

(* Client-side cost of building one instance of this size (Gen + Ids),
   the work a cache miss adds in the daemon. *)
let gen_seconds ~n =
  let times =
    Array.init 3 (fun i ->
        let t0 = now () in
        let g = Tl_graph.Gen.random_tree ~n ~seed:(fresh i) in
        ignore (Tl_local.Ids.permuted ~n:(Tl_graph.Graph.n_nodes g) ~seed:(fresh i + 1));
        now () -. t0)
  in
  Stats.median times

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** end-to-end, or per-layer if traced *)
}

let run ~daemon ~n ~seed ~seconds ~traced =
  let reqs = requests ~seed ~blocks:(max 1 (int_of_float seconds)) in
  let due = Stats.poisson_arrivals ~seed:arrival_seed ~rate ~count:(Array.length reqs) in
  let setup_times, first = setup daemon ~times:7 in
  let first = ref (Some first) in
  let fresh_daemon () =
    match !first with
    | Some d ->
      first := None;
      d
    | None -> spawn daemon
  in
  let open_pass ~want_span = open_loop (fresh_daemon ()) ~n ~reqs ~due ~want_span in
  if not traced then begin
    (* the loops take turns, so that a slow stretch of the host costs
       both alike *)
    let closed = ref [] and opened = ref [] in
    for i = 1 to open_passes do
      if i <= closed_passes then begin
        let d = fresh_daemon () in
        let c = Array.map (serve_one d ~n) reqs in
        closed := (c, shutdown d) :: !closed
      end;
      let o = open_pass ~want_span:false in
      opened := (o.served, shutdown o.daemon) :: !opened
    done;
    let closed = List.rev !closed and opened = List.rev !opened in
    let all = Array.concat (List.map fst closed @ List.map fst opened) in
    check_outcomes all;
    let fastest runs = Stats.fastest_per_request (List.map (fun (r, _) -> latencies r) runs) in
    let solve = fastest closed and open_ = fastest opened in
    let local_rounds =
      Array.fold_left
        (fun acc s -> match solved s with Some r -> acc + r.P.total_rounds | None -> acc)
        0
        (fst (List.hd closed))
    in
    {
      attempted = Array.length all;
      failed = count_failed all;
      metrics =
        [
          ("setup_s", Stats.median setup_times);
          ("solve_s", Stats.median solve);
          ("request_p50_ms", ms (Stats.quantile open_ 0.5));
          ("request_p90_ms", ms (Stats.quantile open_ 0.9));
          ("capacity_rps", float_of_int (Array.length solve) /. Array.fold_left ( +. ) 0. solve);
          ("top_heap_mb", Stats.median (Array.of_list (List.map snd (closed @ opened))));
          ("local_rounds", float_of_int local_rounds);
        ];
    }
  end
  else begin
    let plain = open_pass ~want_span:false in
    ignore (shutdown plain.daemon);
    let o = open_pass ~want_span:true in
    let d = o.daemon in
    let stats =
      match control d "stats" P.Stats with
      | P.Stats_report kvs -> kvs
      | _ -> failwith "serve-mix: stats not answered with a report"
    in
    let peak_rss_mb = Tracer.peak_rss_mb (string_of_int d.pid) in
    ignore (shutdown d);
    let all = Array.append plain.served o.served in
    check_outcomes all;
    let failed = count_failed all in
    let p50 o = Stats.median (latencies o.served) in
    {
      attempted = Array.length all;
      failed;
      metrics =
        (if failed > 0 then []
         else
           layer_metrics ~gen_s:(gen_seconds ~n) ~o ~stats ~peak_rss_mb
             ~overhead:((p50 o /. p50 plain) -. 1.));
    }
  end
