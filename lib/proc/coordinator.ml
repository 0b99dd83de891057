(* The coordinator side of the process backend.

   Forks one worker process per shard, ships each its Plan sub-CSR once
   via the prologue frame, then drives rounds from the stats totals the
   collective tree delivers: decision down (step / stop), local step +
   halo exchange in the workers, stats allreduce up. The decisions come
   from the shared Engine.drive round loop, so labelings, round counts,
   trace records and failure messages are bit-identical to the other
   backends for any (procs, shards).

   Worker lifecycle is owned here: a Fun.protect finally reaps every
   child on every exit path — orderly completion, max_rounds failure,
   worker crash, coordinator exception — so no run leaves zombies, and
   an abnormal worker exit surfaces as Proc_failure with the wait
   status. *)

module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Topology = Tl_engine.Topology
module Trace = Tl_engine.Trace
module Team = Tl_engine.Team
module Plan = Tl_shard.Plan
module Local = Tl_shard.Local

let now = Unix.gettimeofday

(* ---------- cluster plumbing ---------- *)

let wait_status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with status %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* A worker raised: [Failure] from the user's step function is re-raised
   as [Failure] (parity with the in-process backends); everything else —
   wire violations, worker bugs — becomes [Proc_failure]. *)
exception Worker_failure of string

let select_read ?(timeout = -1.) fds =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Per-wait receive timeout (the keepalive half of contact tracking): a
   hung worker — stuck step function, deadlocked exchange — surfaces as
   a clear [Proc_failure "timeout ..."] instead of blocking the
   coordinator forever. Configured by TL_PROC_TIMEOUT_MS (milliseconds,
   > 0); unset, non-numeric or non-positive values keep the legacy
   block-forever behavior. The deadline is re-derived per frame wait and
   enforced across select wakeups, so EINTR's empty ready set (which
   [select_read] returns) never counts as a timeout by itself. *)
let timeout_s () =
  match Sys.getenv_opt "TL_PROC_TIMEOUT_MS" with
  | None -> None
  | Some s -> (
    match float_of_string_opt s with
    | Some ms when ms > 0. && Float.is_finite ms -> Some (ms /. 1000.)
    | _ -> None)

(* Fault-injection worker-kill hook, owned by Tl_fault.Injector.
   Consulted at the top of every [step ~round] while armed: the listed
   ranks are SIGKILLed before the round's decision is broadcast, so the
   round can never complete and the crash surfaces through the normal
   worker-death path ([Proc_failure "... killed by signal 9 ..."]).
   Disarmed ([None], the default) a step pays one ref match. *)
let fault_kill_hook : (round:int -> int list) option ref = ref None

(* Fork the workers. Every socketpair is created before the first fork,
   so each child inherits the full set and closes what is not its own:
   the coordinator ends, the other workers' direct ends, and both ends
   of every peer pair it is not a member of. *)
let spawn_workers ~size ~direct ~pairs ~body =
  flush stdout;
  flush stderr;
  let pids = Array.make size (-1) in
  for rank = 0 to size - 1 do
    match Unix.fork () with
    | 0 ->
      (try
         Array.iteri
           (fun i (c, w) ->
             Unix.close c;
             if i <> rank then Unix.close w)
           direct;
         let chans = ref [] in
         List.iter
           (fun ((a, b), (fa, fb)) ->
             if rank = a then begin
               Unix.close fb;
               chans := (b, fa) :: !chans
             end
             else if rank = b then begin
               Unix.close fa;
               chans := (a, fb) :: !chans
             end
             else begin
               Unix.close fa;
               Unix.close fb
             end)
           pairs;
         Worker.serve ~rank
           ~coord:(snd direct.(rank))
           ~chans:(Array.of_list !chans) ~body
       with _ -> Unix._exit 125)
    | pid -> pids.(rank) <- pid
  done;
  Array.iter (fun (_, w) -> Unix.close w) direct;
  List.iter
    (fun (_, (fa, fb)) ->
      Unix.close fa;
      Unix.close fb)
    pairs;
  pids

(* One run on a fresh cluster: fork, ship the prologues, drive the
   rounds from the stats totals, then collect every worker's epilogue
   image into [blank ()] with [read], in ascending shard order. *)
let with_cluster ~procs ~topo ~stop:policy ~sched ~slots ~trace ~body ~blank
    ~read =
  if Team.spawns () > 0 then
    Wire.fail
      "proc backend cannot fork: this process already spawned domains \
       (OCaml 5 forbids fork after domain creation); run proc-mode work \
       before any par/shard runs";
  let shape = Collective.shape_of_env () in
  let plan, plan_hit = Plan.build_cached ~topo ~shards:(max 1 procs) in
  let shards = plan.Plan.shards in
  let size = Array.length shards in
  (* halo adjacency between shards, from the exchange route tables *)
  let mat = Array.make_matrix size size false in
  Array.iteri
    (fun a sh ->
      Array.iter (fun b -> if b <> a then mat.(a).(b) <- true) sh.Plan.xshard)
    shards;
  let ranks_where pred =
    let acc = ref [] in
    for r = size - 1 downto 0 do
      if pred r then acc := r :: !acc
    done;
    Array.of_list !acc
  in
  let out_peers = Array.init size (fun a -> ranks_where (fun b -> mat.(a).(b))) in
  let in_peers = Array.init size (fun b -> ranks_where (fun a -> mat.(a).(b))) in
  (* one socketpair per unordered worker pair that needs any channel:
     halo traffic in either direction, or a collective-tree edge *)
  let need = Array.make_matrix size size false in
  for a = 0 to size - 1 do
    for b = 0 to size - 1 do
      if mat.(a).(b) then begin
        need.(min a b).(max a b) <- true
      end
    done
  done;
  for r = 1 to size - 1 do
    let p = Collective.parent shape r in
    need.(min p r).(max p r) <- true
  done;
  let direct =
    Array.init size (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let pairs = ref [] in
  for a = size - 1 downto 0 do
    for b = size - 1 downto a + 1 do
      if need.(a).(b) then
        pairs :=
          ((a, b), Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) :: !pairs
    done
  done;
  let pids = spawn_workers ~size ~direct ~pairs:!pairs ~body in
  let cfd = Array.map fst direct in
  let bufs = Array.init size (fun _ -> Transport.Buf.create 4096) in
  let reaped = Array.make size false in
  let dead = Array.make size false in
  let closed = ref false in
  let epi_halo = Array.make size 0 in
  let epi_exch = Array.make size 0 in
  let have_epi = Array.make size false in
  let t_start = now () in
  let cleanup () =
    if not !closed then begin
      closed := true;
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) cfd
    end;
    Array.iteri
      (fun rank pid ->
        if not reaped.(rank) then begin
          (try Unix.kill pid Sys.sigkill
           with Unix.Unix_error _ -> ());
          ignore (waitpid_retry pid);
          reaped.(rank) <- true
        end)
      pids
  in
  let worker_died rank =
    let st = waitpid_retry pids.(rank) in
    reaped.(rank) <- true;
    Wire.Proc_failure
      (Printf.sprintf "tlp: worker %d (pid %d) %s before completing the run"
         rank pids.(rank) (wait_status_string st))
  in
  let secondary src msg =
    let msg =
      if String.length msg >= 5 && String.sub msg 0 5 = "tlp: " then
        String.sub msg 5 (String.length msg - 5)
      else msg
    in
    Wire.Proc_failure (Printf.sprintf "tlp: worker %d failed: %s" src msg)
  in
  let rank_of_fd fd =
    let r = ref (-1) in
    Array.iteri (fun i f -> if f == fd then r := i) cfd;
    !r
  in
  (* Once one worker dies, its exchange peers die with it (connection
     reset / EOF mid-exchange), and the secondary error frames race the
     primary one to the coordinator. Before reporting a casualty, drain
     the remaining channels briefly: if any worker shipped a real
     [Failure] (the user's exception), parity demands that it wins over
     the connection resets it caused. *)
  let postmortem first =
    let deadline = Unix.gettimeofday () +. 2.0 in
    let live () =
      Array.to_list
        (Array.of_seq
           (Seq.filter_map
              (fun r -> if dead.(r) then None else Some cfd.(r))
              (Seq.init size Fun.id)))
    in
    let finished = ref false in
    while not !finished do
      match live () with
      | [] -> finished := true
      | fds ->
        let timeout = deadline -. Unix.gettimeofday () in
        if timeout <= 0. then finished := true
        else
          List.iter
            (fun fd ->
              let rank = rank_of_fd fd in
              match Transport.recv_typed cfd.(rank) bufs.(rank) with
              | Wire.Error_frame e when e.failure ->
                raise (Worker_failure e.message)
              | Wire.Error_frame _ -> dead.(rank) <- true
              | _ -> () (* late traffic of a doomed run *)
              | exception End_of_file ->
                dead.(rank) <- true;
                ignore (worker_died rank)
              | exception Wire.Proc_failure _ -> dead.(rank) <- true)
            (select_read ~timeout fds)
    done;
    raise first
  in
  let read_frame rank =
    match Transport.recv_typed cfd.(rank) bufs.(rank) with
    | Wire.Error_frame e when e.failure -> raise (Worker_failure e.message)
    | Wire.Error_frame e ->
      dead.(rank) <- true;
      postmortem (secondary e.src e.message)
    | f -> f
    | exception End_of_file ->
      dead.(rank) <- true;
      postmortem (worker_died rank)
  in
  (* Wait for one frame satisfying [accept], watching every worker
     channel so a crash anywhere (error frame or EOF) surfaces instead
     of hanging the run. *)
  let recv_timeout = timeout_s () in
  let deadline () = Option.map (fun t -> now () +. t) recv_timeout in
  (* the select timeout left before [deadline], failing once it passed *)
  let time_left deadline ~what =
    match deadline with
    | None -> -1.
    | Some d ->
      let left = d -. now () in
      if left <= 0. then
        Wire.fail "timeout after %.0f ms awaiting %s (TL_PROC_TIMEOUT_MS)"
          (Option.get recv_timeout *. 1000.)
          what
      else left
  in
  let await ~accept ~what =
    let deadline = deadline () in
    let result = ref None in
    while !result = None do
      let tmo = time_left deadline ~what in
      let ready = select_read ~timeout:tmo (Array.to_list cfd) in
      List.iter
        (fun fd ->
          if !result = None then begin
            let rank = rank_of_fd fd in
            match accept rank (read_frame rank) with
            | Some v -> result := Some v
            | None ->
              Wire.fail "unexpected frame from worker %d while awaiting %s"
                rank what
          end)
        ready
    done;
    Option.get !result
  in
  (* the root's totals: [active]/[unhalted] are kept, [changed] returned *)
  let active = ref 0 and unhalted = ref 0 in
  let await_stats ~round =
    await ~what:(Printf.sprintf "stats (round %d)" round)
      ~accept:(fun rank f ->
        match f with
        | Wire.Stats s when rank = 0 && s.round = round ->
          active := s.active;
          unhalted := s.unhalted;
          Some s.changed
        | _ -> None)
  in
  let send_decision ~action ~round =
    let img = Wire.encode (Wire.Decision { action; round }) in
    Transport.send_frame cfd.(0) img (Bytes.length img)
  in
  let step ~round =
    (match !fault_kill_hook with
    | None -> ()
    | Some kills ->
      List.iter
        (fun rank ->
          if rank >= 0 && rank < size && not reaped.(rank) then
            try Unix.kill pids.(rank) Sys.sigkill
            with Unix.Unix_error _ -> ())
        (kills ~round));
    send_decision ~action:Wire.a_step ~round;
    await_stats ~round
  in
  let stop ~ship =
    send_decision
      ~action:(if ship then Wire.a_stop_result else Wire.a_stop)
      ~round:0;
    let states = Array.make size None in
    let n_got = ref 0 in
    let deadline = deadline () in
    while !n_got < size do
      let pend =
        Array.to_list
          (Array.of_seq
             (Seq.filter_map
                (fun rank ->
                  if have_epi.(rank) then None else Some cfd.(rank))
                (Seq.init size Fun.id)))
      in
      let tmo = time_left deadline ~what:"epilogue" in
      let ready = select_read ~timeout:tmo pend in
      List.iter
        (fun fd ->
          let rank = rank_of_fd fd in
          if not have_epi.(rank) then begin
            match read_frame rank with
            | Wire.Epilogue e when e.src = rank ->
              have_epi.(rank) <- true;
              incr n_got;
              epi_halo.(rank) <- e.halo_words;
              epi_exch.(rank) <- e.exchange_rounds;
              states.(rank) <- e.states
            | _ ->
              Wire.fail "unexpected frame from worker %d while awaiting \
                         epilogue" rank
          end)
        ready
    done;
    (* orderly reap: every worker exits right after its epilogue *)
    Array.iteri
      (fun rank pid ->
        if not reaped.(rank) then begin
          let st = waitpid_retry pid in
          reaped.(rank) <- true;
          match st with
          | Unix.WEXITED 0 -> ()
          | st ->
            Wire.fail "worker %d (pid %d) %s after an orderly stop" rank pid
              (wait_status_string st)
        end)
      pids;
    states
  in
  match
    Fun.protect
      ~finally:(fun () ->
        cleanup ();
        Local.report plan ~plan_hit ~prefix:"proc" ~count_key:"procs"
          ~shape:(Collective.code_of_shape shape)
          ~latency_s:(now () -. t_start)
          (fun rank ->
            if have_epi.(rank) then Some (epi_halo.(rank), epi_exch.(rank))
            else None))
      (fun () ->
        (* prologues: identity, run configuration, halo-neighbor sets,
           tree shape and the shard image — once per worker *)
        Array.iteri
          (fun rank sh ->
            let img =
              Wire.encode
                (Wire.Prologue
                   {
                     rank;
                     size;
                     entry = Worker.entry_code policy;
                     sched = Worker.sched_code sched;
                     shape = Collective.code_of_shape shape;
                     slots;
                     in_peers = in_peers.(rank);
                     out_peers = out_peers.(rank);
                     shard = Plan.encode_shard sh;
                   })
            in
            Transport.send_frame cfd.(rank) img (Bytes.length img))
          shards;
        ignore (await_stats ~round:0);
        let rounds, exhausted =
          Engine.drive ~trace ~stop:policy
            ~active:(fun () -> !active)
            ~unhalted:(fun () -> !unhalted)
            ~exec:(fun round -> step ~round)
        in
        (* workers stop without shipping states before an exhausted
           run's failure propagates *)
        if exhausted then begin
          ignore (stop ~ship:false);
          Engine.exhausted policy
        end;
        let out = blank () in
        Array.iteri
          (fun rank img ->
            match img with
            | None -> Wire.fail "worker %d shipped no states" rank
            | Some b -> read out shards.(rank) b)
          (stop ~ship:true);
        (out, rounds))
  with
  | v -> v
  | exception Worker_failure msg -> failwith msg

let proc_count = function
  | Some p -> p
  | None -> max 1 !Engine.default_procs

(* ---------- the Engine.Proc hook (boxed states) ---------- *)

let exec :
    type a.
    count:int ->
    sched:Engine.scheduling ->
    equal:(a -> a -> bool) ->
    trace:Trace.t option ->
    topo:Topology.t ->
    init:(int -> a) ->
    step:a Engine.step_fn ->
    halted:(a -> bool) option ->
    stop:Engine.stop ->
    a Engine.outcome =
 fun ~count:procs ~sched ~equal ~trace ~topo ~init ~step ~halted ~stop ->
  let states, rounds =
    with_cluster ~procs ~topo ~stop ~sched ~slots:0 ~trace
      ~body:(fun env ->
        Worker.run env (Worker.boxed env ~init ~step ~equal ~halted))
      ~blank:(fun () -> Array.init topo.Topology.n_base init)
      ~read:Codec.read_boxed
  in
  { Engine.states; rounds }

let () = Engine.proc_backend := Some { Engine.exec }

let register () = ()

(* ---------- flat entry points (the B12 fast path) ---------- *)

(* The coordinator's identity-l2g call of [kernel_for] recovers the
   global kernel: its slots, halting predicate and initial slab. Traces
   are stamped like a boxed Proc run, with the flat layout. *)
let exec_flat ~procs ~sched ~topo ~kernel_for ~stop =
  let procs = proc_count procs in
  let kernel : Flat.kernel =
    kernel_for ~l2g:(Array.init topo.Topology.n_base Fun.id)
  in
  (match (stop, kernel.Flat.halted) with
  | Engine.Halted _, None ->
    invalid_arg
      (Printf.sprintf "Proc.run_flat: kernel %s has no halted predicate"
         kernel.Flat.name)
  | _ -> ());
  let slots = kernel.Flat.slots in
  let trace =
    Engine.begin_trace ~label:("flat." ^ kernel.Flat.name)
      ~mode:(Engine.mode_to_string (Engine.Proc procs))
      ~layout:"flat" ~sched ~compile_s:0. ~compile_cached:false topo
  in
  Engine.with_trace trace (fun () ->
      let slab, rounds =
        with_cluster ~procs ~topo ~stop ~sched ~slots ~trace
          ~body:(fun env -> Worker.run env (Worker.flat env ~kernel_for))
          ~blank:(fun () ->
            Array.init (topo.Topology.n_base * slots) (fun i ->
                kernel.Flat.init ~node:(i / slots) ~slot:(i mod slots)))
          ~read:(Codec.read_flat ~slots)
      in
      { Flat.slab; slots; rounds })

let run_flat ?procs ?(sched = Engine.Active_set) ~topo ~kernel_for
    ~max_rounds () =
  exec_flat ~procs ~sched ~topo ~kernel_for ~stop:(Engine.Halted max_rounds)

let run_flat_until_stable ?procs ?(sched = Engine.Active_set) ~topo
    ~kernel_for ~max_rounds () =
  exec_flat ~procs ~sched ~topo ~kernel_for ~stop:(Engine.Stable max_rounds)

(* Shard-local builders for the stock flat kernels: the worker calls
   [kernel_for ~l2g:shard.l2g] so node-indexed inputs are remapped into
   local space (ghosts included); the coordinator's identity-l2g call
   recovers the global kernel for slab initialization. *)
module Kernels = struct
  let flood ?(source = 0) () ~l2g =
    let k = Flat.Kernels.flood ~source () in
    {
      k with
      Flat.init = (fun ~node ~slot:_ -> if l2g.(node) = source then 1 else 0);
    }

  let mis_local_max ~ids ~l2g =
    Flat.Kernels.mis_local_max ~ids:(Array.map (fun g -> ids.(g)) l2g)
end

(* ---------- direct boxed API (the Proc-mode twins of Shard.run and
   friends) ---------- *)

let run ?procs ?sched ?equal ?trace ?label ~topo ~init ~step ~halted
    ~max_rounds () =
  Engine.run ~mode:(Engine.Proc (proc_count procs)) ?sched ?equal ?trace
    ?label ~topo ~init ~step ~halted ~max_rounds ()

let run_until_stable ?procs ?sched ?trace ?label ~topo ~init ~step ~equal
    ~max_rounds () =
  Engine.run_until_stable ~mode:(Engine.Proc (proc_count procs)) ?sched
    ?trace ?label ~topo ~init ~step ~equal ~max_rounds ()

let run_rounds ?procs ?sched ?equal ?trace ?label ~topo ~init ~step ~rounds
    () =
  Engine.run_rounds ~mode:(Engine.Proc (proc_count procs)) ?sched ?equal
    ?trace ?label ~topo ~init ~step ~rounds ()
