(* The coordinator side of the process backend.

   Forks one worker process per shard, ships each its Plan sub-CSR once
   via the prologue frame, then drives rounds from the stats totals the
   collective tree delivers: decision down (step / stop), local step +
   halo exchange in the workers, stats allreduce up. The decisions come
   from the shared Engine.drive round loop, so labelings, round counts,
   trace records and failure messages are bit-identical to the
   in-process steppers for any proc count.

   Worker lifecycle is owned here: a Fun.protect finally reaps every
   child on every exit path — orderly completion, max_rounds failure,
   worker crash, coordinator exception — so no run leaves zombies, and
   an abnormal worker exit surfaces as Proc_failure with the wait
   status.

   [run_kernel] at the bottom is the one entry point of a flat kernel in
   every engine mode: seq and par:N step it in process (Flat.exec),
   proc:N on a fresh cluster of these workers. *)

module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Topology = Tl_engine.Topology
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

(* Fault-injection hooks, owned by Tl_fault.Injector (above this library
   in the DAG); rounds are relative to the run. [cuts] are the run's
   link cuts (round, a, b): no halo entry between ranks a and b in that
   round. [dropped] gets the cuts that fired. [kills] names the ranks to
   SIGKILL before a round's decision broadcast. *)
type fault_hooks = {
  cuts : unit -> (int * int * int) list;
  dropped : round:int -> src:int -> dst:int -> msgs:int -> unit;
  kills : round:int -> int list;
}

let fault_hooks : fault_hooks option ref = ref None

(* [rank]'s (round, peer) half of the link cuts, in the run's rounds *)
let rank_cuts links ~rank ~limit =
  List.filter_map
    (fun (round, a, b) ->
      if round < 1 || round > limit then None
      else if a = rank then Some (round, b)
      else if b = rank then Some (round, a)
      else None)
    links

(* every rank's fired cuts, by round, then rank, then firing order *)
let report_drops h drops =
  Array.to_list drops
  |> List.mapi (fun src -> List.map (fun (r, dst, msgs) -> (r, src, dst, msgs)))
  |> List.concat
  |> List.stable_sort (fun (r1, _, _, _) (r2, _, _, _) -> compare r1 r2)
  |> List.iter (fun (round, src, dst, msgs) -> h.dropped ~round ~src ~dst ~msgs)

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
   words into a slab initialized from the global [kernel], in ascending
   shard order. Each worker builds its shard's kernel with
   [kernel_for]. *)
let with_cluster ~procs ~topo ~stop:policy ~sched ~trace ~kernel_for
    ~(kernel : Flat.kernel) =
  let slots = kernel.Flat.slots in
  if Team.spawns () > 0 then
    Wire.fail
      "proc backend cannot fork: this process already spawned domains \
       (OCaml 5 forbids fork after domain creation); run proc-mode work \
       before any par runs";
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
  let pids =
    spawn_workers ~size ~direct ~pairs:!pairs ~body:(fun env ->
        Worker.run env ~kernel_for)
  in
  let cfd = Array.map fst direct in
  let bufs = Array.init size (fun _ -> Transport.Buf.create 4096) in
  let reaped = Array.make size false in
  let dead = Array.make size false in
  let closed = ref false in
  let epi_halo = Array.make size 0 in
  let epi_exch = Array.make size 0 in
  let epi_drops = Array.make size [] in
  let have_epi = Array.make size false in
  let hooks = !fault_hooks in
  let links = match hooks with Some h -> h.cuts () | None -> [] in
  let limit = match policy with Engine.Halted m | Stable m | Rounds m -> m in
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
  (* A dead worker's channel reads as EOF, or, when its socket still
     held unread bytes, as a reset connection: ECONNRESET on a read,
     EPIPE on a write. Each is the same casualty. *)
  let hangup = function
    | End_of_file | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
    | _ -> false
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
              | exception e when hangup e ->
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
    | exception e when hangup e ->
      dead.(rank) <- true;
      postmortem (worker_died rank)
  in
  let send rank img =
    try Transport.send_frame cfd.(rank) img (Bytes.length img)
    with e when hangup e ->
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
    send 0 (Wire.encode (Wire.Decision { action; round }))
  in
  let step ~round =
    (match hooks with
    | None -> ()
    | Some h ->
      List.iter
        (fun rank ->
          if rank >= 0 && rank < size && not reaped.(rank) then
            try Unix.kill pids.(rank) Sys.sigkill
            with Unix.Unix_error _ -> ())
        (h.kills ~round));
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
              epi_drops.(rank) <- e.drops;
              states.(rank) <- e.states
            | _ ->
              Wire.fail "unexpected frame from worker %d while awaiting \
                         epilogue" rank
          end)
        ready
    done;
    Option.iter (fun h -> report_drops h epi_drops) hooks;
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
        Local.report plan ~plan_hit ~shape:(Collective.code_of_shape shape)
          ~latency_s:(now () -. t_start)
          (fun rank ->
            if have_epi.(rank) then Some (epi_halo.(rank), epi_exch.(rank))
            else None))
      (fun () ->
        (* prologues: identity, run configuration, halo-neighbor sets,
           tree shape, link cuts and the shard image — once per worker *)
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
                     cuts = rank_cuts links ~rank ~limit;
                     shard = Plan.encode_shard sh;
                   })
            in
            send rank img)
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
        let slab =
          Array.init (topo.Topology.n_base * slots) (fun i ->
              kernel.Flat.init ~node:(i / slots) ~slot:(i mod slots))
        in
        Array.iteri
          (fun rank img ->
            match img with
            | None -> Wire.fail "worker %d shipped no states" rank
            | Some b -> Codec.read ~slots slab shards.(rank) b)
          (stop ~ship:true);
        { Flat.slab; slots; rounds })
  with
  | v -> v
  | exception Worker_failure msg -> failwith msg

(* ---------- the flat-kernel entry point ---------- *)

(* The identity-l2g call of [kernel_for] is the global kernel: an
   in-process run steps it, and a proc run takes its slots, halting
   predicate and initial slab from it. A proc trace is stamped like an
   in-process one, with mode proc:N. *)
let run_kernel ~mode ?(sched = Engine.Active_set) ?trace ?label ~topo
    ~kernel_for ~stop () =
  let global () : Flat.kernel =
    kernel_for ~l2g:(Array.init topo.Topology.n_base Fun.id)
  in
  match mode with
  | Engine.Seq | Engine.Par _ ->
    let par = match mode with Engine.Par p -> p | _ -> 1 in
    Flat.exec ~par ~sched ?trace ?label ~topo ~kernel:(global ()) ~stop ()
  | Engine.Proc procs ->
    let kernel = global () in
    Flat.validate ~stop kernel;
    let label =
      match label with Some l -> l | None -> "flat." ^ kernel.Flat.name
    in
    let trace =
      Engine.begin_trace ?trace ~label ~mode:(Engine.mode_to_string mode)
        ~sched topo
    in
    Engine.with_trace trace (fun () ->
        with_cluster ~procs ~topo ~stop ~sched ~trace ~kernel_for ~kernel)

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
