module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Trace = Tl_engine.Trace
module Pool = Tl_engine.Pool
module Stepper = Tl_engine.Stepper
module Metrics = Tl_obs.Metrics

let now = Unix.gettimeofday

(* Registry histogram (lazy so an unused backend never registers).
   Observed on the coordinating domain, guarded by [Metrics.enabled] —
   a disabled registry costs one Atomic.get per round here. *)
let m_exchange_s = lazy (Metrics.histogram "shard_exchange_seconds")

(* Fault-injection link hook, owned by Tl_fault.Injector (above this
   library in the DAG). Consulted per halo message only while armed —
   [drop ~round ~src ~dst] returning [true] suppresses the delivery of
   one (src shard -> dst shard) boundary update that round: the target's
   ghost slot keeps its stale value and its pending set is not grown.
   Because exchange routes fire only on change, a dropped message is
   {e lost} (the owner re-sends only on its next change) — exactly the
   failure the repair layer exists to heal. Disarmed ([None], default)
   it costs one ref read per round and one branch per message. *)
let fault_drop_hook : (round:int -> src:int -> dst:int -> bool) option ref =
  ref None

(* Batched boundary exchange, ascending shard order: drain each shard's
   routes into the target shards' ghost slots. Ghost slots are only
   written here — between the barrier and the next compute phase — so
   the compute phase always reads a consistent frontier. *)
let exchange locals sts ~round =
  let drop = !fault_drop_hook in
  Array.iteri
    (fun s c ->
      let st = sts.(s) in
      Local.drain c (fun ~dst ~slot ~src n ->
          let delivered = ref 0 in
          for b = 0 to n - 1 do
            let d = Array.unsafe_get dst b in
            match drop with
            | Some drop when drop ~round ~src:s ~dst:d -> ()
            | _ ->
              let g = Array.unsafe_get slot b in
              Array.unsafe_set sts.(d) g
                (Array.unsafe_get st (Array.unsafe_get src b));
              Local.ghost_written locals.(d) g;
              incr delivered
          done;
          !delivered))
    locals

let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs

(* One full round: local step (optionally fanned over the pool),
   sequential commit, batched exchange, barrier, active-set advance.
   [exch_acc] accumulates the run's exchange wall-time for the flight
   recorder; the per-round time also feeds the exchange histogram. *)
let exec_round locals cores sts ~pool ~p_eff ~round ~exch_acc =
  if p_eff > 1 then
    ignore
      (Pool.map pool ~tasks:cores ~f:(fun ~worker:_ ~index:_ c ->
           Stepper.compute c ~par:1 ~round))
  else Array.iter (fun c -> Stepper.compute c ~par:1 ~round) cores;
  let changed = sum Stepper.commit cores in
  (if Metrics.enabled () then begin
     let tx = now () in
     exchange locals sts ~round;
     let dt = now () -. tx in
     exch_acc := !exch_acc +. dt;
     Metrics.observe (Lazy.force m_exchange_s) dt
   end
   else exchange locals sts ~round);
  Array.iter Stepper.advance cores;
  changed

(* ---------- the backend entry point ---------- *)

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
 fun ~count:shards ~sched ~equal ~trace ~topo ~init ~step ~halted ~stop ->
  let plan, plan_hit = Plan.build_cached ~topo ~shards in
  let states = Array.init topo.Topology.n_base (fun v -> init v) in
  let sts, locals =
    Array.split
      (Array.map
         (fun sh ->
           let csr = Local.csr sh in
           let st, store =
             Stepper.boxed ~l2g:sh.Plan.l2g csr ~init:(Array.get states) ~step
               ~equal ~halted
           in
           (st, Local.create sh csr ~sched store))
         plan.Plan.shards)
  in
  let cores = Array.map Local.stepper locals in
  let pool = Pool.create () in
  let p_eff = min (Pool.workers pool) (Array.length locals) in
  (* the per-round shard maps ride the persistent domain team; park the
     members now so round 1 does not pay the one-time spawn *)
  if p_eff > 1 then Pool.prewarm pool;
  let exch_acc = ref 0. in
  Fun.protect
    ~finally:(fun () ->
      Local.report plan ~plan_hit ~prefix:"shard" ~count_key:"shards"
        ~latency_s:!exch_acc (fun s ->
          let c = locals.(s) in
          Some (Local.halo_words c, Local.exchange_rounds c)))
    (fun () ->
      let rounds, exhausted =
        Engine.drive ~trace ~stop
          ~active:(fun () -> sum Stepper.n_active cores)
          ~unhalted:(fun () -> sum Stepper.unhalted cores)
          ~exec:(fun round ->
            exec_round locals cores sts ~pool ~p_eff ~round ~exch_acc)
      in
      (* write the owned states back, ascending shard order *)
      Array.iteri
        (fun s st ->
          let sh = plan.Plan.shards.(s) in
          for l = 0 to sh.Plan.n_owned - 1 do
            states.(sh.Plan.l2g.(l)) <- st.(l)
          done)
        sts;
      if exhausted then Engine.exhausted stop;
      { Engine.states; rounds })

let () = Engine.shard_backend := Some { Engine.exec }

let register () = ()

(* ---------- direct API ---------- *)

let with_pool_workers pool f =
  match pool with
  | None -> f ()
  | Some w ->
    let old = !Pool.default_workers in
    Pool.default_workers := w;
    Fun.protect ~finally:(fun () -> Pool.default_workers := old) f

let shard_count = function
  | Some s -> s
  | None -> max 1 !Engine.default_shards

let run ?shards ?pool ?sched ?equal ?trace ?label ~topo ~init ~step ~halted
    ~max_rounds () =
  with_pool_workers pool (fun () ->
      Engine.run ~mode:(Engine.Shard (shard_count shards)) ?sched ?equal
        ?trace ?label ~topo ~init ~step ~halted ~max_rounds ())

let run_until_stable ?shards ?pool ?sched ?trace ?label ~topo ~init ~step
    ~equal ~max_rounds () =
  with_pool_workers pool (fun () ->
      Engine.run_until_stable ~mode:(Engine.Shard (shard_count shards)) ?sched
        ?trace ?label ~topo ~init ~step ~equal ~max_rounds ())

let run_rounds ?shards ?pool ?sched ?equal ?trace ?label ~topo ~init ~step
    ~rounds () =
  with_pool_workers pool (fun () ->
      Engine.run_rounds ~mode:(Engine.Shard (shard_count shards)) ?sched
        ?equal ?trace ?label ~topo ~init ~step ~rounds ())
