(* Thin compatibility wrappers over Tl_engine: the legacy full-scan
   stepper with its two full array copies per round lives on only as the
   engine's Naive reference mode. *)

module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Span = Tl_obs.Span

type 'state outcome = { states : 'state array; rounds : int }

(* Compiles through the topology cache: repeated phases over the same
   semi-graph view (color-reduction loops, the star families) reuse one
   CSR snapshot. Each compile records a [topo:cache_hit]/[topo:cache_miss]
   span counter (no-op without an ambient span) and the hit flag is
   stamped on the engine trace. *)
let compile sg =
  let t0 = Unix.gettimeofday () in
  let topo, hit = Topology.compile_cached_stat sg in
  Span.add_counter (if hit then "topo:cache_hit" else "topo:cache_miss") 1;
  (topo, Unix.gettimeofday () -. t0, hit)

(* Observability bridge: when a span is ambient, make sure the engine run
   is traced (creating a collector if the caller did not supply one) and
   attach the trace to the current span as an "engine:<label>" child —
   even when the run raises, so a diverging run still shows up in the
   report. *)
let with_engine_span ?trace ~label f =
  if not (Span.active ()) then f trace
  else
    let tr =
      match trace with Some t -> t | None -> Tl_engine.Trace.create ~label ()
    in
    Fun.protect ~finally:(fun () -> Span.add_trace tr) (fun () -> f (Some tr))

let run ?mode ?sched ?equal ?trace ~sg ~init ~step ~halted ~max_rounds () =
  let topo, compile_s, compile_cached = compile sg in
  let o =
    with_engine_span ?trace ~label:"runtime.run" (fun trace ->
        Engine.run ?mode ?sched ?equal ?trace ~label:"runtime.run" ~compile_s
          ~compile_cached ~topo ~init ~step ~halted ~max_rounds ())
  in
  { states = o.Engine.states; rounds = o.Engine.rounds }

let run_until_stable ?mode ?sched ?trace ~sg ~init ~step ~equal ~max_rounds ()
    =
  let topo, compile_s, compile_cached = compile sg in
  let o =
    with_engine_span ?trace ~label:"runtime.stable" (fun trace ->
        Engine.run_until_stable ?mode ?sched ?trace ~label:"runtime.stable"
          ~compile_s ~compile_cached ~topo ~init ~step ~equal ~max_rounds ())
  in
  { states = o.Engine.states; rounds = o.Engine.rounds }

let charge_trace cost trace =
  let m = Tl_engine.Trace.metrics trace in
  Round_cost.charge cost
    ("engine:" ^ Tl_engine.Trace.label trace)
    m.Tl_engine.Trace.rounds
