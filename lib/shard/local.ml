(* One shard's round body; see local.mli. Everything the hot loops touch
   is indexed by local ids, so a shard's working set is O(n_owned +
   halo). The frontier, commit and halted count are Stepper's; this
   module adds the route buffer and the halo rows. Bounds are
   established by the plan invariants (sub-CSR rows index adj, routes
   fit the buffer because each owned node appends its routes at most
   once per round), hence the unsafe accesses. *)

module Stepper = Tl_engine.Stepper
module Span = Tl_obs.Span
module Metrics = Tl_obs.Metrics

(* the route buffer: (target shard, target ghost slot, source local) *)
type routes = {
  dst : int array;
  slot : int array;
  src : int array;
  mutable n : int;
}

type t = {
  sh : Plan.shard;
  core : Stepper.t;
  out : routes;
  mutable halo_words : int;
  mutable exchange_rounds : int;
}

let csr sh =
  {
    Stepper.n_owned = sh.Plan.n_owned;
    n_local = sh.Plan.n_local;
    off = sh.Plan.off;
    adj = sh.Plan.adj;
    eid = sh.Plan.eid;
    nodes = Array.init sh.Plan.n_owned Fun.id;
  }

let create sh csr ~sched store =
  let routes = max 1 sh.Plan.xoff.(sh.Plan.n_owned) in
  let out =
    {
      dst = Array.make routes 0;
      slot = Array.make routes 0;
      src = Array.make routes 0;
      n = 0;
    }
  in
  let xoff = sh.Plan.xoff
  and xshard = sh.Plan.xshard
  and xslot = sh.Plan.xslot in
  let append l =
    for x = Array.unsafe_get xoff l to Array.unsafe_get xoff (l + 1) - 1 do
      let k = out.n in
      Array.unsafe_set out.dst k (Array.unsafe_get xshard x);
      Array.unsafe_set out.slot k (Array.unsafe_get xslot x);
      Array.unsafe_set out.src k l;
      out.n <- k + 1
    done
  in
  {
    sh;
    core = Stepper.create ~sched ~on_change:append csr store;
    out;
    halo_words = 0;
    exchange_rounds = 0;
  }

let stepper t = t.core
let halo_words t = t.halo_words
let exchange_rounds t = t.exchange_rounds

let drain t deliver =
  let out = t.out in
  if out.n > 0 then begin
    let delivered = deliver ~dst:out.dst ~slot:out.slot ~src:out.src out.n in
    t.halo_words <- t.halo_words + delivered;
    t.exchange_rounds <- t.exchange_rounds + 1;
    out.n <- 0
  end

let ghost_written t slot =
  let sh = t.sh in
  let h = slot - sh.Plan.n_owned in
  for j = sh.Plan.halo_off.(h) to sh.Plan.halo_off.(h + 1) - 1 do
    Stepper.wake t.core (Array.unsafe_get sh.Plan.halo_adj j)
  done

(* ---------- the run report ---------- *)

let report plan ~plan_hit ~prefix ~count_key ?shape ~latency_s traffic =
  let size = Array.length plan.Plan.shards in
  let halo = ref 0 in
  for s = 0 to size - 1 do
    Option.iter (fun (hw, _) -> halo := !halo + hw) (traffic s)
  done;
  let key k = prefix ^ ":" ^ k in
  if Span.active () then begin
    let np = plan.Plan.topo.Tl_engine.Topology.n_present in
    Span.add_counter (key count_key) size;
    Option.iter (Span.add_counter (key "shape")) shape;
    Span.add_counter (key "cut_edges") (Plan.cut_edges_total plan);
    Span.add_counter (key "imbalance") (Plan.imbalance_permille plan);
    Span.add_counter (key (if plan_hit then "plan_hit" else "plan_miss")) 1;
    Span.add_counter (key "halo_words") !halo;
    Array.iteri
      (fun s sh ->
        Option.iter
          (fun (hw, ex) ->
            Span.with_span (key (string_of_int s)) (fun () ->
                Span.add_counter (key "owned") sh.Plan.n_owned;
                Span.add_counter (key "halo")
                  (sh.Plan.n_local - sh.Plan.n_owned);
                Span.add_counter (key "cut_edges") sh.Plan.cut_edges;
                Span.add_counter (key "halo_words") hw;
                Span.add_counter (key "imbalance")
                  (if np = 0 then 1000 else sh.Plan.n_owned * size * 1000 / np);
                Span.add_counter (key "exchange_rounds") ex))
          (traffic s))
      plan.Plan.shards
  end;
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter (prefix ^ "_halo_words_total")) !halo;
    Metrics.incr (Metrics.counter (prefix ^ "_runs_total")) 1;
    Metrics.Recorder.record
      {
        Metrics.Recorder.ts = Unix.gettimeofday ();
        kind = "exchange";
        key = Printf.sprintf "%s:%d" count_key size;
        detail =
          Printf.sprintf "halo_words=%d cut_edges=%d" !halo
            (Plan.cut_edges_total plan);
        outcome = "ok";
        latency_s;
      }
  end
