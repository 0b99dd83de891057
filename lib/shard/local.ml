(* One shard's round body; see local.mli. Everything the hot loops touch
   is indexed by local ids, so a shard's working set is O(n_owned +
   halo). The frontier, commit and halted count are Stepper's; this
   module adds the route buffer, the halo rows and the link cuts.
   Bounds are established by the plan invariants (sub-CSR rows index
   adj, routes fit the buffer because each owned node appends its
   routes at most once per round), hence the unsafe accesses. *)

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
  cuts : (int * int) list;  (* (round, peer) *)
  mutable dropped_rev : (int * int * int ref) list;  (* newest first *)
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

let create sh csr ~sched ~cuts store =
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
    cuts;
    dropped_rev = [];
    halo_words = 0;
    exchange_rounds = 0;
  }

let stepper t = t.core
let halo_words t = t.halo_words
let exchange_rounds t = t.exchange_rounds

let dropped t = List.rev_map (fun (r, p, msgs) -> (r, p, !msgs)) t.dropped_rev

(* Skip the buffered routes to a peer in [cut], counting them per
   (round, peer); the survivors keep their append order. *)
let skip_cut t ~round cut =
  let out = t.out in
  let kept = ref 0 in
  for b = 0 to out.n - 1 do
    let d = out.dst.(b) in
    if List.mem d cut then
      match List.find_opt (fun (r, p, _) -> r = round && p = d) t.dropped_rev with
      | Some (_, _, msgs) -> incr msgs
      | None -> t.dropped_rev <- (round, d, ref 1) :: t.dropped_rev
    else begin
      out.dst.(!kept) <- d;
      out.slot.(!kept) <- out.slot.(b);
      out.src.(!kept) <- out.src.(b);
      incr kept
    end
  done;
  out.n <- !kept

let drain t ~round deliver =
  let out = t.out in
  if out.n > 0 then begin
    t.exchange_rounds <- t.exchange_rounds + 1;
    let cut =
      List.filter_map (fun (r, p) -> if r = round then Some p else None) t.cuts
    in
    if cut <> [] then skip_cut t ~round cut;
    if out.n > 0 then deliver ~dst:out.dst ~slot:out.slot ~src:out.src out.n;
    t.halo_words <- t.halo_words + out.n;
    out.n <- 0
  end

let ghost_written t slot =
  let sh = t.sh in
  let h = slot - sh.Plan.n_owned in
  for j = sh.Plan.halo_off.(h) to sh.Plan.halo_off.(h + 1) - 1 do
    Stepper.wake t.core (Array.unsafe_get sh.Plan.halo_adj j)
  done

(* ---------- the run report ---------- *)

let report plan ~shape ~latency_s traffic =
  let size = Array.length plan.Plan.shards in
  let halo = ref 0 in
  for s = 0 to size - 1 do
    Option.iter (fun (hw, _) -> halo := !halo + hw) (traffic s)
  done;
  let key k = "proc:" ^ k in
  if Span.active () then begin
    let np = plan.Plan.topo.Tl_engine.Topology.n_present in
    Span.add_counter (key "procs") size;
    Span.add_counter (key "shape") shape;
    Span.add_counter (key "cut_edges") (Plan.cut_edges_total plan);
    Span.add_counter (key "imbalance") (Plan.imbalance_permille plan);
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
    Metrics.incr (Metrics.counter "proc_halo_words_total") !halo;
    Metrics.incr (Metrics.counter "proc_runs_total") 1;
    Metrics.Recorder.record
      {
        Metrics.Recorder.ts = Unix.gettimeofday ();
        kind = "exchange";
        key = Printf.sprintf "procs:%d" size;
        detail =
          Printf.sprintf "halo_words=%d cut_edges=%d" !halo
            (Plan.cut_edges_total plan);
        outcome = "ok";
        latency_s;
      }
  end
