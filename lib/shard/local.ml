(* One shard's round body; see local.mli. Everything the hot loops touch
   is indexed by local ids, so a shard's working set is O(n_owned +
   halo). Bounds are established by the plan invariants (active and
   pending hold owned locals, sub-CSR rows index adj, routes fit the
   buffer because each owned node appends its routes at most once per
   round), hence the unsafe accesses. *)

module Engine = Tl_engine.Engine
module Span = Tl_obs.Span
module Metrics = Tl_obs.Metrics

type store = {
  step : round:int -> int array -> int -> unit;
  publish : int -> bool;
  halted : (int -> bool) option;
}

type t = {
  sh : Plan.shard;
  sched : Engine.scheduling;
  store : store;
  mutable active : int array;  (* active owned locals, [0 .. n_active) *)
  mutable n_active : int;
  mutable pending : int array;  (* next round's active set being built *)
  mutable n_pending : int;
  dirty : bool array;  (* membership bitmap for [pending] *)
  (* the route buffer: (target shard, target ghost slot, source local) *)
  out_dst : int array;
  out_slot : int array;
  out_src : int array;
  mutable n_out : int;
  halted_f : bool array;
  mutable unhalted : int;
  mutable halo_words : int;
  mutable exchange_rounds : int;
}

let create sh ~sched store =
  let n_owned = sh.Plan.n_owned in
  let routes = max 1 sh.Plan.xoff.(n_owned) in
  let t =
    {
      sh;
      sched;
      store;
      active = Array.init n_owned Fun.id;
      n_active = n_owned;
      pending = Array.make (max 1 n_owned) 0;
      n_pending = 0;
      dirty = Array.make (max 1 n_owned) false;
      out_dst = Array.make routes 0;
      out_slot = Array.make routes 0;
      out_src = Array.make routes 0;
      n_out = 0;
      halted_f =
        Array.make (if Option.is_some store.halted then n_owned else 0) true;
      unhalted = 0;
      halo_words = 0;
      exchange_rounds = 0;
    }
  in
  Option.iter
    (fun h ->
      for l = 0 to n_owned - 1 do
        let hv = h l in
        t.halted_f.(l) <- hv;
        if not hv then t.unhalted <- t.unhalted + 1
      done)
    store.halted;
  t

let n_active t = t.n_active
let unhalted t = t.unhalted
let halo_words t = t.halo_words
let exchange_rounds t = t.exchange_rounds
let compute t ~round = t.store.step ~round t.active t.n_active

let mark t l =
  if not (Array.unsafe_get t.dirty l) then begin
    Array.unsafe_set t.dirty l true;
    Array.unsafe_set t.pending t.n_pending l;
    t.n_pending <- t.n_pending + 1
  end

let commit t =
  let changed = ref 0 in
  let sh = t.sh and store = t.store and active = t.active in
  let off = sh.Plan.off and adj = sh.Plan.adj and n_owned = sh.Plan.n_owned in
  let xoff = sh.Plan.xoff
  and xshard = sh.Plan.xshard
  and xslot = sh.Plan.xslot in
  for i = 0 to t.n_active - 1 do
    let l = Array.unsafe_get active i in
    if store.publish l then begin
      incr changed;
      (match store.halted with
      | None -> ()
      | Some h ->
        let hv = h l in
        if hv <> Array.unsafe_get t.halted_f l then begin
          Array.unsafe_set t.halted_f l hv;
          t.unhalted <- (t.unhalted + if hv then -1 else 1)
        end);
      (match t.sched with
      | Engine.Full_scan -> ()
      | Engine.Active_set ->
        mark t l;
        for j = Array.unsafe_get off l to Array.unsafe_get off (l + 1) - 1 do
          let u = Array.unsafe_get adj j in
          if u < n_owned then mark t u
        done);
      for x = Array.unsafe_get xoff l to Array.unsafe_get xoff (l + 1) - 1 do
        let k = t.n_out in
        Array.unsafe_set t.out_dst k (Array.unsafe_get xshard x);
        Array.unsafe_set t.out_slot k (Array.unsafe_get xslot x);
        Array.unsafe_set t.out_src k l;
        t.n_out <- k + 1
      done
    end
  done;
  !changed

let drain t deliver =
  let n = t.n_out in
  if n > 0 then begin
    let delivered = deliver ~dst:t.out_dst ~slot:t.out_slot ~src:t.out_src n in
    t.halo_words <- t.halo_words + delivered;
    t.exchange_rounds <- t.exchange_rounds + 1;
    t.n_out <- 0
  end

let ghost_written t slot =
  match t.sched with
  | Engine.Full_scan -> ()
  | Engine.Active_set ->
    let sh = t.sh in
    let h = slot - sh.Plan.n_owned in
    for j = sh.Plan.halo_off.(h) to sh.Plan.halo_off.(h + 1) - 1 do
      mark t (Array.unsafe_get sh.Plan.halo_adj j)
    done

(* The dense-frontier rule of the engine's commit: when the next set is
   a constant fraction of the shard, emit it ascending from the bitmap
   for compute locality — order never affects computed states. *)
let advance t =
  match t.sched with
  | Engine.Full_scan -> ()
  | Engine.Active_set ->
    let k = t.n_pending and n_owned = t.sh.Plan.n_owned in
    let dirty = t.dirty and pending = t.pending in
    if k * 8 >= n_owned then begin
      let idx = ref 0 in
      for l = 0 to n_owned - 1 do
        if Array.unsafe_get dirty l then begin
          Array.unsafe_set dirty l false;
          Array.unsafe_set pending !idx l;
          incr idx
        end
      done
    end
    else
      for i = 0 to k - 1 do
        Array.unsafe_set dirty (Array.unsafe_get pending i) false
      done;
    t.pending <- t.active;
    t.active <- pending;
    t.n_active <- k;
    t.n_pending <- 0

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

(* ---------- the boxed store ---------- *)

let boxed (type a) sh ~(init : int -> a) ~(step : a Engine.step_fn) ~equal
    ~halted =
  let n_owned = sh.Plan.n_owned and l2g = sh.Plan.l2g in
  let off = sh.Plan.off and adj = sh.Plan.adj and eid = sh.Plan.eid in
  let st = Array.init sh.Plan.n_local (fun l -> init l2g.(l)) in
  let nx = Array.sub st 0 n_owned in
  let compute ~round active n =
    for i = 0 to n - 1 do
      let l = Array.unsafe_get active i in
      let acc = ref [] in
      let lo = Array.unsafe_get off l in
      let j = ref (Array.unsafe_get off (l + 1) - 1) in
      while !j >= lo do
        let u = Array.unsafe_get adj !j in
        acc :=
          ( Array.unsafe_get l2g u,
            Array.unsafe_get eid !j,
            Array.unsafe_get st u )
          :: !acc;
        decr j
      done;
      Array.unsafe_set nx l
        (step ~round ~node:(Array.unsafe_get l2g l) (Array.unsafe_get st l)
           ~neighbors:!acc)
    done
  in
  let publish l =
    let s' = Array.unsafe_get nx l in
    (not (equal s' (Array.unsafe_get st l)))
    && begin
         Array.unsafe_set st l s';
         true
       end
  in
  let halted = Option.map (fun h l -> h (Array.unsafe_get st l)) halted in
  (st, { step = compute; publish; halted })
