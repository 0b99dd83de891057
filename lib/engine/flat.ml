(* Flat execution path: the engine's Seq/Par stepper specialized to
   int-slab states (double buffer, active set, dirty flags, dense-rebuild
   heuristic, chunked parallel compute, sequential commit), run by the
   shared Engine.drive round loop. The differential battery in
   test/test_engine.ml holds flat and boxed runs together.

   Allocation discipline for the hot path (the whole point of this
   module): no closures in the round loop (helpers that scan CSR rows
   are top-level recursive functions, fully applied — a local [let rec]
   with free variables allocates a closure per call), no [ref] cells
   per round (loop-carried counters live in mutable [core] fields). The
   driver keeps the same discipline: per-run closures only, and no
   wall-clock reads unless a trace is attached.

   Bounds discipline: the step/commit loops use [Array.unsafe_get]/
   [unsafe_set]. Every index is covered by a compiled-topology
   invariant — active/spare hold present nodes [< n_base], CSR rows
   [off.(v) .. off.(v+1)) index [adj], and [adj] entries are present
   nodes — so the checks the safe accessors would re-run per word are
   provably dead. Slab indices are [node * slots + slot] with
   [slot < slots] by construction. *)

type ctx = {
  n_base : int;
  n_present : int;
  off : int array;
  adj : int array;
  eid : int array;
  slots : int;
  cur : int array;
  nxt : int array;
}

type kernel = {
  name : string;
  slots : int;
  scratch_words : int;
  init : node:int -> slot:int -> int;
  step : ctx -> scratch:int array -> round:int -> node:int -> unit;
  halted : (ctx -> node:int -> bool) option;
}

type outcome = { slab : int array; slots : int; rounds : int }

let read o ~node ~slot = o.slab.((node * o.slots) + slot)

let column o ~slot =
  Array.init (Array.length o.slab / o.slots) (fun v ->
      o.slab.((v * o.slots) + slot))

(* ---------- core ---------- *)

type core = {
  ctx : ctx;
  step : ctx -> scratch:int array -> round:int -> node:int -> unit;
  halt : (ctx -> node:int -> bool) option;
  scratch : int array array;  (* one slab per worker *)
  par : int;
  sched : Engine.scheduling;
  mutable active : int array;
  mutable n_active : int;
  mutable spare : int array;
  dirty : bool array;
  halted_f : bool array;
  mutable n_unhalted : int;
  mutable n_changed : int;  (* commit result (no per-round ref cells) *)
  mutable fk : int;  (* frontier build cursor *)
  mutable fi : int;  (* dense-rebuild cursor *)
}

let make_core ~topo ~sched ~par ~use_halted (k : kernel) =
  if k.slots < 1 then
    invalid_arg
      (Printf.sprintf "Flat: kernel %S declares slots=%d (must be >= 1)" k.name
         k.slots);
  let n = Topology.n_base topo in
  let slots = k.slots in
  let init = k.init in
  let cur =
    Array.init (n * slots) (fun i -> init ~node:(i / slots) ~slot:(i mod slots))
  in
  let ctx =
    {
      n_base = n;
      n_present = Topology.n_present topo;
      off = topo.Topology.off;
      adj = topo.Topology.adj;
      eid = topo.Topology.eid;
      slots;
      cur;
      nxt = Array.copy cur;
    }
  in
  let p = max 1 (min par Team.max_workers) in
  let np = Topology.n_present topo in
  let core =
    {
      ctx;
      step = k.step;
      halt = (if use_halted then k.halted else None);
      scratch = Array.init p (fun _ -> Array.make (max 1 k.scratch_words) 0);
      par = p;
      sched;
      active = Array.sub topo.Topology.present_nodes 0 np;
      n_active = np;
      spare = Array.make (max 1 np) 0;
      dirty = Array.make n false;
      halted_f = Array.make n true;
      n_unhalted = 0;
      n_changed = 0;
      fk = 0;
      fi = 0;
    }
  in
  (match core.halt with
  | None -> ()
  | Some h ->
    Array.iter
      (fun v ->
        let hv = h ctx ~node:v in
        core.halted_f.(v) <- hv;
        if not hv then core.n_unhalted <- core.n_unhalted + 1)
      topo.Topology.present_nodes);
  core

let compute_range core round w lo hi =
  let active = core.active and step = core.step and ctx = core.ctx in
  let scratch = core.scratch.(w) in
  for i = lo to hi - 1 do
    step ctx ~scratch ~round ~node:(Array.unsafe_get active i)
  done

(* Same chunking and grain rule as Engine.compute: inline unless every
   chunk clears the grain, otherwise p fixed contiguous chunks on the
   persistent team. Never changes which state a node computes, only
   which domain. *)
let compute core round =
  let count = core.n_active in
  let p = max 1 (min core.par count) in
  if p = 1 || count <= !Engine.par_grain * p then
    compute_range core round 0 0 count
  else begin
    let chunk = (count + p - 1) / p in
    Team.run ~workers:p (fun w ->
        let lo = w * chunk and hi = min count ((w + 1) * chunk) in
        if lo < hi then compute_range core round w lo hi)
  end

(* any word of node [base/slots]'s slots differs? (tail recursive, top
   level: called per active node per round) *)
let rec words_differ cur nxt base i slots =
  i < slots
  && (Array.unsafe_get nxt (base + i) <> Array.unsafe_get cur (base + i)
     || words_differ cur nxt base (i + 1) slots)

let on_change core v =
  match core.halt with
  | None -> ()
  | Some h ->
    let hv = h core.ctx ~node:v in
    if hv <> core.halted_f.(v) then begin
      core.halted_f.(v) <- hv;
      core.n_unhalted <- (core.n_unhalted + if hv then -1 else 1)
    end

(* Commit phase: identical discipline to Engine.commit (sequential,
   publish changed slots, rebuild the frontier under Active_set with the
   same dense-rebuild heuristic) so flat and boxed runs agree round for
   round on active/changed counts, not just on final states. *)
let commit core =
  let ctx = core.ctx in
  let cur = ctx.cur and nxt = ctx.nxt and slots = ctx.slots in
  let active = core.active in
  core.n_changed <- 0;
  match core.sched with
  | Engine.Full_scan ->
    for i = 0 to core.n_active - 1 do
      let v = Array.unsafe_get active i in
      let base = v * slots in
      if words_differ cur nxt base 0 slots then begin
        core.n_changed <- core.n_changed + 1;
        Array.blit nxt base cur base slots;
        on_change core v
      end
    done
  | Engine.Active_set ->
    let next = core.spare in
    let dirty = core.dirty in
    let off = ctx.off and adj = ctx.adj in
    core.fk <- 0;
    for i = 0 to core.n_active - 1 do
      let v = Array.unsafe_get active i in
      let base = v * slots in
      if words_differ cur nxt base 0 slots then begin
        core.n_changed <- core.n_changed + 1;
        Array.blit nxt base cur base slots;
        on_change core v;
        if not (Array.unsafe_get dirty v) then begin
          Array.unsafe_set dirty v true;
          Array.unsafe_set next core.fk v;
          core.fk <- core.fk + 1
        end;
        for j = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
          let u = Array.unsafe_get adj j in
          if not (Array.unsafe_get dirty u) then begin
            Array.unsafe_set dirty u true;
            Array.unsafe_set next core.fk u;
            core.fk <- core.fk + 1
          end
        done
      end
    done;
    (* dense next set: rebuild ascending from the dirty bitmap for cache
       locality (same threshold as the boxed engine) *)
    if core.fk * 8 >= ctx.n_present then begin
      core.fi <- 0;
      for v = 0 to Array.length dirty - 1 do
        if dirty.(v) then begin
          dirty.(v) <- false;
          next.(core.fi) <- v;
          core.fi <- core.fi + 1
        end
      done
    end
    else
      for i = 0 to core.fk - 1 do
        dirty.(next.(i)) <- false
      done;
    let old = core.active in
    core.active <- next;
    core.spare <- old;
    core.n_active <- core.fk

(* ---------- entry points ---------- *)

let mode_string par =
  if par <= 1 then "flat:seq" else "flat:par:" ^ string_of_int par

let exec ~par ~sched ?trace ?label ~topo ~stop kernel =
  let label = match label with Some l -> l | None -> "flat." ^ kernel.name in
  let tr =
    Engine.begin_trace ?trace ~label ~mode:(mode_string par) ~layout:"flat"
      ~sched ~compile_s:0. ~compile_cached:false topo
  in
  Engine.with_trace tr (fun () ->
      let use_halted = match stop with Engine.Halted _ -> true | _ -> false in
      let core = make_core ~topo ~sched ~par ~use_halted kernel in
      let rounds, exhausted =
        Engine.drive ~trace:tr ~stop
          ~active:(fun () -> core.n_active)
          ~unhalted:(fun () -> core.n_unhalted)
          ~exec:(fun round ->
            compute core round;
            commit core;
            core.n_changed)
      in
      if exhausted then Engine.exhausted stop;
      { slab = core.ctx.cur; slots = core.ctx.slots; rounds })

let run ?(par = 1) ?(sched = Engine.Active_set) ?trace ?label ~topo ~kernel
    ~max_rounds () =
  if kernel.halted = None then
    invalid_arg
      (Printf.sprintf "Flat.run: kernel %S has no halted predicate" kernel.name);
  exec ~par ~sched ?trace ?label ~topo ~stop:(Engine.Halted max_rounds) kernel

let run_until_stable ?(par = 1) ?(sched = Engine.Active_set) ?trace ?label
    ~topo ~kernel ~max_rounds () =
  exec ~par ~sched ?trace ?label ~topo ~stop:(Engine.Stable max_rounds) kernel

let run_rounds ?(par = 1) ?(sched = Engine.Active_set) ?trace ?label ~topo
    ~kernel ~rounds () =
  exec ~par ~sched ?trace ?label ~topo ~stop:(Engine.Rounds rounds) kernel

(* ---------- ported kernels ---------- *)

(* CSR row scans as top-level tail-recursive helpers: fully applied, so
   no closure is allocated per step (the whole zero-alloc claim rides on
   this — see the Gc.minor_words budget test). The [||] / [&&] right
   operands are tail positions, so hub rows cannot overflow the stack. *)

(* some neighbor in row [j .. hi) holds state 1 (flood: reached; MIS:
   joined) *)
let rec row_any_one cur adj j hi =
  j < hi
  && (Array.unsafe_get cur (Array.unsafe_get adj j) = 1
     || row_any_one cur adj (j + 1) hi)

(* [ids] is caller-supplied, not topology-derived, so it keeps its
   bounds check (it is only consulted for undecided neighbors). *)
let rec row_local_max cur adj ids my j hi =
  j >= hi
  || (let u = Array.unsafe_get adj j in
      Array.unsafe_get cur u <> 0 || ids.(u) < my)
     && row_local_max cur adj ids my (j + 1) hi

module Kernels = struct
  let flood ?(source = 0) () =
    {
      name = "flood";
      slots = 1;
      scratch_words = 0;
      init = (fun ~node ~slot:_ -> if node = source then 1 else 0);
      step =
        (fun ctx ~scratch:_ ~round:_ ~node:v ->
          let cur = ctx.cur in
          Array.unsafe_set ctx.nxt v
            (if
               Array.unsafe_get cur v = 1
               || row_any_one cur ctx.adj
                    (Array.unsafe_get ctx.off v)
                    (Array.unsafe_get ctx.off (v + 1))
             then 1
             else 0));
      halted = Some (fun ctx ~node -> ctx.cur.(node) = 1);
    }

  let mis_local_max ~ids =
    {
      name = "mis-local-max";
      slots = 1;
      scratch_words = 0;
      init = (fun ~node:_ ~slot:_ -> 0);
      step =
        (fun ctx ~scratch:_ ~round:_ ~node:v ->
          let cur = ctx.cur in
          let s = Array.unsafe_get cur v in
          let lo = Array.unsafe_get ctx.off v
          and hi = Array.unsafe_get ctx.off (v + 1) in
          Array.unsafe_set ctx.nxt v
            (if s <> 0 then s
             else if row_any_one cur ctx.adj lo hi then 2
             else if row_local_max cur ctx.adj ids ids.(v) lo hi then 1
             else 0));
      halted = Some (fun ctx ~node -> ctx.cur.(node) <> 0);
    }
end
