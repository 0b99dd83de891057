(* Flat execution path: int-slab states in the shared round body
   (Stepper), run by the shared Engine.drive round loop — frontier,
   commit and chunking are the boxed engine's own, and only the store
   below differs. The differential battery in test/test_engine.ml holds
   flat and boxed runs together.

   Allocation discipline for the hot path (the whole point of this
   module): no closures in the round loop (helpers that scan CSR rows
   are top-level recursive functions, fully applied — a local [let rec]
   with free variables allocates a closure per call), and the store's
   closures are built once per run. The body and the driver keep the
   same discipline: no ref escapes a loop, and no wall-clock reads
   unless a trace is attached.

   Bounds discipline: the step/publish loops use [Array.unsafe_get]/
   [unsafe_set]. Every index is covered by a CSR invariant — the
   frontier holds stepping nodes [< n_owned], rows [off.(v) .. off.(v+1))
   index [adj], and [adj] entries are [< n_local] — so the checks the
   safe accessors would re-run per word are provably dead. Slab indices
   are [node * slots + slot] with [slot < slots] by construction. *)

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

(* ---------- the flat store ---------- *)

(* any word of node [base/slots]'s slots differs? (tail recursive, top
   level: called per active node per round) *)
let rec words_differ cur nxt base i slots =
  i < slots
  && (Array.unsafe_get nxt (base + i) <> Array.unsafe_get cur (base + i)
     || words_differ cur nxt base (i + 1) slots)

let store (csr : Stepper.csr) ~workers ~halting (k : kernel) =
  let slots = k.slots and init = k.init in
  let cur =
    Array.init (csr.n_local * slots) (fun i ->
        init ~node:(i / slots) ~slot:(i mod slots))
  in
  let nxt = Array.sub cur 0 (csr.n_owned * slots) in
  let ctx =
    {
      n_base = csr.n_local;
      n_present = Array.length csr.nodes;
      off = csr.off;
      adj = csr.adj;
      eid = csr.eid;
      slots;
      cur;
      nxt;
    }
  in
  let scratch =
    Array.init workers (fun _ -> Array.make (max 1 k.scratch_words) 0)
  in
  let kstep = k.step in
  let step ~worker ~round active lo hi =
    let scratch = Array.unsafe_get scratch worker in
    for i = lo to hi - 1 do
      kstep ctx ~scratch ~round ~node:(Array.unsafe_get active i)
    done
  in
  let publish v =
    let base = v * slots in
    words_differ cur nxt base 0 slots
    && begin
         (* a loop, not Array.blit: the C call per publish costs more
            than copying a kernel's few words *)
         for i = base to base + slots - 1 do
           Array.unsafe_set cur i (Array.unsafe_get nxt i)
         done;
         true
       end
  in
  let halted =
    if halting then Option.map (fun h v -> h ctx ~node:v) k.halted else None
  in
  (ctx, { Stepper.step; publish; halted })

(* ---------- entry points ---------- *)

let mode_string par =
  if par <= 1 then "flat:seq" else "flat:par:" ^ string_of_int par

let validate ~stop (kernel : kernel) =
  if kernel.slots < 1 then
    invalid_arg
      (Printf.sprintf "Flat: kernel %S declares slots=%d (must be >= 1)"
         kernel.name kernel.slots);
  match (stop, kernel.halted) with
  | Engine.Halted _, None ->
    invalid_arg
      (Printf.sprintf "Flat: kernel %S has no halted predicate" kernel.name)
  | _ -> ()

let exec ?(par = 1) ?(sched = Engine.Active_set) ?trace ?label ~topo
    ~(kernel : kernel) ~stop () =
  validate ~stop kernel;
  let label = match label with Some l -> l | None -> "flat." ^ kernel.name in
  let tr =
    Engine.begin_trace ?trace ~label ~mode:(mode_string par) ~layout:"flat"
      ~sched ~compile_s:0. ~compile_cached:false topo
  in
  Engine.with_trace tr (fun () ->
      let csr = Stepper.of_topology topo in
      let ctx, store =
        store csr
          ~workers:(max 1 (min par Team.max_workers))
          ~halting:(match stop with Engine.Halted _ -> true | _ -> false)
          kernel
      in
      let core = Stepper.create ~sched csr store in
      let rounds, exhausted =
        Engine.drive ~trace:tr ~stop
          ~active:(fun () -> Stepper.n_active core)
          ~unhalted:(fun () -> Stepper.unhalted core)
          ~exec:(fun round -> Stepper.round core ~par ~round)
      in
      if exhausted then Engine.exhausted stop;
      { slab = ctx.cur; slots = ctx.slots; rounds })

let run ?par ?sched ?trace ?label ~topo ~kernel ~max_rounds () =
  exec ?par ?sched ?trace ?label ~topo ~kernel ~stop:(Engine.Halted max_rounds)
    ()

let run_until_stable ?par ?sched ?trace ?label ~topo ~kernel ~max_rounds () =
  exec ?par ?sched ?trace ?label ~topo ~kernel ~stop:(Engine.Stable max_rounds)
    ()

let run_rounds ?par ?sched ?trace ?label ~topo ~kernel ~rounds () =
  exec ?par ?sched ?trace ?label ~topo ~kernel ~stop:(Engine.Rounds rounds) ()

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
