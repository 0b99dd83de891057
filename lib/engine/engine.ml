module Semi_graph = Tl_graph.Semi_graph

type mode = Naive | Seq | Par of int | Proc of int
type scheduling = Stepper.scheduling = Active_set | Full_scan

let mode_to_string = function
  | Naive -> "naive"
  | Seq -> "seq"
  | Par p -> "par:" ^ string_of_int p
  | Proc p -> "proc:" ^ string_of_int p

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let count_suffix s prefix =
  let k = String.length prefix in
  if String.length s >= k && String.sub s 0 k = prefix then begin
    let rest = String.sub s k (String.length s - k) in
    if not (is_digits rest) then
      invalid_arg
        (Printf.sprintf
           "Engine.mode_of_string: %S — expected %s<count> where <count> is a \
            decimal integer"
           s prefix)
    else
      match int_of_string_opt rest with
      | Some p when p >= 1 -> Some p
      | Some _ ->
        invalid_arg
          (Printf.sprintf "Engine.mode_of_string: %S — count must be >= 1" s)
      | None ->
        invalid_arg
          (Printf.sprintf "Engine.mode_of_string: %S — count out of range" s)
  end
  else None

let mode_of_string s =
  if String.trim s <> s then
    invalid_arg
      (Printf.sprintf
         "Engine.mode_of_string: %S has surrounding whitespace (expected e.g. \
          \"seq\" or \"par:4\")"
         s);
  match s with
  | "naive" -> Naive
  | "seq" -> Seq
  | _ -> (
    match count_suffix s "par:" with
    | Some p -> Par p
    | None -> (
      match count_suffix s "proc:" with
      | Some c -> Proc c
      | None ->
        invalid_arg
          (Printf.sprintf
             "Engine.mode_of_string: %S — expected naive | seq | par:<n> | \
              proc:<n>"
             s)))

let sched_to_string = function
  | Active_set -> "active-set"
  | Full_scan -> "full-scan"

let trace_sink : (Trace.t -> unit) option ref = ref None

(* Second per-run delivery hook, owned by Tl_obs.Metrics (which sits
   above this library in the DAG and cannot be called directly from
   here). Kept separate from [trace_sink] so the CLI's --trace and the
   metrics registry can coexist without chaining through each other. *)
let metrics_sink : (Trace.t -> unit) option ref = ref None

(* Fault-injection gate, owned by Tl_fault.Injector (above this library
   in the DAG, like the sinks). Consulted once per committed round;
   [false] interrupts the run at that round boundary — the stepper
   returns the states as committed, [rounds] counting only the executed
   rounds, and skips the max_rounds failure. Disarmed runs pay one ref
   read per round and nothing per node. *)
let fault_gate : (round:int -> bool) option ref = ref None

let gate_open ~round =
  match !fault_gate with None -> true | Some g -> g ~round

type 'state outcome = { states : 'state array; rounds : int }

type 'state step_fn =
  round:int ->
  node:int ->
  'state ->
  neighbors:(int * int * 'state) list ->
  'state

type stop = Halted of int | Stable of int | Rounds of int

let now = Unix.gettimeofday

(* ---------- trace plumbing ---------- *)

let begin_trace ?trace ~label ~mode ~layout ~sched ~compile_s ~compile_cached
    topo =
  let t =
    match trace with
    | Some t -> Some t
    | None ->
      if !trace_sink <> None || !metrics_sink <> None then
        Some (Trace.create ~label ())
      else None
  in
  (match t with
  | None -> ()
  | Some t ->
    Trace.set_meta t ~mode ~scheduling:(sched_to_string sched)
      ~n_base:(Topology.n_base topo)
      ~n_present:(Topology.n_present topo);
    Trace.set_layout t layout;
    Trace.set_compile_s t compile_s;
    Trace.set_compile_cached t compile_cached);
  t

(* Runs [f], then finishes and delivers the trace even if [f] raised
   (so --trace still shows where a diverging run spent its rounds). *)
let with_trace tr f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      match tr with
      | None -> ()
      | Some t ->
        Trace.finish t ~total_s:(now () -. t0);
        (match !trace_sink with Some sink -> sink t | None -> ());
        (match !metrics_sink with Some sink -> sink t | None -> ()))
    f

let record tr ~round ~active ~changed ~unhalted ~t0 =
  Option.iter
    (fun t ->
      Trace.record t
        { Trace.round; active; changed; unhalted; wall_s = now () -. t0 })
    tr

(* ---------- the round driver ---------- *)

(* The one synchronous round loop behind every non-reference backend; the
   stop-policy table lives in engine.mli. It keeps the flat hot path's
   allocation discipline: no closure is built inside the loop, its refs
   never escape (so they live in registers), and the wall clock is read
   only when a trace is attached (the stamp is parked in a float array,
   where stores are unboxed) — an untraced run allocates nothing per
   round. *)
let drive ~trace ~stop ~active ~unhalted ~exec =
  let limit = match stop with Halted m | Stable m | Rounds m -> m in
  let rounds = ref 0 in
  let finished = ref false in
  let interrupted = ref false in
  let tw = [| 0. |] in
  while (not !finished) && !rounds < limit do
    if (match stop with Halted _ -> unhalted () = 0 | _ -> false) then
      finished := true
    else begin
      let a = active () in
      (if a = 0 then
         (* nothing can change again (stationarity): Rounds skips the
            scheduled round but counts it, Stable has its fixed point, and
            Halted has stalled with unhalted nodes left *)
         match stop with Rounds _ -> () | _ -> finished := true
       else begin
         (match trace with None -> () | Some _ -> tw.(0) <- now ());
         let round = !rounds + 1 in
         let changed = exec round in
         (match trace with
         | None -> ()
         | Some t ->
           Trace.record t
             {
               Trace.round;
               active = a;
               changed;
               unhalted = (match stop with Halted _ -> unhalted () | _ -> -1);
               wall_s = now () -. tw.(0);
             });
         match stop with Stable _ when changed = 0 -> finished := true | _ -> ()
       end);
      (* every counted round, skipped ones included, passes the gate *)
      if not !finished then begin
        incr rounds;
        if not (gate_open ~round:!rounds) then begin
          interrupted := true;
          finished := true
        end
      end
    end
  done;
  match stop with
  | Halted _ -> (!rounds, (not !interrupted) && unhalted () > 0)
  | Stable _ -> (!rounds, not !finished)
  | Rounds n -> ((if !interrupted then !rounds else n), false)

let exhausted = function
  | Halted m -> failwith (Printf.sprintf "Engine.run: max_rounds=%d exceeded" m)
  | Stable m ->
    failwith
      (Printf.sprintf "Engine.run_until_stable: max_rounds=%d exceeded" m)
  | Rounds _ -> invalid_arg "Engine.exhausted: a Rounds schedule never exhausts"

(* ---------- the naive reference stepper (legacy port) ---------- *)

(* Exact port of the pre-engine Tl_local.Runtime internals: full scan of
   every present node per round, neighbor gathering through
   Semi_graph.rank2_neighbors, and Array.copy + Array.blit state movement.
   Kept verbatim as the differential-testing reference and the benchmark
   baseline — do not "optimize". *)

let gather_neighbors sg states v =
  List.map
    (fun (u, e) -> (u, e, states.(u)))
    (Semi_graph.rank2_neighbors sg v)

let naive_run ~tr ~topo ~init ~step ~halted ~max_rounds =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let all_halted () =
    let ok = ref true in
    for v = 0 to n - 1 do
      if present.(v) && not (halted states.(v)) then ok := false
    done;
    !ok
  in
  let rounds = ref 0 in
  let interrupted = ref false in
  while (not !interrupted) && (not (all_halted ())) && !rounds < max_rounds do
    let t0 = now () in
    incr rounds;
    let next = Array.copy states in
    for v = 0 to n - 1 do
      if present.(v) then
        next.(v) <-
          step ~round:!rounds ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
    done;
    Array.blit next 0 states 0 n;
    record tr ~round:!rounds ~active:topo.Topology.n_present ~changed:(-1)
      ~unhalted:(-1) ~t0;
    if not (gate_open ~round:!rounds) then interrupted := true
  done;
  if (not !interrupted) && not (all_halted ()) then
    failwith (Printf.sprintf "Engine.run: max_rounds=%d exceeded" max_rounds);
  { states; rounds = !rounds }

let naive_run_until_stable ~tr ~topo ~init ~step ~equal ~max_rounds =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let rounds = ref 0 in
  let stable = ref false in
  let interrupted = ref false in
  while (not !interrupted) && (not !stable) && !rounds < max_rounds do
    let t0 = now () in
    let next = Array.copy states in
    let changed = ref 0 in
    for v = 0 to n - 1 do
      if present.(v) then begin
        let s =
          step ~round:(!rounds + 1) ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
        in
        if not (equal s states.(v)) then incr changed;
        next.(v) <- s
      end
    done;
    record tr ~round:(!rounds + 1) ~active:topo.Topology.n_present
      ~changed:!changed ~unhalted:(-1) ~t0;
    if !changed > 0 then begin
      incr rounds;
      Array.blit next 0 states 0 n;
      if not (gate_open ~round:!rounds) then interrupted := true
    end
    else stable := true
  done;
  if (not !interrupted) && not !stable then
    failwith
      (Printf.sprintf "Engine.run_until_stable: max_rounds=%d exceeded"
         max_rounds);
  { states; rounds = !rounds }

let naive_run_rounds ~tr ~topo ~init ~step ~rounds:total =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let executed = ref 0 in
  let r = ref 1 in
  let interrupted = ref false in
  while (not !interrupted) && !r <= total do
    let t0 = now () in
    let next = Array.copy states in
    for v = 0 to n - 1 do
      if present.(v) then
        next.(v) <-
          step ~round:!r ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
    done;
    Array.blit next 0 states 0 n;
    record tr ~round:!r ~active:topo.Topology.n_present ~changed:(-1)
      ~unhalted:(-1) ~t0;
    executed := !r;
    if not (gate_open ~round:!r) then interrupted := true;
    incr r
  done;
  { states; rounds = (if !interrupted then !executed else total) }

(* ---------- the engine stepper (Seq / Par) ---------- *)

let par_grain = Stepper.par_grain

let engine_exec ~par ~sched ~equal ~tr ~topo ~init ~step ~halted ~stop =
  let csr = Stepper.of_topology topo in
  let states, store = Stepper.boxed csr ~init ~step ~equal ~halted in
  let core = Stepper.create ~sched csr store in
  let rounds, ex =
    drive ~trace:tr ~stop
      ~active:(fun () -> Stepper.n_active core)
      ~unhalted:(fun () -> Stepper.unhalted core)
      ~exec:(fun round -> Stepper.round core ~par ~round)
  in
  if ex then exhausted stop;
  { states; rounds }

(* ---------- public API ---------- *)

(* [naive] is the mode's own reference loop, kept out of the shared
   driver so the differential batteries compare two independent
   implementations. [Proc] steps flat kernels only, through
   [Tl_proc.Coordinator.run_kernel]. *)
let exec_mode ~mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached
    ~topo ~init ~step ~halted ~stop ~naive () =
  let par =
    match mode with
    | Naive | Seq -> 1
    | Par p -> max 1 p
    | Proc _ ->
      invalid_arg
        (Printf.sprintf
           "Engine: mode %s runs flat kernels only \
            (Tl_proc.Coordinator.run_kernel)"
           (mode_to_string mode))
  in
  let tr =
    begin_trace ?trace ~label ~mode:(mode_to_string mode) ~layout:"boxed"
      ~sched ~compile_s ~compile_cached topo
  in
  with_trace tr (fun () ->
      if mode = Naive then naive tr
      else
        engine_exec ~par ~sched ~equal ~tr ~topo ~init ~step ~halted ~stop)

let run ?(mode = Seq) ?(sched = Active_set) ?(equal = Stdlib.( = )) ?trace
    ?(label = "engine.run") ?(compile_s = 0.) ?(compile_cached = false) ~topo
    ~init ~step ~halted ~max_rounds () =
  exec_mode ~mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached ~topo
    ~init ~step ~halted:(Some halted) ~stop:(Halted max_rounds)
    ~naive:(fun tr -> naive_run ~tr ~topo ~init ~step ~halted ~max_rounds)
    ()

let run_until_stable ?(mode = Seq) ?(sched = Active_set) ?trace
    ?(label = "engine.run_until_stable") ?(compile_s = 0.)
    ?(compile_cached = false) ~topo ~init ~step ~equal ~max_rounds () =
  exec_mode ~mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached ~topo
    ~init ~step ~halted:None ~stop:(Stable max_rounds)
    ~naive:(fun tr ->
      naive_run_until_stable ~tr ~topo ~init ~step ~equal ~max_rounds)
    ()

let run_rounds ?(mode = Seq) ?(sched = Active_set) ?(equal = Stdlib.( = ))
    ?trace ?(label = "engine.run_rounds") ?(compile_s = 0.)
    ?(compile_cached = false) ~topo ~init ~step ~rounds () =
  exec_mode ~mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached ~topo
    ~init ~step ~halted:None ~stop:(Rounds rounds)
    ~naive:(fun tr -> naive_run_rounds ~tr ~topo ~init ~step ~rounds)
    ()
