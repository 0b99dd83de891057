type mode = Seq | Par of int | Proc of int
type scheduling = Stepper.scheduling = Active_set | Full_scan

let mode_to_string = function
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
    else if String.length rest > 1 && rest.[0] = '0' then
      (* a mode prints back to the string it was parsed from *)
      invalid_arg
        (Printf.sprintf "Engine.mode_of_string: %S — count has a leading zero"
           s)
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
             "Engine.mode_of_string: %S — expected seq | par:<n> | proc:<n>"
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

type stop = Halted of int | Stable of int | Rounds of int

let now = Unix.gettimeofday

(* ---------- trace plumbing ---------- *)

let begin_trace ?trace ~label ~mode ~sched topo =
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
      ~n_present:(Topology.n_present topo));
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

(* ---------- the round driver ---------- *)

(* The one synchronous round loop behind every backend; the stop-policy
   table lives in engine.mli. It keeps the flat hot path's
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

let par_grain = Stepper.par_grain
