module Trace = Tl_engine.Trace

type t = {
  name : string;
  mutable attrs : (string * string) list; (* reverse first-set order *)
  mutable counters : (string * int) list; (* reverse first-use order *)
  mutable rounds : (string * int) list; (* reverse first-charge order *)
  start_s : float;
  mutable elapsed_s : float; (* stamped by finish; -1 while open *)
  mutable children_rev : t list;
}

(* Wall-clock, clamped so elapsed times are never negative (the repo has
   no monotonic clock without a new dependency; gettimeofday matches the
   engine's own timing). *)
let now = Unix.gettimeofday
let elapsed_since t0 = Float.max 0. (now () -. t0)

let mk ?(attrs = []) name =
  {
    name;
    attrs = List.rev attrs;
    counters = [];
    rounds = [];
    start_s = now ();
    elapsed_s = -1.;
    children_rev = [];
  }

let create ?attrs name = mk ?attrs name

(* ---------- ambient stack ---------- *)

let stack : t list ref = ref []
let active () = !stack <> []
let current () = match !stack with [] -> None | s :: _ -> Some s

let install_root t =
  if active () then invalid_arg "Span.install_root: a span is already ambient";
  stack := [ t ]

let rec stamp t =
  if t.elapsed_s < 0. then begin
    t.elapsed_s <- elapsed_since t.start_s;
    List.iter stamp t.children_rev
  end

let finish t =
  stamp t;
  (* an ambient span that gets finished leaves the stack together with
     any still-stacked descendants (the stack is a root-to-current path,
     so everything above [t] belongs to its subtree) *)
  if List.memq t !stack then begin
    let rec drop = function
      | [] -> []
      | s :: rest -> if s == t then rest else drop rest
    in
    stack := drop !stack
  end

let push t = stack := t :: !stack

let pop () =
  match !stack with
  | [] -> ()
  | t :: rest ->
    stamp t;
    stack := rest

let run ?attrs name f =
  let t = mk ?attrs name in
  push t;
  let result = Fun.protect ~finally:pop f in
  (result, t)

let with_span ?attrs name f =
  match !stack with
  | [] -> f ()
  | parent :: _ ->
    let t = mk ?attrs name in
    parent.children_rev <- t :: parent.children_rev;
    push t;
    Fun.protect ~finally:pop f

(* ---------- recording ---------- *)

(* Accumulate under [key], preserving first-use order (same discipline as
   Round_cost). *)
let bump assoc key v =
  let rec go = function
    | [] -> None
    | (k, x) :: rest when k = key -> Some ((k, x + v) :: rest)
    | entry :: rest -> Option.map (fun r -> entry :: r) (go rest)
  in
  match go assoc with Some l -> l | None -> (key, v) :: assoc

let set_attr key value =
  match current () with
  | None -> ()
  | Some t ->
    t.attrs <-
      (if List.mem_assoc key t.attrs then
         List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) t.attrs
       else (key, value) :: t.attrs)

let add_counter key v =
  match current () with
  | None -> ()
  | Some t -> t.counters <- bump t.counters key v

let add_rounds ~phase v =
  match current () with
  | None -> ()
  | Some t -> t.rounds <- bump t.rounds phase v

let add_trace tr =
  match current () with
  | None -> ()
  | Some parent ->
    let m = Trace.metrics tr in
    let child = mk ("engine:" ^ Trace.label tr) in
    child.attrs <-
      List.rev
        [
          ("mode", Trace.mode tr);
          ("scheduling", Trace.scheduling tr);
        ];
    child.counters <-
      List.rev
        [
          ("rounds", m.Trace.rounds);
          ("steps", m.Trace.steps);
          ("naive_steps", m.Trace.naive_steps);
          ("max_active", m.Trace.max_active);
          ("n_present", Trace.n_present tr);
        ];
    child.elapsed_s <- m.Trace.total_s;
    parent.children_rev <- child :: parent.children_rev

(* ---------- accessors ---------- *)

let name t = t.name
let elapsed_s t = if t.elapsed_s >= 0. then t.elapsed_s else elapsed_since t.start_s
let attrs t = List.rev t.attrs
let counters t = List.rev t.counters
let rounds t = List.rev t.rounds
let children t = List.rev t.children_rev
let rounds_self t = List.fold_left (fun acc (_, r) -> acc + r) 0 t.rounds

let rec rounds_total t =
  List.fold_left (fun acc c -> acc + rounds_total c) (rounds_self t) t.children_rev
