module Engine = Tl_engine.Engine
module Coordinator = Tl_proc.Coordinator

type applied =
  | Crashed of int
  | Recovered of int
  | Dropped of { src : int; dst : int; msgs : int }
  | Killed of int

let applied_to_string = function
  | Crashed v -> Printf.sprintf "crash:%d" v
  | Recovered v -> Printf.sprintf "recover:%d" v
  | Dropped { src; dst; msgs } ->
    Printf.sprintf "drop:%d-%d(%d msgs)" src dst msgs
  | Killed r -> Printf.sprintf "kill:%d" r

(* Drop entries aggregate in place as a run's fired cuts arrive — the
   cell is created on the first count of a (round, src, dst) link and
   bumped by the rest. *)
type drop_cell = { d_round : int; d_src : int; d_dst : int; mutable d_msgs : int }

type cell =
  | C_crash of int * int
  | C_recover of int * int
  | C_drop of drop_cell
  | C_kill of int * int

type t = {
  mutable base : int;
  (* crash / recover events, round-sorted (stable); consumed by cursor *)
  topo : (int * Schedule.event) array;
  mutable cursor : int;
  (* link cuts as (round, a, b), a < b, in schedule order *)
  links : (int * int * int) list;
  fired_drops : (int * int * int, drop_cell) Hashtbl.t;
  (* round -> ranks still to kill at that round *)
  kills : (int, int list) Hashtbl.t;
  mutable log_rev : cell list;
  mutable active : bool;
}

let armed : t option ref = ref None

let set_base t b = t.base <- b
let base t = t.base

let next_topo_round t =
  if t.cursor < Array.length t.topo then Some (fst t.topo.(t.cursor))
  else None

let take_topo_due t ~round =
  let out = ref [] in
  let continue = ref true in
  while !continue && t.cursor < Array.length t.topo do
    let r, e = t.topo.(t.cursor) in
    if r = round then begin
      t.cursor <- t.cursor + 1;
      (match e with
      | Schedule.Crash v -> t.log_rev <- C_crash (r, v) :: t.log_rev
      | Schedule.Recover v -> t.log_rev <- C_recover (r, v) :: t.log_rev
      | Schedule.Drop _ | Schedule.Kill _ -> assert false);
      out := e :: !out
    end
    else continue := false
  done;
  List.rev !out

let log t =
  List.rev_map
    (function
      | C_crash (r, v) -> (r, Crashed v)
      | C_recover (r, v) -> (r, Recovered v)
      | C_drop d -> (d.d_round, Dropped { src = d.d_src; dst = d.d_dst; msgs = d.d_msgs })
      | C_kill (r, k) -> (r, Killed k))
    t.log_rev

let counts t =
  List.fold_left
    (fun (c, rv, d, k) cell ->
      match cell with
      | C_crash _ -> (c + 1, rv, d, k)
      | C_recover _ -> (c, rv + 1, d, k)
      | C_drop _ -> (c, rv, d + 1, k)
      | C_kill _ -> (c, rv, d, k + 1))
    (0, 0, 0, 0) t.log_rev

let gate t ~round =
  match next_topo_round t with
  | None -> true
  | Some r -> t.base + round < r

let cuts t () =
  List.filter_map
    (fun (r, a, b) -> if r > t.base then Some (r - t.base, a, b) else None)
    t.links

let dropped t ~round ~src ~dst ~msgs =
  let key = (t.base + round, min src dst, max src dst) in
  match Hashtbl.find_opt t.fired_drops key with
  | Some cell -> cell.d_msgs <- cell.d_msgs + msgs
  | None ->
    let r, a, b = key in
    let cell = { d_round = r; d_src = a; d_dst = b; d_msgs = msgs } in
    Hashtbl.replace t.fired_drops key cell;
    t.log_rev <- C_drop cell :: t.log_rev

let kill_hook t ~round =
  let abs = t.base + round in
  match Hashtbl.find_opt t.kills abs with
  | None -> []
  | Some ranks ->
    Hashtbl.remove t.kills abs;
    List.iter (fun k -> t.log_rev <- C_kill (abs, k) :: t.log_rev) ranks;
    ranks

let disarm t =
  if t.active then begin
    t.active <- false;
    armed := None;
    Engine.fault_gate := None;
    Coordinator.fault_hooks := None
  end

let arm sched ~n =
  (match !armed with
  | Some _ ->
    invalid_arg "Injector.arm: another fault schedule is already armed"
  | None -> ());
  let events = Schedule.instantiate sched ~n in
  let topo =
    Array.of_list
      (List.filter
         (fun (_, e) ->
           match e with
           | Schedule.Crash _ | Schedule.Recover _ -> true
           | Schedule.Drop _ | Schedule.Kill _ -> false)
         events)
  in
  let links = ref [] and kills = Hashtbl.create 16 in
  List.iter
    (fun (r, e) ->
      match e with
      | Schedule.Drop (a, b) -> links := (r, min a b, max a b) :: !links
      | Schedule.Kill k ->
        let cur = try Hashtbl.find kills r with Not_found -> [] in
        Hashtbl.replace kills r (cur @ [ k ])
      | Schedule.Crash _ | Schedule.Recover _ -> ())
    events;
  let t =
    {
      base = 0;
      topo;
      cursor = 0;
      links = List.rev !links;
      fired_drops = Hashtbl.create 16;
      kills;
      log_rev = [];
      active = true;
    }
  in
  armed := Some t;
  Engine.fault_gate := Some (fun ~round -> gate t ~round);
  Coordinator.fault_hooks :=
    Some
      {
        Coordinator.cuts = cuts t;
        dropped = dropped t;
        kills = kill_hook t;
      };
  t

let with_armed sched ~n f =
  let t = arm sched ~n in
  Fun.protect ~finally:(fun () -> disarm t) (fun () -> f t)
