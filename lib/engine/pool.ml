type t = { workers : int }

(* Observation hook, owned by Tl_obs.Metrics (above this library in the
   DAG): called once per map on the coordinating domain, before any
   worker runs. *)
let tap : (tasks:int -> workers:int -> unit) option ref = ref None

let create ?(workers = 1) () =
  if workers < 1 then
    invalid_arg
      (Printf.sprintf "Pool.create: workers must be >= 1 (got %d)" workers);
  if workers > Team.max_workers then
    invalid_arg
      (Printf.sprintf "Pool.create: workers must be <= %d (got %d)"
         Team.max_workers workers);
  { workers }

let workers t = t.workers
let prewarm t = Team.prewarm t.workers

(* One slot per task, written by exactly one domain (fixed chunking) and
   read only after the team barrier — the barrier's mutex handshake is
   the happens-before edge publishing both the slots and any task-owned
   shared writes. *)
type 'b slot = Pending | Done of 'b | Raised of exn

let map t ~tasks ~f =
  let n = Array.length tasks in
  let p = min t.workers n in
  (match !tap with Some obs -> obs ~tasks:n ~workers:(max 1 p) | None -> ());
  if p <= 1 then Array.mapi (fun i x -> f ~worker:0 ~index:i x) tasks
  else begin
    let slots = Array.make n Pending in
    let chunk = (n + p - 1) / p in
    Team.run ~workers:p (fun w ->
        let lo = w * chunk and hi = min n ((w + 1) * chunk) in
        for i = lo to hi - 1 do
          slots.(i) <-
            (match f ~worker:w ~index:i tasks.(i) with
            | r -> Done r
            | exception e -> Raised e)
        done);
    Array.mapi
      (fun i slot ->
        match slot with
        | Done r -> r
        | Raised e -> raise e
        | Pending ->
          failwith (Printf.sprintf "Pool.map: task %d never executed" i))
      slots
  end

let map_commit t ~tasks ~work ~commit =
  let results = map t ~tasks ~f:work in
  Array.iteri (fun i r -> commit ~index:i r) results
