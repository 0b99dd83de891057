(* Process-backend smoke: the flood and MIS flat kernels on proc:{1,2,4}
   through Coordinator.run_kernel, bit-identical to seq, plus worker
   crash containment. Exercised by `make proc-smoke` and CI.

   Run with:  dune exec examples/proc_smoke.exe

   IMPORTANT ordering: every proc-mode run happens before any par
   run in this program — OCaml 5 forbids fork once a domain has ever
   been spawned, and the coordinator refuses (Proc_failure) rather than
   crash. *)

module Gen = Tl_graph.Gen
module Ids = Tl_local.Ids
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Topology = Tl_engine.Topology
module Proc = Tl_proc.Coordinator

let pass name ok =
  Printf.printf "%-46s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then exit 1

let () =
  let n = 20_000 in
  let tree = Gen.random_tree ~n ~seed:42 in
  let ids = Ids.permuted ~n ~seed:7 in
  let topo = Topology.compile (Tl_graph.Semi_graph.of_graph tree) in
  Printf.printf "instance: random tree, n = %d\n%!" n;
  let run mode kernel_for stop =
    let o = Proc.run_kernel ~mode ~topo ~kernel_for ~stop () in
    (o.Flat.slab, o.Flat.rounds)
  in
  let flood mode =
    run mode (Proc.Kernels.flood ()) (Engine.Stable (n + 1))
  in
  let mis mode =
    run mode (Proc.Kernels.mis_local_max ~ids) (Engine.Halted (n + 1))
  in

  (* 1. flood and MIS, proc:{1,2,4} — all runs before any domain work *)
  let procs = [ 1; 2; 4 ] in
  let floods = List.map (fun p -> (p, flood (Engine.Proc p))) procs in
  let miss = List.map (fun p -> (p, mis (Engine.Proc p))) procs in

  (* 2. crash containment: a kernel whose step throws on a mid-run round
     must surface as Failure with no worker left behind *)
  let boom ~l2g =
    let k = Proc.Kernels.flood () ~l2g in
    {
      k with
      Flat.step =
        (fun ctx ~scratch ~round ~node ->
          if round = 2 && l2g.(node) = n / 2 then failwith "boom";
          k.Flat.step ctx ~scratch ~round ~node);
    }
  in
  let crash_ok =
    match
      Proc.run_kernel ~mode:(Engine.Proc 4) ~sched:Engine.Full_scan ~topo
        ~kernel_for:boom ~stop:(Engine.Rounds 4) ()
    with
    | _ -> false
    | exception Failure msg -> msg = "boom"
  in
  pass "worker exception surfaces as Failure" crash_ok;
  let reaped =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | 0, _ -> false (* a live child is still out there *)
    | _ -> false (* an unreaped zombie was left behind *)
  in
  pass "no zombie workers after a crashed run" reaped;

  (* 3. now the in-process references (these may spawn domains) *)
  let seq_flood = flood Engine.Seq and seq_mis = mis Engine.Seq in
  List.iter
    (fun (p, r) ->
      pass (Printf.sprintf "flood labels and rounds proc:%d = seq" p)
        (r = seq_flood))
    floods;
  List.iter
    (fun (p, r) ->
      pass (Printf.sprintf "MIS labels and rounds proc:%d = seq" p)
        (r = seq_mis))
    miss;

  (* 4. the fork-after-domain guard refuses cleanly (domains may or may
     not have spawned above depending on core count — only assert when
     they did) *)
  if Tl_engine.Team.spawns () > 0 then begin
    let refused =
      match flood (Engine.Proc 2) with
      | _ -> false
      | exception Tl_proc.Wire.Proc_failure _ -> true
    in
    pass "fork-after-domain guard refuses cleanly" refused
  end;
  print_endline "proc smoke: all checks passed"
