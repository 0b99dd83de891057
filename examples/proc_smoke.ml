(* Process-backend smoke: digest equality against the sequential
   reference, plus worker-cleanup checks. Exercised by `make proc-smoke`
   and CI.

   Run with:  dune exec examples/proc_smoke.exe

   IMPORTANT ordering: every proc-mode run happens before any par
   run in this program — OCaml 5 forbids fork once a domain has ever
   been spawned, and the coordinator refuses (Proc_failure) rather than
   crash. *)

module Gen = Tl_graph.Gen
module Ids = Tl_local.Ids
module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module CV = Tl_symmetry.Cole_vishkin

let pass name ok =
  Printf.printf "%-46s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then exit 1

let () =
  let n = 20_000 in
  let tree = Gen.random_tree ~n ~seed:42 in
  let ids = Ids.permuted ~n ~seed:7 in
  let sg = Tl_graph.Semi_graph.of_graph tree in
  let topo = Topology.compile sg in
  let parent = Tl_graph.Tree.parents_forest tree in
  let nodes = List.init n Fun.id in
  Printf.printf "instance: random tree, n = %d\n%!" n;

  (* 1. flood fixpoint, proc:{1,2,4} — all runs before any domain work *)
  let flood mode =
    let o =
      Engine.run_until_stable ~mode ~topo
        ~init:(fun v -> v = 0)
        ~step:(fun ~round:_ ~node:_ s ~neighbors ->
          s || List.exists (fun (_, _, su) -> su) neighbors)
        ~equal:Bool.equal ~max_rounds:(n + 1) ()
    in
    (o.Engine.states, o.Engine.rounds)
  in
  let p1 = flood (Engine.Proc 1) in
  let p2 = flood (Engine.Proc 2) in
  let p4 = flood (Engine.Proc 4) in

  (* 2. the Cole-Vishkin 3-coloring state machine under proc:4 *)
  let cv3 mode = CV.color3_runtime ~mode ~sg ~nodes ~parent ~ids () in
  let proc_cv3 = cv3 (Engine.Proc 4) in

  (* 3. crash containment: a step function that throws on a mid-run
     round must surface as Failure with no worker left behind *)
  let crash_ok =
    match
      Engine.run_rounds ~mode:(Engine.Proc 4) ~topo
        ~init:(fun v -> v)
        ~step:(fun ~round ~node s ~neighbors:_ ->
          if round = 2 && node = n / 2 then failwith "boom";
          s + 1)
        ~rounds:4 ()
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

  (* 4. now the in-process references (these may spawn domains) *)
  let s1 = flood Engine.Seq in
  pass "flood digest proc:1 = seq" (p1 = s1);
  pass "flood digest proc:2 = seq" (p2 = s1);
  pass "flood digest proc:4 = seq" (p4 = s1);

  let seq_cv3 = cv3 Engine.Seq in
  pass "CV 3-coloring colors proc:4 = seq" (fst proc_cv3 = fst seq_cv3);
  pass "CV 3-coloring rounds proc:4 = seq" (snd proc_cv3 = snd seq_cv3);

  (* 5. the fork-after-domain guard refuses cleanly (domains may or may
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
