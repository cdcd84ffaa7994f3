(* Quickstart: the paper's Figure 1 worked example, end to end.

   Build a transfer multigraph, attach heterogeneous transfer
   constraints, compute the lower bounds of Section III, and plan a
   migration with each algorithm.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* The transfer graph: disks v0..v4, one edge per data item to move
     (parallel edges = several items between the same pair of disks). *)
  let g = Mgraph.Graph_gen.example_fig1 () in
  Format.printf "Transfer graph:@.%a@." Mgraph.Multigraph.pp g;

  (* Heterogeneous constraints: v0 and v3 are new fast devices that
     sustain 2 parallel transfers; the rest are older single-stream
     disks. *)
  let caps = [| 2; 1; 1; 2; 1 |] in
  let inst = Migration.Instance.create g ~caps in

  let lb1 = Migration.Lower_bounds.lb1 inst in
  let lb2 = Migration.Lower_bounds.lb2 ~rng:(Random.State.make [| 1 |]) inst in
  Format.printf "Lower bounds: LB1 (degree/constraint) = %d, LB2 (Γ) = %d@."
    lb1 lb2;

  (* Planners are first-class values: Migration.Pipeline.solvers lists
     them all, Migration.Pipeline.find resolves one by name, and the
     Migration.Solver.* built-ins can be used directly. *)
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun s ->
      (* even-opt requires all-even constraints; skip it here *)
      if s.Migration.Solver.can_solve inst then begin
        let sched = Migration.Solver.solve ~rng s inst in
        (match Migration.Schedule.validate inst sched with
        | Ok () -> ()
        | Error msg -> failwith msg);
        Format.printf "@.%s: %d rounds@.%a@." s.Migration.Solver.name
          (Migration.Schedule.n_rounds sched)
          Migration.Schedule.pp sched
      end)
    Migration.Pipeline.solvers;

  (* The "auto" planner is the full pipeline: decompose into connected
     components, pick a solver per component, merge the schedules. *)
  let sched, report =
    Migration.Pipeline.solve ~rng ~choose:Migration.Pipeline.auto_choose inst
  in
  Format.printf "@.pipeline auto: %d rounds over %d component(s)@."
    (Migration.Schedule.n_rounds sched)
    report.Migration.Pipeline.components;
  List.iter
    (fun sel ->
      Format.printf "  component %d -> %s (%d rounds)@."
        sel.Migration.Pipeline.component sel.Migration.Pipeline.solver
        sel.Migration.Pipeline.rounds)
    report.Migration.Pipeline.selections;

  (* the exact optimum, for reference (instance is tiny) *)
  match Migration.Exact.opt_rounds inst with
  | Some opt -> Format.printf "@.exact optimum: %d rounds@." opt
  | None -> Format.printf "@.exact solver gave up@."
