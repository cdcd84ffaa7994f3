(* Maintenance windows: partial migration under a round budget.

   A demand shift calls for a 20+-round migration, but the operator
   only has a short window tonight.  Which items should move?  The
   deadline planner keeps the heaviest-by-demand rounds of a full
   schedule, so every window recovers the most performance it can, and
   the deferred remainder seeds tomorrow's window.

   Run with:  dune exec examples/maintenance_window.exe *)

let () =
  let rng = Random.State.make [| 61 |] in
  let sc =
    Workloads.Scenarios.rebalance rng ~n_disks:16 ~n_items:800
      ~caps:[ 1; 2; 3 ] ()
  in
  let job =
    Storsim.Cluster.plan_reconfiguration sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  let inst = job.Storsim.Cluster.instance in
  let demands = sc.Workloads.Scenarios.demands in
  let weights e = demands.(job.Storsim.Cluster.items.(e)) in

  let full = Migration.Solver.solve ~rng Migration.Solver.hetero inst in
  Format.printf "full migration: %d items over %d rounds@.@."
    (Migration.Instance.n_items inst)
    (Migration.Schedule.n_rounds full);

  Format.printf "%8s %8s %12s@." "window" "moved" "recovered";
  List.iter
    (fun budget ->
      let r =
        Migration.Deadline.plan_window ~rng:(Random.State.make [| 61 |])
          ~weights inst ~budget
      in
      (match Migration.Schedule.validate inst r.Migration.Deadline.schedule with
      | Ok () ->
          (* a window schedule only covers the moved subset, so the
             full-instance validator must complain about the deferred
             items — and about nothing else *)
          Format.printf "unexpected: window covers everything@."
      | Error _ when r.Migration.Deadline.deferred <> [] -> ()
      | Error msg -> failwith msg);
      Format.printf "%8d %8d %11.1f%%@." budget
        (List.length r.Migration.Deadline.moved)
        (100.0 *. r.Migration.Deadline.moved_weight
        /. r.Migration.Deadline.total_weight))
    [ 2; 5; 8; 12; 18 ];

  (* run two consecutive windows for real: tonight's, then tomorrow's *)
  Format.printf "@.two consecutive 8-round windows:@.";
  let window1 =
    Migration.Deadline.plan_window ~rng:(Random.State.make [| 61 |]) ~weights
      inst ~budget:8
  in
  List.iter
    (fun round ->
      List.iter
        (fun e -> Storsim.Cluster.apply_transfer sc.Workloads.Scenarios.cluster job e)
        round)
    (Array.to_list (Migration.Schedule.rounds window1.Migration.Deadline.schedule));
  let job2 =
    Storsim.Cluster.plan_reconfiguration sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  let rest =
    Migration.Solver.solve ~rng Migration.Solver.hetero
      job2.Storsim.Cluster.instance
  in
  Format.printf
    "  window 1 moved %d items; %d remain, needing %d more rounds@."
    (List.length window1.Migration.Deadline.moved)
    (Migration.Instance.n_items job2.Storsim.Cluster.instance)
    (Migration.Schedule.n_rounds rest)
