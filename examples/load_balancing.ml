(* Load balancing: the paper's first motivating scenario.

   A cluster serves items whose popularity follows a Zipf law.  The
   demand distribution shifts between epochs; the layout is recomputed
   and the data must migrate to it as fast as possible, because the
   cluster serves sub-optimally until the migration finishes.

   The example compares planners on the same reconfiguration and shows
   the wall-clock impact of exploiting parallel transfers.

   Run with:  dune exec examples/load_balancing.exe *)

let () =
  let rng = Random.State.make [| 2026 |] in
  let sc =
    Workloads.Scenarios.rebalance rng ~n_disks:16 ~n_items:800 ~zipf_s:1.0
      ~shift_fraction:0.35 ~caps:[ 1; 2; 2; 4 ] ()
  in
  let job =
    Storsim.Cluster.plan_reconfiguration sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  let inst = job.Storsim.Cluster.instance in
  Format.printf "Rebalancing %d disks; %d items must move.@."
    (Storsim.Cluster.n_disks sc.Workloads.Scenarios.cluster)
    (Migration.Instance.n_items inst);
  Format.printf "Certified lower bound: %d rounds.@.@."
    (Migration.Lower_bounds.lower_bound ~rng inst);

  List.iter
    (fun (s : Migration.Solver.t) ->
      (* fresh copies: the simulator mutates placements *)
      let sc =
        Workloads.Scenarios.rebalance
          (Random.State.make [| 2026 |])
          ~n_disks:16 ~n_items:800 ~zipf_s:1.0 ~shift_fraction:0.35
          ~caps:[ 1; 2; 2; 4 ] ()
      in
      let _, report =
        Storsim.Simulator.run ~rng ~choose:(fun _ -> s)
          ~policy:Migration.Engine.no_faults sc.Workloads.Scenarios.cluster
          ~target:sc.Workloads.Scenarios.target
      in
      Format.printf "%-8s %3d rounds   wall %.1f   utilization %.2f@." s.name
        report.Storsim.Simulator.rounds report.Storsim.Simulator.wall_time
        report.Storsim.Simulator.mean_utilization)
    Migration.Solver.[ hetero; saia; greedy ];

  (* what the same migration costs if parallelism is ignored, the
     assumption of most prior work the paper improves on *)
  let sc1 =
    Workloads.Scenarios.rebalance
      (Random.State.make [| 2026 |])
      ~n_disks:16 ~n_items:800 ~zipf_s:1.0 ~shift_fraction:0.35 ~caps:[ 1 ] ()
  in
  let _, report =
    Storsim.Simulator.run ~rng
      ~choose:(fun _ -> Migration.Solver.hetero)
      ~policy:Migration.Engine.no_faults sc1.Workloads.Scenarios.cluster
      ~target:sc1.Workloads.Scenarios.target
  in
  Format.printf "@.single-stream baseline (all c_v = 1): %d rounds, wall %.1f@."
    report.Storsim.Simulator.rounds report.Storsim.Simulator.wall_time
