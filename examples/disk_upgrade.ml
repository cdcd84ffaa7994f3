(* Disk upgrade: heterogeneous expansion.

   A cluster of older disks (c = 2) gains a rack of new devices that
   sustain 6 parallel streams.  Data must spread onto the new disks.
   The example shows (a) the optimal even-constraint scheduler of the
   paper's Section IV at work, and (b) what is lost by treating the
   cluster as homogeneous at the speed of its slowest disk.

   Run with:  dune exec examples/disk_upgrade.exe *)

let build () =
  Workloads.Scenarios.disk_addition
    (Random.State.make [| 7; 7 |])
    ~n_old:12 ~n_new:4 ~n_items:900 ~old_cap:2 ~new_cap:6 ()

let () =
  let sc = build () in
  let job =
    Storsim.Cluster.plan_reconfiguration sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  let inst = job.Storsim.Cluster.instance in
  Format.printf
    "Expansion: 12 old disks (c=2) + 4 new disks (c=6); %d items move.@."
    (Migration.Instance.n_items inst);

  (* all constraints even -> Theorem 4.1 applies: schedule is optimal *)
  let lb1 = Migration.Lower_bounds.lb1 inst in
  let sched = Migration.Solver.solve Migration.Solver.even_opt inst in
  Format.printf "even-opt: %d rounds (LB1 = %d -> provably optimal)@."
    (Migration.Schedule.n_rounds sched) lb1;

  let _, report =
    Storsim.Simulator.run
      ~choose:(fun _ -> Migration.Solver.even_opt)
      ~policy:Migration.Engine.no_faults sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  Format.printf "simulated: %a@.@." Storsim.Simulator.pp_report report;

  (* homogeneous strawman: pretend every disk only does c = 1 *)
  let sc' = build () in
  let job' =
    Storsim.Cluster.plan_reconfiguration sc'.Workloads.Scenarios.cluster
      ~target:sc'.Workloads.Scenarios.target
  in
  let inst1 =
    Migration.Instance.uniform
      (Migration.Instance.graph job'.Storsim.Cluster.instance)
      ~cap:1
  in
  let sched1 = Migration.Solver.solve Migration.Solver.hetero inst1 in
  Format.printf
    "homogeneous strawman (c=1 everywhere): %d rounds — %.1fx more rounds@."
    (Migration.Schedule.n_rounds sched1)
    (float_of_int (Migration.Schedule.n_rounds sched1)
    /. float_of_int (max 1 (Migration.Schedule.n_rounds sched)))
