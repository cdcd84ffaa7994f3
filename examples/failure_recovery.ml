(* Failure recovery with a mid-migration capability change.

   A disk dies; its data is re-created from replicas and spread across
   the survivors.  During the recovery one of the source disks gets
   hit by a client-traffic spike and its available transfer constraint
   drops from 4 to 1 — the situation the paper's introduction gives
   for why c_v differs across disks and over time.  The execution
   engine models the spike as two slowdowns of disk 0 (each halves
   c_v) and re-plans the remaining transfers under the degraded
   constraints.

   Run with:  dune exec examples/failure_recovery.exe *)

let build () =
  Workloads.Scenarios.failure_recovery
    (Random.State.make [| 13 |])
    ~n_disks:12 ~failed:5 ~n_items:600 ~caps:[ 4; 2; 4; 2 ] ()

(* a fresh scenario per run: the simulator moves the cluster *)
let recover policy =
  let sc = build () in
  let outcome, report =
    Storsim.Simulator.run
      ~rng:(Random.State.make [| 14 |])
      ~choose:(fun _ -> Migration.Solver.hetero)
      ~policy sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  (sc, outcome, report)

let () =
  let sc = build () in
  let job =
    Storsim.Cluster.plan_reconfiguration sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  let inst = job.Storsim.Cluster.instance in
  Format.printf "Disk 5 failed; %d items must be re-created from replicas.@."
    (Migration.Instance.n_items inst);
  Format.printf "Lower bound for the recovery: %d rounds.@.@."
    (Migration.Lower_bounds.lower_bound ~rng:(Random.State.make [| 13 |]) inst);

  let _, _, calm = recover Migration.Engine.no_faults in
  Format.printf "without the spike:@.%a@.@." Storsim.Simulator.pp_report calm;

  let spike =
    Storsim.Fault.engine_policy ~slowdowns:[ (3, 0); (4, 0) ] ~seed:13 ()
  in
  let sc, outcome, report = recover spike in
  Format.printf
    "traffic spike on disk 0 (c=4 -> 2 after round 3, -> 1 after round 4):@.%a@."
    Storsim.Simulator.pp_report report;
  Format.printf "replans: %d@." outcome.Migration.Engine.replans;
  List.iter
    (fun (d, c) -> Format.printf "disk %d ends at c=%d@." d c)
    outcome.Migration.Engine.degraded;
  Format.printf "recovered: %b@.%a@."
    (Storsim.Cluster.reached sc.Workloads.Scenarios.cluster
       ~target:sc.Workloads.Scenarios.target)
    Migration.Certify.pp_exec
    (Migration.Certify.certify_execution outcome.Migration.Engine.execution)
