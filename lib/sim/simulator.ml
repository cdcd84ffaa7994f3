type report = {
  rounds : int;
  wall_time : float;
  per_round : float array;
  items_moved : int;
  max_streams : int;
  mean_utilization : float;
}

let of_execution ~disks (job : Cluster.job) (x : Migration.Certify.execution) =
  let t = Trace.capture_execution ~disks job x in
  let rounds = Trace.n_rounds t in
  let total_cap =
    Array.fold_left (fun acc (d : Disk.t) -> acc + d.Disk.cap) 0 disks
  in
  let max_streams = ref 0 in
  let util_sum = ref 0.0 in
  for round = 0 to rounds - 1 do
    let used = ref 0 in
    for disk = 0 to Trace.n_disks t - 1 do
      let s = Trace.streams t ~round ~disk in
      used := !used + s;
      if s > !max_streams then max_streams := s
    done;
    if total_cap > 0 then
      util_sum := !util_sum +. (float_of_int !used /. float_of_int total_cap)
  done;
  let per_round = Trace.durations t in
  {
    rounds;
    wall_time = Array.fold_left ( +. ) 0.0 per_round;
    per_round;
    items_moved =
      List.fold_left
        (fun acc r -> acc + List.length r.Migration.Certify.completed)
        0 x.Migration.Certify.log;
    max_streams = !max_streams;
    mean_utilization =
      (if rounds = 0 then 1.0 else !util_sum /. float_of_int rounds);
  }

let run ?rng ?jobs ?choose ~policy cluster ~target =
  let job = Cluster.plan_reconfiguration cluster ~target in
  let outcome =
    Migration.Engine.run ?rng ?jobs ?choose ~policy job.Cluster.instance
  in
  let x = outcome.Migration.Engine.execution in
  List.iter
    (fun r ->
      List.iter (Cluster.apply_transfer cluster job) r.Migration.Certify.completed)
    x.Migration.Certify.log;
  (outcome, of_execution ~disks:(Cluster.disks cluster) job x)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>rounds: %d@,wall time: %.2f@,items moved: %d@,max streams: %d@,mean utilization: %.2f@]"
    r.rounds r.wall_time r.items_moved r.max_streams r.mean_utilization
