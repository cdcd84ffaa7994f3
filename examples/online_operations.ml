(* Operations view: live request streams, execution traces, and the
   cost of round barriers.

   Shows the features around the core scheduler: the per-disk Gantt
   trace of a migration, the same work executed without round
   barriers, and a request stream served online by the migration
   service (Service), which batches arrivals into epochs and replans
   the outstanding work.

   Run with:  dune exec examples/online_operations.exe *)

let () =
  let rng = Random.State.make [| 404 |] in
  let n_disks = 10 and n_items = 300 in
  let caps = Array.init n_disks (fun i -> 1 + (i mod 3)) in
  let disks =
    Array.mapi (fun id cap -> Storsim.Disk.make ~id ~cap ()) caps
  in
  let before =
    Storsim.Placement.create ~n_items (fun _ -> Random.State.int rng n_disks)
  in

  (* one-shot migration, traced *)
  let target =
    Storsim.Placement.create ~n_items (fun _ -> Random.State.int rng n_disks)
  in
  let cluster = Storsim.Cluster.create ~disks ~placement:before in
  let job = Storsim.Cluster.plan_reconfiguration cluster ~target in
  let sched =
    Migration.Solver.solve ~rng Migration.Solver.hetero
      job.Storsim.Cluster.instance
  in
  Format.printf "=== migration trace (%d moves) ===@."
    (Migration.Instance.n_items job.Storsim.Cluster.instance);
  print_string
    (Storsim.Trace.render (Storsim.Trace.capture ~disks job sched));

  (* the same transfers without round barriers *)
  let barrier = Storsim.Bandwidth.schedule_duration ~disks job sched in
  let async =
    Storsim.Async_exec.run ~disks job (Storsim.Async_exec.By_schedule sched)
  in
  Format.printf
    "@.barriers: %.1f   work-conserving: %.1f   (%.0f%% saved)@.@." barrier
    async.Storsim.Async_exec.makespan
    (100.0 *. (barrier -. async.Storsim.Async_exec.makespan) /. barrier);

  (* a request stream handled online by the migration service *)
  let requests =
    List.init 6 (fun k ->
        {
          Service.at = k * 3;
          tenant = 0;
          trigger =
            Service.Retarget
              (List.init 20 (fun _ ->
                   (Random.State.int rng n_items, Random.State.int rng n_disks)));
        })
  in
  let report =
    Service.run ~rng_seed:404
      {
        Service.caps = caps;
        placement = Storsim.Placement.to_array before;
        demands = Array.make n_items 1.0;
      }
      ~requests ()
  in
  Format.printf "=== online request stream ===@.";
  Format.printf "6 requests, ~20 moves each, arriving every 3 rounds@.";
  Format.printf "total rounds %d, epochs %d, transfers %d@."
    report.Service.total_rounds report.Service.epochs report.Service.transfers;
  List.iter
    (fun (i, l) -> Format.printf "  request %d completed %d rounds after arrival@." i l)
    report.Service.latencies;
  Format.printf "flight log certified: %b@."
    (Migration.Certify.service_ok
       (Migration.Certify.certify_service report.Service.execution))
