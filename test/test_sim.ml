(* Tests for the storage simulator: Disk, Placement, Cluster,
   Bandwidth (the Figure 2 cost model), Simulator and Fault over the
   execution engine, and online request streams served by Service. *)

module S = Storsim
module M = Migration
open Test_util

let rng () = rng_of_int 2024

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk () =
  let d = S.Disk.make ~id:3 ~bandwidth:2.0 ~cap:4 () in
  Alcotest.(check (float 1e-9)) "one stream" 2.0 (S.Disk.stream_rate d ~streams:1);
  Alcotest.(check (float 1e-9)) "four streams" 0.5 (S.Disk.stream_rate d ~streams:4);
  Alcotest.check_raises "bad cap" (Invalid_argument "Disk.make: capacity must be >= 1")
    (fun () -> ignore (S.Disk.make ~id:0 ~cap:0 ()));
  Alcotest.check_raises "bad bw"
    (Invalid_argument "Disk.make: bandwidth must be positive") (fun () ->
      ignore (S.Disk.make ~id:0 ~bandwidth:0.0 ~cap:1 ()))

(* ------------------------------------------------------------------ *)
(* Placement *)

let test_placement () =
  let p = S.Placement.create ~n_items:6 (fun i -> i mod 3) in
  Alcotest.(check int) "disk of" 2 (S.Placement.disk_of p 2);
  Alcotest.(check (list int)) "items on 0" [ 0; 3 ] (S.Placement.items_on p ~disk:0);
  Alcotest.(check (array int)) "load" [| 2; 2; 2 |] (S.Placement.load p ~n_disks:3);
  S.Placement.move p ~item:0 ~target:1;
  Alcotest.(check int) "after move" 1 (S.Placement.disk_of p 0);
  let q = S.Placement.create ~n_items:6 (fun i -> i mod 3) in
  let moves = S.Placement.diff p q in
  Alcotest.(check (list (triple int int int))) "diff" [ (0, 1, 0) ] moves;
  Alcotest.(check bool) "equal after replay" true
    (let p' = S.Placement.copy p in
     List.iter (fun (i, _, d) -> S.Placement.move p' ~item:i ~target:d) moves;
     S.Placement.equal p' q)

(* ------------------------------------------------------------------ *)
(* Cluster *)

let mk_cluster ?(caps = [| 2; 2; 2 |]) ?(bw = fun _ -> 1.0) placement =
  let disks =
    Array.mapi (fun id cap -> S.Disk.make ~id ~bandwidth:(bw id) ~cap ()) caps
  in
  S.Cluster.create ~disks ~placement

let test_cluster_plan () =
  let before = S.Placement.of_array [| 0; 0; 1; 2 |] in
  let target = S.Placement.of_array [| 1; 0; 1; 0 |] in
  let c = mk_cluster before in
  let job = S.Cluster.plan_reconfiguration c ~target in
  let inst = job.S.Cluster.instance in
  Alcotest.(check int) "two moves" 2 (M.Instance.n_items inst);
  (* edge for item 0: 0 -> 1; edge for item 3: 2 -> 0 *)
  let by_item = Hashtbl.create 4 in
  Array.iteri (fun e item -> Hashtbl.add by_item item e) job.S.Cluster.items;
  let e0 = Hashtbl.find by_item 0 and e3 = Hashtbl.find by_item 3 in
  Alcotest.(check (pair int int)) "item 0 edge" (0, 1)
    (job.S.Cluster.sources.(e0), job.S.Cluster.targets.(e0));
  Alcotest.(check (pair int int)) "item 3 edge" (2, 0)
    (job.S.Cluster.sources.(e3), job.S.Cluster.targets.(e3));
  S.Cluster.apply_transfer c job e0;
  Alcotest.(check int) "applied" 1
    (S.Placement.disk_of (S.Cluster.placement c) 0)

let test_cluster_guards () =
  let p = S.Placement.of_array [| 0; 5 |] in
  Alcotest.check_raises "bad placement"
    (Invalid_argument "Cluster.create: placement references unknown disk")
    (fun () -> ignore (mk_cluster p))

(* ------------------------------------------------------------------ *)
(* Bandwidth: the Figure 2 accounting *)

let fig2_job m cap =
  let g = Mgraph.Graph_gen.triangle_stack m in
  let inst = M.Instance.uniform g ~cap in
  let disks = Array.init 3 (fun id -> S.Disk.make ~id ~cap ()) in
  let mg = Mgraph.Multigraph.endpoints g in
  let job =
    {
      S.Cluster.instance = inst;
      items = Array.init (3 * m) Fun.id;
      sources = Array.init (3 * m) (fun e -> fst (mg e));
      targets = Array.init (3 * m) (fun e -> snd (mg e));
    }
  in
  (disks, inst, job)

let test_fig2_homogeneous () =
  (* c = 1: only one edge of the triangle can move per round; 3M rounds
     of duration 1 -> total 3M *)
  let m = 5 in
  let disks, inst, job = fig2_job m 1 in
  let s = M.Solver.solve ~rng:(rng ()) M.Solver.hetero inst in
  check_valid_schedule inst s "fig2 c1";
  Alcotest.(check int) "3M rounds" (3 * m) (M.Schedule.n_rounds s);
  Alcotest.(check (float 1e-9)) "3M time" (float_of_int (3 * m))
    (S.Bandwidth.schedule_duration ~disks job s)

let test_fig2_parallel () =
  (* c = 2: M rounds, each moving a full triangle at half bandwidth
     (duration 2) -> total 2M, the paper's improvement *)
  let m = 5 in
  let disks, inst, job = fig2_job m 2 in
  let s = M.Solver.solve M.Solver.even_opt inst in
  check_valid_schedule inst s "fig2 c2";
  Alcotest.(check int) "M rounds" m (M.Schedule.n_rounds s);
  Alcotest.(check (float 1e-9)) "2M time" (float_of_int (2 * m))
    (S.Bandwidth.schedule_duration ~disks job s)

(* Figure 2 through the execution path: a cluster whose placement diff
   is the triangle stack, migrated fault-free by Simulator.run *)
let test_fig2_simulated () =
  let m = 5 in
  let ends = Mgraph.Multigraph.endpoints (Mgraph.Graph_gen.triangle_stack m) in
  List.iter
    (fun (cap, rounds, wall) ->
      let c =
        mk_cluster ~caps:[| cap; cap; cap |]
          (S.Placement.create ~n_items:(3 * m) (fun e -> fst (ends e)))
      in
      let target = S.Placement.create ~n_items:(3 * m) (fun e -> snd (ends e)) in
      let _, r =
        S.Simulator.run ~rng:(rng ()) ~policy:M.Engine.no_faults c ~target
      in
      Alcotest.(check int) (Printf.sprintf "c=%d rounds" cap) rounds
        r.S.Simulator.rounds;
      Alcotest.(check (float 1e-9)) (Printf.sprintf "c=%d wall" cap) wall
        r.S.Simulator.wall_time)
    [ (1, 3 * m, float_of_int (3 * m)); (2, m, float_of_int (2 * m)) ]

let test_round_duration_cases () =
  let disks = Array.init 4 (fun id -> S.Disk.make ~id ~cap:4 ()) in
  Alcotest.(check (float 1e-9)) "empty round" 0.0
    (S.Bandwidth.round_duration ~disks ~transfers:[] ());
  Alcotest.(check (float 1e-9)) "single transfer" 1.0
    (S.Bandwidth.round_duration ~disks ~transfers:[ (0, 1) ] ());
  (* node 0 runs two streams: each at rate 1/2 *)
  Alcotest.(check (float 1e-9)) "fan out" 2.0
    (S.Bandwidth.round_duration ~disks ~transfers:[ (0, 1); (0, 2) ] ());
  (* disjoint transfers stay at full rate *)
  Alcotest.(check (float 1e-9)) "disjoint" 1.0
    (S.Bandwidth.round_duration ~disks ~transfers:[ (0, 1); (2, 3) ] ());
  (* heterogeneous bandwidth: the slow disk dominates *)
  let disks2 =
    [|
      S.Disk.make ~id:0 ~bandwidth:0.5 ~cap:2 ();
      S.Disk.make ~id:1 ~bandwidth:4.0 ~cap:2 ();
    |]
  in
  Alcotest.(check (float 1e-9)) "slow disk dominates" 2.0
    (S.Bandwidth.round_duration ~disks:disks2 ~transfers:[ (0, 1) ] ())

(* ------------------------------------------------------------------ *)
(* Simulator: placement diff -> Engine.run -> completed transfers *)

let random_cluster rng ~n_disks ~n_items =
  let caps = Array.init n_disks (fun i -> 1 + (i mod 4)) in
  let before =
    S.Placement.create ~n_items (fun _ -> Random.State.int rng n_disks)
  in
  let target =
    S.Placement.create ~n_items (fun _ -> Random.State.int rng n_disks)
  in
  let disks = Array.mapi (fun id cap -> S.Disk.make ~id ~cap ()) caps in
  (S.Cluster.create ~disks ~placement:before, before, target)

let cluster_gen =
  QCheck2.Gen.(
    let* seed = int_bound 100_000 in
    let* n_disks = int_range 3 10 in
    let* n_items = int_range 1 60 in
    return (seed, n_disks, n_items))

let simulator_reaches_target =
  qtest "simulator: run reaches the target placement" ~count:40 cluster_gen
    (fun (seed, n_disks, n_items) ->
      let rng = rng_of_int seed in
      let c, before, target = random_cluster rng ~n_disks ~n_items in
      let _, report =
        S.Simulator.run ~rng ~policy:M.Engine.no_faults c ~target
      in
      S.Cluster.reached c ~target
      && report.S.Simulator.items_moved
         = List.length (S.Placement.diff before target))

(* under faults the report is a fold over the flight log: it agrees
   with the chart of the same log, counts completed transfers only,
   and the cluster holds every item where its last transfer left it *)
let simulator_fault_fold =
  qtest "simulator: report folds the flight log under faults" ~count:40
    cluster_gen
    (fun (seed, n_disks, n_items) ->
      let rng = rng_of_int seed in
      let c, _, target = random_cluster rng ~n_disks ~n_items in
      let job = S.Cluster.plan_reconfiguration c ~target in
      let crashes, slowdowns =
        S.Fault.random_calamities rng ~n_disks ~horizon:4 ~crashes:(seed mod 2)
          ~slowdowns:1
      in
      let policy =
        S.Fault.engine_policy ~fault_rate:(float_of_int (seed mod 5) /. 10.0)
          ~crashes ~slowdowns ~seed ()
      in
      let o, report = S.Simulator.run ~rng ~policy c ~target in
      let x = o.M.Engine.execution in
      let t = S.Trace.capture_execution ~disks:(S.Cluster.disks c) job x in
      let quarantined = Array.make (Array.length job.S.Cluster.items) false in
      List.iter (fun (e, _) -> quarantined.(e) <- true) o.M.Engine.quarantined;
      M.Certify.exec_ok (M.Certify.certify_execution x)
      && report.S.Simulator.rounds = S.Trace.n_rounds t
      && Float.abs
           (report.S.Simulator.wall_time
           -. Array.fold_left ( +. ) 0.0 (S.Trace.durations t))
         < 1e-9
      && report.S.Simulator.items_moved = o.M.Engine.completed
      && Array.for_all Fun.id
           (Array.mapi
              (fun e item ->
                S.Placement.disk_of (S.Cluster.placement c) item
                = (if quarantined.(e) then job.S.Cluster.sources.(e)
                   else job.S.Cluster.targets.(e)))
              job.S.Cluster.items))

(* a planner that packs every transfer into one round: the engine's
   certification rejects the plan before any transfer runs *)
let test_simulator_infeasible_detected () =
  let before = S.Placement.of_array [| 0; 0 |] in
  let target = S.Placement.of_array [| 1; 1 |] in
  let c = mk_cluster ~caps:[| 1; 1 |] before in
  let one_round =
    {
      M.Solver.greedy with
      M.Solver.name = "one-round";
      solve =
        (fun _ inst ->
          M.Schedule.of_rounds [| List.init (M.Instance.n_items inst) Fun.id |]);
    }
  in
  (match
     S.Simulator.run ~choose:(fun _ -> one_round) ~policy:M.Engine.no_faults c
       ~target
   with
  | _ -> Alcotest.fail "expected Plan_rejected"
  | exception M.Engine.Plan_rejected _ -> ());
  Alcotest.(check bool) "cluster untouched" true
    (S.Placement.equal (S.Cluster.placement c) before)

let test_simulator_report () =
  let before = S.Placement.of_array [| 0; 0; 1 |] in
  let target = S.Placement.of_array [| 1; 2; 1 |] in
  let c = mk_cluster before in
  let _, report =
    S.Simulator.run ~choose:(fun _ -> M.Solver.greedy)
      ~policy:M.Engine.no_faults c ~target
  in
  Alcotest.(check int) "moved" 2 report.S.Simulator.items_moved;
  Alcotest.(check bool) "positive time" true (report.S.Simulator.wall_time > 0.0);
  Alcotest.(check bool) "utilization sane" true
    (report.S.Simulator.mean_utilization > 0.0
    && report.S.Simulator.mean_utilization <= 1.0)

(* ------------------------------------------------------------------ *)
(* Fault: capability changes land mid-flight through the engine *)

let run_with_slowdowns sc slowdowns =
  S.Simulator.run ~rng:(rng ())
    ~policy:(S.Fault.engine_policy ~slowdowns ~seed:1 ())
    sc.Workloads.Scenarios.cluster ~target:sc.Workloads.Scenarios.target

let reached sc =
  S.Cluster.reached sc.Workloads.Scenarios.cluster
    ~target:sc.Workloads.Scenarios.target

let test_fault_degrade () =
  let sc =
    Workloads.Scenarios.rebalance (rng ()) ~n_disks:8 ~n_items:200
      ~caps:[ 2; 4 ] ()
  in
  let o, report = run_with_slowdowns sc [ (2, 1) ] in
  Alcotest.(check bool) "reached" true (reached sc);
  Alcotest.(check (list (pair int int))) "disk 1 halved" [ (1, 2) ]
    o.M.Engine.degraded;
  Alcotest.(check int) "rounds add up" o.M.Engine.total_rounds
    (report.S.Simulator.rounds + o.M.Engine.idle_rounds)

let test_fault_immediate () =
  (* the change lands in the very first round: every later plan runs
     under the degraded constraint *)
  let sc =
    Workloads.Scenarios.rebalance (rng ()) ~n_disks:6 ~n_items:100 ~caps:[ 3 ] ()
  in
  let o, _ = run_with_slowdowns sc [ (0, 0) ] in
  Alcotest.(check bool) "reached" true (reached sc);
  match o.M.Engine.execution.M.Certify.log with
  | first :: _ ->
      Alcotest.(check (list (pair int int))) "slowed in round 0" [ (0, 1) ]
        first.M.Certify.slowed
  | [] -> Alcotest.fail "nothing executed"

let test_fault_guards () =
  (* a constraint never drops below 1, however many slowdowns land *)
  let sc =
    Workloads.Scenarios.rebalance (rng ()) ~n_disks:4 ~n_items:20 ~caps:[ 2 ] ()
  in
  let o, _ = run_with_slowdowns sc (List.init 6 (fun r -> (r, 0))) in
  Alcotest.(check bool) "reached" true (reached sc);
  Alcotest.(check (list (pair int int))) "floored at 1" [ (0, 1) ]
    o.M.Engine.degraded

(* ------------------------------------------------------------------ *)
(* Engine fault policies *)

let decisions policy ~rounds ~attempted =
  List.init rounds (fun r -> policy.M.Engine.decide ~round:r ~attempted)

let test_engine_policy_deterministic () =
  (* decisions are a pure function of (seed, consultation history):
     two policies from the same seed, consulted identically, must agree
     on every draw *)
  let mk seed =
    S.Fault.engine_policy ~fault_rate:0.3 ~crashes:[ (4, 2) ]
      ~slowdowns:[ (2, 5) ] ~seed ()
  in
  let attempted = List.init 10 Fun.id in
  let a = decisions (mk 99) ~rounds:8 ~attempted in
  let b = decisions (mk 99) ~rounds:8 ~attempted in
  Alcotest.(check bool) "same seed, same decisions" true (a = b);
  let c = decisions (mk 100) ~rounds:8 ~attempted in
  Alcotest.(check bool) "different seed, different draws" true (a <> c)

let test_engine_policy_scheduled_events () =
  (* with rate 0 the policy is exactly its event script *)
  let p =
    S.Fault.engine_policy ~crashes:[ (3, 1) ] ~slowdowns:[ (5, 2) ] ~seed:1 ()
  in
  for r = 0 to 7 do
    let faults = p.M.Engine.decide ~round:r ~attempted:[ 0; 1 ] in
    let expected =
      if r = 3 then [ M.Engine.Crash_disk 1 ]
      else if r = 5 then [ M.Engine.Slow_disk 2 ]
      else []
    in
    Alcotest.(check bool) (Printf.sprintf "round %d" r) true (faults = expected)
  done

let test_engine_policy_rate () =
  (* rate 0: silent forever *)
  let quiet = S.Fault.engine_policy ~seed:5 () in
  for r = 0 to 20 do
    Alcotest.(check bool) "no faults at rate 0" true
      (quiet.M.Engine.decide ~round:r ~attempted:(List.init 6 Fun.id) = [])
  done;
  (* high rate: failures happen, and only ever name attempted edges *)
  let p = S.Fault.engine_policy ~fault_rate:0.9 ~seed:3 () in
  let attempted = [ 2; 7; 11 ] in
  let all =
    List.concat (List.init 30 (fun r -> p.M.Engine.decide ~round:r ~attempted))
  in
  Alcotest.(check bool) "some failures at rate 0.9" true (all <> []);
  Alcotest.(check bool) "only attempted edges fail" true
    (List.for_all
       (function
         | M.Engine.Fail_transfer e -> List.mem e attempted
         | _ -> false)
       all)

let test_engine_policy_guards () =
  Alcotest.check_raises "rate 1"
    (Invalid_argument "Fault.engine_policy: fault_rate must be in [0, 1)")
    (fun () -> ignore (S.Fault.engine_policy ~fault_rate:1.0 ~seed:0 ()));
  Alcotest.check_raises "negative round"
    (Invalid_argument "Fault.engine_policy: negative round") (fun () ->
      ignore (S.Fault.engine_policy ~crashes:[ (-1, 0) ] ~seed:0 ()))

let test_random_calamities () =
  let draw seed =
    S.Fault.random_calamities (rng_of_int seed) ~n_disks:10 ~horizon:6
      ~crashes:3 ~slowdowns:4
  in
  let crashes, slows = draw 11 in
  Alcotest.(check int) "crash count" 3 (List.length crashes);
  Alcotest.(check int) "slowdown count" 4 (List.length slows);
  let disks = List.map snd (crashes @ slows) in
  Alcotest.(check int) "distinct disks" 7
    (List.length (List.sort_uniq compare disks));
  List.iter
    (fun (r, d) ->
      Alcotest.(check bool) "round in [0, horizon)" true (r >= 0 && r < 6);
      Alcotest.(check bool) "disk in range" true (d >= 0 && d < 10))
    (crashes @ slows);
  Alcotest.(check bool) "deterministic under the rng seed" true
    (draw 11 = draw 11);
  Alcotest.check_raises "too many events"
    (Invalid_argument "Fault.random_calamities: more events than disks")
    (fun () ->
      ignore
        (S.Fault.random_calamities (rng_of_int 0) ~n_disks:2 ~horizon:4
           ~crashes:2 ~slowdowns:1))

let test_trace_capture_execution () =
  (* an executed (faulty) migration charts like a plan: one column per
     executed round, streams counted from the attempted lists *)
  let caps = Array.init 6 (fun i -> 1 + (i mod 3)) in
  let disks = Array.mapi (fun id cap -> S.Disk.make ~id ~cap ()) caps in
  let g = Mgraph.Multigraph.create ~n:6 () in
  let n_items = 30 in
  let rng = rng_of_int 41 in
  let items = Array.init n_items Fun.id in
  let sources = Array.make n_items 0 and targets = Array.make n_items 0 in
  for e = 0 to n_items - 1 do
    let u = Random.State.int rng 6 in
    let v = (u + 1 + Random.State.int rng 5) mod 6 in
    ignore (Mgraph.Multigraph.add_edge g u v);
    sources.(e) <- u;
    targets.(e) <- v
  done;
  let inst = M.Instance.create g ~caps in
  let job = { S.Cluster.instance = inst; items; sources; targets } in
  let policy = S.Fault.engine_policy ~fault_rate:0.2 ~seed:17 () in
  let outcome = M.Engine.run ~rng:(rng_of_int 41) ~policy inst in
  let exec = outcome.M.Engine.execution in
  Alcotest.(check bool) "execution certifies" true
    (M.Certify.exec_ok (M.Certify.certify_execution exec));
  let t = S.Trace.capture_execution ~disks job exec in
  Alcotest.(check int) "one column per executed round"
    (List.length exec.M.Certify.log)
    (S.Trace.n_rounds t);
  Alcotest.(check int) "disks" 6 (S.Trace.n_disks t);
  Array.iter
    (fun u ->
      Alcotest.(check bool) "utilization in [0,1]" true
        (u >= 0.0 && u <= 1.0 +. 1e-9))
    (S.Trace.utilization_by_disk t);
  Alcotest.(check bool) "renders" true (String.length (S.Trace.render t) > 0)

(* ------------------------------------------------------------------ *)
(* Async_exec *)

let random_job seed n_disks n_items =
  let rng = rng_of_int seed in
  let caps = Array.init n_disks (fun i -> 1 + (i mod 3)) in
  let disks = Array.mapi (fun id cap -> S.Disk.make ~id ~cap ()) caps in
  let g = Mgraph.Multigraph.create ~n:n_disks () in
  let items = Array.init n_items Fun.id in
  let sources = Array.make n_items 0 and targets = Array.make n_items 0 in
  for e = 0 to n_items - 1 do
    let u = Random.State.int rng n_disks in
    let rec pick () =
      let v = Random.State.int rng n_disks in
      if v = u then pick () else v
    in
    let v = pick () in
    ignore (Mgraph.Multigraph.add_edge g u v);
    sources.(e) <- u;
    targets.(e) <- v
  done;
  let inst = M.Instance.create g ~caps in
  (disks, { S.Cluster.instance = inst; items; sources; targets })

let test_async_single_transfer () =
  let disks = Array.init 2 (fun id -> S.Disk.make ~id ~cap:1 ()) in
  let g = Mgraph.Multigraph.create ~n:2 () in
  ignore (Mgraph.Multigraph.add_edge g 0 1);
  let job =
    {
      S.Cluster.instance = M.Instance.create g ~caps:[| 1; 1 |];
      items = [| 0 |];
      sources = [| 0 |];
      targets = [| 1 |];
    }
  in
  let r = S.Async_exec.run ~disks job S.Async_exec.Fifo in
  Alcotest.(check (float 1e-9)) "unit transfer" 1.0 r.S.Async_exec.makespan;
  Alcotest.(check int) "max active" 1 r.S.Async_exec.max_active

let test_async_contention () =
  (* two transfers out of one cap-1 disk must serialize *)
  let disks = Array.init 3 (fun id -> S.Disk.make ~id ~cap:1 ()) in
  let g = Mgraph.Multigraph.create ~n:3 () in
  ignore (Mgraph.Multigraph.add_edge g 0 1);
  ignore (Mgraph.Multigraph.add_edge g 0 2);
  let job =
    {
      S.Cluster.instance = M.Instance.create g ~caps:[| 1; 1; 1 |];
      items = [| 0; 1 |];
      sources = [| 0; 0 |];
      targets = [| 1; 2 |];
    }
  in
  let r = S.Async_exec.run ~disks job S.Async_exec.Fifo in
  Alcotest.(check (float 1e-9)) "serialized" 2.0 r.S.Async_exec.makespan

let async_completes_everything =
  qtest "async: all items transferred, makespan sane" ~count:40
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let disks, job = random_job seed 8 40 in
      let r = S.Async_exec.run ~disks job S.Async_exec.Fifo in
      Array.for_all (fun (e : S.Async_exec.event) -> e.S.Async_exec.finish > 0.0)
        r.S.Async_exec.events
      && r.S.Async_exec.makespan > 0.0
      && Array.for_all
           (fun (e : S.Async_exec.event) ->
             e.S.Async_exec.finish <= r.S.Async_exec.makespan +. 1e-6)
           r.S.Async_exec.events)

(* Dropping barriers is usually faster but not always: greedy
   work-conserving admission has Graham-style anomalies under
   bandwidth splitting.  The sound property is the 2x list-scheduling
   bound; the typical-case advantage is measured in benchmark E15. *)
let async_within_list_scheduling_bound =
  qtest "async: within 2x of the barrier execution either way" ~count:25
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let disks, job = random_job seed 8 50 in
      let sched =
        M.Solver.solve ~rng:(rng_of_int seed) M.Solver.hetero
          job.S.Cluster.instance
      in
      let barrier = S.Bandwidth.schedule_duration ~disks job sched in
      let async =
        S.Async_exec.run ~disks job (S.Async_exec.By_schedule sched)
      in
      async.S.Async_exec.makespan <= (2.0 *. barrier) +. 1e-6
      && barrier <= (2.0 *. async.S.Async_exec.makespan) +. 1e-6)

let test_async_beats_barriers_on_stragglers () =
  (* two disjoint transfers plus one conflicting with the first: with
     barriers the round structure forces idle waiting; asynchronously
     the third transfer starts the moment its disk frees up *)
  let disks = Array.init 4 (fun id -> S.Disk.make ~id ~cap:1 ()) in
  let g = Mgraph.Multigraph.create ~n:4 () in
  ignore (Mgraph.Multigraph.add_edge g 0 1);
  ignore (Mgraph.Multigraph.add_edge g 2 3);
  ignore (Mgraph.Multigraph.add_edge g 2 1);
  let job =
    {
      S.Cluster.instance = M.Instance.create g ~caps:[| 1; 1; 1; 1 |];
      items = [| 0; 1; 2 |];
      sources = [| 0; 2; 2 |];
      targets = [| 1; 3; 1 |];
    }
  in
  let r = S.Async_exec.run ~disks job S.Async_exec.Fifo in
  Alcotest.(check (float 1e-9)) "two units" 2.0 r.S.Async_exec.makespan

let test_async_bad_schedule_policy () =
  let disks, job = random_job 1 4 6 in
  let partial = M.Schedule.of_rounds [| [ 0 ] |] in
  Alcotest.check_raises "missing edges"
    (Invalid_argument "Async_exec: edge 1 missing from schedule") (fun () ->
      ignore (S.Async_exec.run ~disks job (S.Async_exec.By_schedule partial)))

(* ------------------------------------------------------------------ *)
(* sized transfers *)

let test_sized_round_duration () =
  let disks = Array.init 2 (fun id -> S.Disk.make ~id ~cap:2 ()) in
  (* one transfer of size 3 at rate 1 *)
  Alcotest.(check (float 1e-9)) "size 3" 3.0
    (S.Bandwidth.round_duration_sized ~disks ~transfers:[ (0, 1, 3.0) ] ());
  (* two parallel transfers, sizes 1 and 4, each at rate 1/2 *)
  Alcotest.(check (float 1e-9)) "max dominates" 8.0
    (S.Bandwidth.round_duration_sized ~disks
       ~transfers:[ (0, 1, 1.0); (0, 1, 4.0) ]
       ());
  Alcotest.check_raises "bad size"
    (Invalid_argument "Bandwidth.round_duration: sizes must be positive")
    (fun () ->
      ignore
        (S.Bandwidth.round_duration_sized ~disks ~transfers:[ (0, 1, 0.0) ] ()))

let test_async_sized () =
  let disks = Array.init 2 (fun id -> S.Disk.make ~id ~cap:1 ()) in
  let g = Mgraph.Multigraph.create ~n:2 () in
  ignore (Mgraph.Multigraph.add_edge g 0 1);
  ignore (Mgraph.Multigraph.add_edge g 0 1);
  let job =
    {
      S.Cluster.instance = M.Instance.create g ~caps:[| 1; 1 |];
      items = [| 0; 1 |];
      sources = [| 0; 0 |];
      targets = [| 1; 1 |];
    }
  in
  let r = S.Async_exec.run ~disks ~sizes:[| 2.0; 5.0 |] job S.Async_exec.Fifo in
  Alcotest.(check (float 1e-9)) "sequential sized" 7.0 r.S.Async_exec.makespan

let size_balance_improves =
  qtest "size balance: never worse, same rounds, still valid" ~count:30
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let disks, job = random_job seed 6 60 in
      let rng = rng_of_int seed in
      let sizes = Workloads.Demand.sizes rng ~n:60 ~alpha:1.2 in
      let sched =
        M.Solver.solve ~rng M.Solver.hetero job.S.Cluster.instance
      in
      let sched', st = S.Size_balance.optimize ~disks ~sizes job sched in
      M.Schedule.validate job.S.Cluster.instance sched' = Ok ()
      && M.Schedule.n_rounds sched' = M.Schedule.n_rounds sched
      && st.S.Size_balance.duration_after
         <= st.S.Size_balance.duration_before +. 1e-9
      && Float.abs
           (st.S.Size_balance.duration_after
           -. S.Bandwidth.schedule_duration ~disks ~sizes job sched')
         < 1e-6)

let test_size_balance_concentrates () =
  (* two rounds each holding one slot of the pair (0,1); items sized 1
     and 9; a second pair (2,3) contributes a size-9 transfer to round
     0 only.  Optimal: put the big (0,1) item alongside the other big
     one. *)
  let disks = Array.init 4 (fun id -> S.Disk.make ~id ~cap:1 ()) in
  let g = Mgraph.Multigraph.create ~n:4 () in
  ignore (Mgraph.Multigraph.add_edge g 0 1);
  ignore (Mgraph.Multigraph.add_edge g 0 1);
  ignore (Mgraph.Multigraph.add_edge g 2 3);
  let job =
    {
      S.Cluster.instance = M.Instance.create g ~caps:[| 1; 1; 1; 1 |];
      items = [| 0; 1; 2 |];
      sources = [| 0; 0; 2 |];
      targets = [| 1; 1; 3 |];
    }
  in
  let sizes = [| 1.0; 9.0; 9.0 |] in
  (* bad assignment: small item with the big (2,3) one *)
  let sched = M.Schedule.of_rounds [| [ 0; 2 ]; [ 1 ] |] in
  Alcotest.(check (float 1e-9)) "before" 18.0
    (S.Bandwidth.schedule_duration ~disks ~sizes job sched);
  let sched', st = S.Size_balance.optimize ~disks ~sizes job sched in
  Alcotest.(check (float 1e-9)) "after" 10.0
    st.S.Size_balance.duration_after;
  Alcotest.(check bool) "valid" true
    (M.Schedule.validate job.S.Cluster.instance sched' = Ok ())

(* ------------------------------------------------------------------ *)
(* Online: request streams served by Service *)

let serve ?(caps = [| 2; 2; 2 |]) placement requests =
  Service.run ~rng_seed:1
    {
      Service.caps;
      placement;
      demands = Array.make (Array.length placement) 1.0;
    }
    ~requests:
      (List.map
         (fun (at, moves) ->
           { Service.at; tenant = 0; trigger = Service.Retarget moves })
         requests)
    ()

let final r = r.Service.execution.M.Certify.svc_final
let latency r i = List.assoc i r.Service.latencies

let test_online_single_request () =
  let r = serve [| 0; 0; 1 |] [ (0, [ (0, 2); (2, 0) ]) ] in
  Alcotest.(check int) "one epoch" 1 r.Service.epochs;
  Alcotest.(check int) "moved" 2 r.Service.transfers;
  Alcotest.(check int) "item 0 at 2" 2 (final r).(0);
  Alcotest.(check bool) "real work has latency >= 1" true (latency r 0 >= 1)

let test_online_supersession () =
  (* a later request retargets the same item; the earlier one counts as
     satisfied once superseded *)
  let r = serve ~caps:[| 1; 1; 1 |] [| 0 |] [ (0, [ (0, 1) ]); (1, [ (0, 2) ]) ] in
  Alcotest.(check int) "final placement" 2 (final r).(0);
  Alcotest.(check int) "two latencies" 2 (List.length r.Service.latencies)

let test_online_guards () =
  (* admission control rejects bad item and disk ids instead of
     raising; arrivals need not be sorted *)
  let r = serve [| 0 |] [ (3, [ (0, 1) ]); (1, [ (5, 0) ]); (0, [ (0, 9) ]) ] in
  let rejected i =
    match r.Service.statuses.(i) with
    | M.Certify.Sreq_rejected _ -> true
    | _ -> false
  in
  Alcotest.(check (list bool)) "statuses" [ false; true; true ]
    (List.init 3 rejected);
  Alcotest.(check int) "valid request served" 1 (final r).(0)

let test_online_beyond_horizon () =
  (* a request arriving after all earlier work has drained extends the
     run: idle time fast-forwards to its arrival *)
  let r = serve [| 0; 1 |] [ (0, [ (0, 1) ]); (50, [ (1, 2) ]) ] in
  Alcotest.(check bool) "run extended past the horizon" true
    (r.Service.total_rounds > 50);
  Alcotest.(check int) "late move executed" 2 (final r).(1);
  Alcotest.(check int) "two epochs (work drained between)" 2 r.Service.epochs

let test_online_equal_rounds_merge () =
  (* equal arrival rounds absorb into one epoch: a single plan serves
     both requests *)
  let r = serve [| 0; 0 |] [ (2, [ (0, 1) ]); (2, [ (1, 2) ]) ] in
  Alcotest.(check (list (list int))) "one epoch absorbs both" [ [ 0; 1 ] ]
    (List.filter_map
       (fun ep ->
         if ep.M.Certify.se_absorbed = [] then None
         else Some (List.sort compare ep.M.Certify.se_absorbed))
       r.Service.execution.M.Certify.svc_epochs);
  Alcotest.(check (array int)) "both moves in effect" [| 1; 2 |] (final r)

let test_online_noop_latency_zero () =
  (* a request whose moves are already in effect settles at absorption
     with latency 0 — no phantom round *)
  let r = serve [| 2; 0 |] [ (0, [ (1, 1) ]); (4, [ (0, 2) ]) ] in
  Alcotest.(check int) "no-op settles with latency 0" 0 (latency r 1);
  Alcotest.(check bool) "real work still costs rounds" true (latency r 0 >= 1)

let online_converges =
  qtest "online: random request streams converge to the final target"
    ~count:25
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let n_disks = 4 + Random.State.int rng 6 in
      let n_items = 10 + Random.State.int rng 40 in
      let placement = Array.init n_items (fun _ -> Random.State.int rng n_disks) in
      let requests =
        List.init
          (1 + Random.State.int rng 5)
          (fun k ->
            ( 2 * k,
              List.init
                (1 + Random.State.int rng 8)
                (fun _ ->
                  (Random.State.int rng n_items, Random.State.int rng n_disks)) ))
      in
      (* reference: the requests replayed in order, later moves winning *)
      let reference = Array.copy placement in
      List.iter
        (fun (_, moves) -> List.iter (fun (i, d) -> reference.(i) <- d) moves)
        requests;
      let r =
        serve ~caps:(Array.init n_disks (fun i -> 1 + (i mod 3))) placement requests
      in
      final r = reference
      && List.length r.Service.latencies = List.length requests
      && M.Certify.service_ok (M.Certify.certify_service r.Service.execution))

(* ------------------------------------------------------------------ *)
(* Flaky transport: transient failures retried by the engine *)

let flaky_run ~seed ~n_items ~fault_rate =
  let rng = rng_of_int seed in
  let sc =
    Workloads.Scenarios.rebalance rng ~n_disks:8 ~n_items ~caps:[ 2; 3 ] ()
  in
  let o, _ =
    S.Simulator.run ~rng
      ~policy:(S.Fault.engine_policy ~fault_rate ~seed ())
      sc.Workloads.Scenarios.cluster ~target:sc.Workloads.Scenarios.target
  in
  (sc, o)

let () =
  Alcotest.run "storsim"
    [
      ("disk", [ Alcotest.test_case "rates and guards" `Quick test_disk ]);
      ("placement", [ Alcotest.test_case "ops" `Quick test_placement ]);
      ( "cluster",
        [
          Alcotest.test_case "plan reconfiguration" `Quick test_cluster_plan;
          Alcotest.test_case "guards" `Quick test_cluster_guards;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "fig2 homogeneous 3M" `Quick test_fig2_homogeneous;
          Alcotest.test_case "fig2 parallel 2M" `Quick test_fig2_parallel;
          Alcotest.test_case "fig2 through the simulator" `Quick
            test_fig2_simulated;
          Alcotest.test_case "round duration cases" `Quick
            test_round_duration_cases;
        ] );
      ( "simulator",
        [
          simulator_reaches_target;
          simulator_fault_fold;
          Alcotest.test_case "infeasible detected" `Quick
            test_simulator_infeasible_detected;
          Alcotest.test_case "report" `Quick test_simulator_report;
        ] );
      ( "fault",
        [
          Alcotest.test_case "degrade mid-flight" `Quick test_fault_degrade;
          Alcotest.test_case "immediate change" `Quick test_fault_immediate;
          Alcotest.test_case "guards" `Quick test_fault_guards;
        ] );
      ( "engine-policy",
        [
          Alcotest.test_case "deterministic under seed" `Quick
            test_engine_policy_deterministic;
          Alcotest.test_case "scheduled events" `Quick
            test_engine_policy_scheduled_events;
          Alcotest.test_case "transient rate" `Quick test_engine_policy_rate;
          Alcotest.test_case "guards" `Quick test_engine_policy_guards;
          Alcotest.test_case "random calamities" `Quick test_random_calamities;
          Alcotest.test_case "capture_execution" `Quick
            test_trace_capture_execution;
        ] );
      ( "async_exec",
        [
          Alcotest.test_case "single transfer" `Quick test_async_single_transfer;
          Alcotest.test_case "contention serializes" `Quick
            test_async_contention;
          async_completes_everything;
          async_within_list_scheduling_bound;
          Alcotest.test_case "beats barriers on stragglers" `Quick
            test_async_beats_barriers_on_stragglers;
          Alcotest.test_case "bad schedule policy" `Quick
            test_async_bad_schedule_policy;
        ] );
      ( "flaky",
        [
          Alcotest.test_case "reaches target despite failures" `Quick
            (fun () ->
              let sc, o = flaky_run ~seed:31 ~n_items:200 ~fault_rate:0.3 in
              Alcotest.(check bool) "reached" true (reached sc);
              Alcotest.(check bool) "needed retries" true
                (o.M.Engine.replans > 0 && o.M.Engine.retries > 0));
          Alcotest.test_case "zero rate needs one pass" `Quick (fun () ->
              let _, o = flaky_run ~seed:32 ~n_items:100 ~fault_rate:0.0 in
              Alcotest.(check int) "no replans" 0 o.M.Engine.replans;
              Alcotest.(check int) "no failures" 0 o.M.Engine.rounds_lost);
          Alcotest.test_case "retry budget exhaustion quarantines" `Quick
            (fun () ->
              let sc, o = flaky_run ~seed:33 ~n_items:150 ~fault_rate:0.9 in
              Alcotest.(check bool) "some quarantined" true
                (o.M.Engine.quarantined <> []);
              Alcotest.(check bool) "all for exhausted retries" true
                (List.for_all
                   (function
                     | _, M.Engine.Retries_exhausted _ -> true | _ -> false)
                   o.M.Engine.quarantined);
              Alcotest.(check bool) "not reached" false (reached sc);
              Alcotest.(check bool) "execution certifies" true
                (M.Certify.exec_ok
                   (M.Certify.certify_execution o.M.Engine.execution)));
        ] );
      ( "sized",
        [
          Alcotest.test_case "round duration" `Quick test_sized_round_duration;
          Alcotest.test_case "async sized" `Quick test_async_sized;
          size_balance_improves;
          Alcotest.test_case "concentrates big items" `Quick
            test_size_balance_concentrates;
        ] );
      ( "network",
        [
          Alcotest.test_case "full bisection is free" `Quick (fun () ->
              Alcotest.(check (float 1e-9)) "throttle 1" 1.0
                (S.Network.throttle S.Network.full_bisection ~active:1000));
          Alcotest.test_case "oversubscription throttles" `Quick (fun () ->
              let net = S.Network.oversubscribed ~core_streams:4.0 in
              Alcotest.(check (float 1e-9)) "under core" 1.0
                (S.Network.throttle net ~active:3);
              Alcotest.(check (float 1e-9)) "at core" 1.0
                (S.Network.throttle net ~active:4);
              Alcotest.(check (float 1e-9)) "over core" 0.5
                (S.Network.throttle net ~active:8);
              Alcotest.check_raises "bad capacity"
                (Invalid_argument
                   "Network.oversubscribed: capacity must be positive")
                (fun () ->
                  ignore (S.Network.oversubscribed ~core_streams:0.0)));
          Alcotest.test_case "round duration under congestion" `Quick
            (fun () ->
              let disks = Array.init 4 (fun id -> S.Disk.make ~id ~cap:2 ()) in
              let net = S.Network.oversubscribed ~core_streams:1.0 in
              (* two disjoint transfers would take 1 unit each; a core
                 of 1 stream halves both rates *)
              Alcotest.(check (float 1e-9)) "congested" 2.0
                (S.Bandwidth.round_duration ~disks ~network:net
                   ~transfers:[ (0, 1); (2, 3) ]
                   ()));
          Alcotest.test_case "async respects the core" `Quick (fun () ->
              let disks, job = random_job 5 6 30 in
              let free = S.Async_exec.run ~disks job S.Async_exec.Fifo in
              let tight =
                S.Async_exec.run ~disks
                  ~network:(S.Network.oversubscribed ~core_streams:2.0)
                  job S.Async_exec.Fifo
              in
              Alcotest.(check bool) "congestion slows" true
                (tight.S.Async_exec.makespan
                > free.S.Async_exec.makespan -. 1e-9));
        ] );
      ( "trace",
        [
          Alcotest.test_case "capture and render" `Quick (fun () ->
              let disks, job = random_job 21 6 40 in
              let sched =
                M.Solver.solve ~rng:(rng_of_int 21) M.Solver.hetero
                  job.S.Cluster.instance
              in
              let t = S.Trace.capture ~disks job sched in
              Alcotest.(check int) "rounds" (M.Schedule.n_rounds sched)
                (S.Trace.n_rounds t);
              Alcotest.(check int) "disks" 6 (S.Trace.n_disks t);
              (* stream counts respect constraints everywhere *)
              for r = 0 to S.Trace.n_rounds t - 1 do
                for d = 0 to 5 do
                  Alcotest.(check bool) "within cap" true
                    (S.Trace.streams t ~round:r ~disk:d
                    <= (S.Cluster.disks (S.Cluster.create ~disks
                          ~placement:(S.Placement.create ~n_items:0 (fun _ -> 0)))).(d).S.Disk.cap)
                done
              done;
              let rendered = S.Trace.render t in
              Alcotest.(check bool) "mentions every disk" true
                (List.for_all
                   (fun d ->
                     let needle = Printf.sprintf "disk %3d" d in
                     let rec contains i =
                       i + String.length needle <= String.length rendered
                       && (String.sub rendered i (String.length needle) = needle
                          || contains (i + 1))
                     in
                     contains 0)
                   (List.init 6 Fun.id));
              let util = S.Trace.utilization_by_disk t in
              Array.iter
                (fun u ->
                  Alcotest.(check bool) "utilization in [0,1]" true
                    (u >= 0.0 && u <= 1.0 +. 1e-9))
                util);
          Alcotest.test_case "empty schedule" `Quick (fun () ->
              let disks, job = random_job 22 4 0 in
              let t =
                S.Trace.capture ~disks job (M.Schedule.of_rounds [||])
              in
              Alcotest.(check bool) "renders" true
                (String.length (S.Trace.render t) > 0));
          Alcotest.test_case "rebinning long schedules" `Quick (fun () ->
              let disks, job = random_job 23 4 200 in
              let sched =
                M.Solver.solve ~rng:(rng_of_int 23) M.Solver.greedy
                  job.S.Cluster.instance
              in
              let t = S.Trace.capture ~disks job sched in
              let rendered = S.Trace.render ~max_columns:20 t in
              (* every line stays near the column budget *)
              Alcotest.(check bool) "compact" true
                (List.for_all
                   (fun line -> String.length line < 60)
                   (String.split_on_char '\n' rendered)));
        ] );
      ( "online",
        [
          Alcotest.test_case "single request" `Quick test_online_single_request;
          Alcotest.test_case "supersession" `Quick test_online_supersession;
          Alcotest.test_case "guards" `Quick test_online_guards;
          Alcotest.test_case "beyond-horizon arrival extends run" `Quick
            test_online_beyond_horizon;
          Alcotest.test_case "equal rounds merge into one epoch" `Quick
            test_online_equal_rounds_merge;
          Alcotest.test_case "no-op request has latency 0" `Quick
            test_online_noop_latency_zero;
          online_converges;
        ] );
    ]
