(* Tests for workload generation: Demand, Layout, Scenarios. *)

module W = Workloads
module S = Storsim
module M = Migration
open Test_util

(* ------------------------------------------------------------------ *)
(* Demand *)

let test_zipf_weights () =
  let w = W.Demand.zipf_weights ~n:100 ~s:1.0 in
  let total = Array.fold_left ( +. ) 0.0 w in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total;
  Alcotest.(check bool) "decreasing" true
    (let ok = ref true in
     for i = 0 to 98 do
       if w.(i) < w.(i + 1) then ok := false
     done;
     !ok);
  Alcotest.(check bool) "skewed" true (w.(0) > 10.0 *. w.(99));
  (* s = 0 is uniform *)
  let u = W.Demand.zipf_weights ~n:10 ~s:0.0 in
  Alcotest.(check (float 1e-9)) "uniform" 0.1 u.(7)

let test_demands_randomized () =
  let d1 = W.Demand.demands (rng_of_int 1) ~n:50 ~s:0.8 in
  let d2 = W.Demand.demands (rng_of_int 2) ~n:50 ~s:0.8 in
  Alcotest.(check bool) "different orders" true (d1 <> d2);
  let sorted a =
    let c = Array.copy a in
    Array.sort compare c;
    c
  in
  Alcotest.(check bool) "same multiset" true (sorted d1 = sorted d2)

let shift_preserves_multiset =
  qtest "demand: shift preserves the demand multiset" ~count:50
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 80))
    (fun (seed, n) ->
      let rng = rng_of_int seed in
      let d = W.Demand.demands rng ~n ~s:0.9 in
      let d' = W.Demand.shift rng ~fraction:0.4 d in
      let sorted a =
        let c = Array.copy a in
        Array.sort compare c;
        c
      in
      sorted d = sorted d')

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_balance_places_everything () =
  let demands = W.Demand.zipf_weights ~n:30 ~s:0.9 in
  let weights = [| 1.0; 2.0; 1.0 |] in
  let p = W.Layout.balance ~demands ~weights in
  Alcotest.(check int) "all placed" 30 (S.Placement.n_items p);
  Array.iter
    (fun d -> Alcotest.(check bool) "valid disk" true (d >= 0 && d < 3))
    (S.Placement.to_array p)

let test_balance_respects_weights () =
  (* uniform demands, weights 1:3 -> the heavy disk carries ~3x *)
  let demands = Array.make 400 1.0 in
  let weights = [| 1.0; 3.0 |] in
  let p = W.Layout.balance ~demands ~weights in
  let carried = W.Layout.disk_demand ~demands p ~n_disks:2 in
  Alcotest.(check bool) "ratio near 3" true
    (carried.(1) /. carried.(0) > 2.5 && carried.(1) /. carried.(0) < 3.5);
  Alcotest.(check bool) "imbalance near 1" true
    (W.Layout.imbalance ~demands ~weights p < 1.1)

let balance_beats_round_robin =
  qtest "layout: greedy balance is no worse than round-robin" ~count:40
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 10 120))
    (fun (seed, n) ->
      let rng = rng_of_int seed in
      let demands = W.Demand.demands rng ~n ~s:1.1 in
      let weights = [| 1.0; 1.0; 1.0; 1.0 |] in
      let greedy = W.Layout.balance ~demands ~weights in
      let rr = S.Placement.create ~n_items:n (fun i -> i mod 4) in
      W.Layout.imbalance ~demands ~weights greedy
      <= W.Layout.imbalance ~demands ~weights rr +. 1e-9)

let test_sizes_positive_and_heavy_tailed () =
  let s = W.Demand.sizes (rng_of_int 9) ~n:2000 ~alpha:1.1 in
  Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x > 0.0) s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  (* heavy tail: the max dwarfs the median *)
  Alcotest.(check bool) "heavy tail" true
    (sorted.(1999) > 10.0 *. sorted.(1000));
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Demand.sizes: alpha must be positive") (fun () ->
      ignore (W.Demand.sizes (rng_of_int 1) ~n:3 ~alpha:0.0))

let incremental_rebalance_properties =
  qtest "layout: incremental rebalance moves less and stays bounded"
    ~count:40
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 40 200))
    (fun (seed, n) ->
      let rng = rng_of_int seed in
      let demands = W.Demand.demands rng ~n ~s:1.0 in
      let weights = [| 1.0; 1.0; 2.0; 2.0 |] in
      let before = W.Layout.balance ~demands ~weights in
      (* shift demand, then rebalance incrementally *)
      let demands' = W.Demand.shift rng ~fraction:0.5 demands in
      let incr =
        W.Layout.rebalance_incremental ~demands:demands' ~weights
          ~current:before ~tolerance:0.15
      in
      (* every item moved came off a disk that really was overloaded *)
      let total = Array.fold_left ( +. ) 0.0 demands' in
      let total_w = Array.fold_left ( +. ) 0.0 weights in
      let carried_before =
        W.Layout.disk_demand ~demands:demands' before
          ~n_disks:(Array.length weights)
      in
      let over d =
        carried_before.(d)
        > 1.15 *. (total *. weights.(d) /. total_w) -. 1e-9
      in
      List.for_all (fun (_, src, _) -> over src) (S.Placement.diff before incr)
      && S.Placement.n_items incr = n)

let test_incremental_noop_when_balanced () =
  let demands = Array.make 100 1.0 in
  let weights = [| 1.0; 1.0 |] in
  let current = S.Placement.create ~n_items:100 (fun i -> i mod 2) in
  let p =
    W.Layout.rebalance_incremental ~demands ~weights ~current ~tolerance:0.05
  in
  Alcotest.(check bool) "unchanged" true (S.Placement.equal p current)

let test_incremental_fixes_hotspot () =
  (* all demand on disk 0; incremental must shed most of it *)
  let demands = Array.make 60 1.0 in
  let weights = [| 1.0; 1.0; 1.0 |] in
  let current = S.Placement.create ~n_items:60 (fun _ -> 0) in
  let p =
    W.Layout.rebalance_incremental ~demands ~weights ~current ~tolerance:0.1
  in
  Alcotest.(check bool) "imbalance bounded" true
    (W.Layout.imbalance ~demands ~weights p <= 1.1 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Scenarios *)


let run_scenario (sc : W.Scenarios.t) =
  let rng = rng_of_int 77 in
  snd
    (S.Simulator.run ~rng ~policy:M.Engine.no_faults sc.cluster
       ~target:sc.target)

let test_rebalance_scenario () =
  let sc = W.Scenarios.rebalance (rng_of_int 3) ~n_disks:10 ~n_items:300 () in
  let report = run_scenario sc in
  Alcotest.(check bool) "some movement" true (report.S.Simulator.items_moved > 0);
  Alcotest.(check bool) "reached" true
    (S.Cluster.reached sc.cluster ~target:sc.target)

let test_addition_scenario () =
  let sc =
    W.Scenarios.disk_addition (rng_of_int 4) ~n_old:6 ~n_new:3 ~n_items:270
      ~old_cap:2 ~new_cap:4 ()
  in
  (* before: nothing on the new disks *)
  let before_load = S.Cluster.load sc.cluster in
  Alcotest.(check int) "new disk empty" 0 before_load.(7);
  let _ = run_scenario sc in
  let after_load =
    S.Placement.load sc.target ~n_disks:(S.Cluster.n_disks sc.cluster)
  in
  (* fair share by capacity: total cap = 6*2+3*4 = 24; new disk = 4/24 *)
  let expected = 270 * 4 / 24 in
  Alcotest.(check bool) "new disk near fair share" true
    (abs (after_load.(7) - expected) <= 1);
  Alcotest.(check bool) "reached" true
    (S.Cluster.reached sc.cluster ~target:sc.target)

let test_removal_scenario () =
  let sc =
    W.Scenarios.disk_removal (rng_of_int 5) ~n_disks:8 ~n_remove:2 ~n_items:160 ()
  in
  let _ = run_scenario sc in
  let after_load = S.Placement.load sc.target ~n_disks:8 in
  Alcotest.(check int) "evacuated 6" 0 after_load.(6);
  Alcotest.(check int) "evacuated 7" 0 after_load.(7);
  Alcotest.(check int) "all items survive" 160
    (Array.fold_left ( + ) 0 after_load)

let test_failure_scenario () =
  let sc =
    W.Scenarios.failure_recovery (rng_of_int 6) ~n_disks:9 ~failed:4
      ~n_items:180 ()
  in
  (* the failed disk holds nothing, before or after *)
  let before_load = S.Cluster.load sc.cluster in
  Alcotest.(check int) "failed disk empty before" 0 before_load.(4);
  let _ = run_scenario sc in
  let after_load = S.Placement.load sc.target ~n_disks:9 in
  Alcotest.(check int) "failed disk empty after" 0 after_load.(4);
  Alcotest.(check int) "all items survive" 180
    (Array.fold_left ( + ) 0 after_load)

let scenarios_all_plannable =
  qtest "scenarios: every scenario migrates to target under every planner"
    ~count:20
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let mk =
        [
          (fun rng -> W.Scenarios.rebalance rng ~n_disks:6 ~n_items:80 ());
          (fun rng ->
            W.Scenarios.disk_addition rng ~n_old:4 ~n_new:2 ~n_items:60 ());
          (fun rng ->
            W.Scenarios.disk_removal rng ~n_disks:6 ~n_remove:1 ~n_items:60 ());
          (fun rng ->
            W.Scenarios.failure_recovery rng ~n_disks:6 ~failed:1 ~n_items:60 ());
        ]
      in
      List.for_all
        (fun make ->
          List.for_all
            (fun s ->
              let sc = make (rng_of_int seed) in
              let rng = rng_of_int (seed + 1) in
              let report =
                S.Simulator.run ~rng ~choose:(fun _ -> s)
                  ~policy:M.Engine.no_faults sc.W.Scenarios.cluster
                  ~target:sc.W.Scenarios.target
              in
              ignore report;
              S.Cluster.reached sc.W.Scenarios.cluster
                ~target:sc.W.Scenarios.target)
            M.Solver.[ hetero; saia; greedy ])
        mk)

let test_striped_layout () =
  let p = W.Layout.striped ~n_objects:4 ~blocks_per_object:3 ~n_disks:5 in
  (* object 0: blocks on disks 0,1,2; object 1 staggered: 1,2,3 *)
  Alcotest.(check int) "o0 b0" 0 (S.Placement.disk_of p 0);
  Alcotest.(check int) "o0 b2" 2 (S.Placement.disk_of p 2);
  Alcotest.(check int) "o1 b0" 1 (S.Placement.disk_of p 3);
  Alcotest.(check int) "o3 b2" 0 (S.Placement.disk_of p 11);
  Alcotest.check_raises "guards" (Invalid_argument "Layout.striped")
    (fun () ->
      ignore (W.Layout.striped ~n_objects:0 ~blocks_per_object:1 ~n_disks:1))

let test_restripe_modes () =
  let moves mode =
    let sc =
      W.Scenarios.restripe (rng_of_int 8) ~n_old:8 ~n_new:4 ~n_objects:50
        ~blocks_per_object:8 ~mode ()
    in
    let diff =
      S.Placement.diff
        (S.Cluster.placement sc.W.Scenarios.cluster)
        sc.W.Scenarios.target
    in
    List.length diff
  in
  let full = moves `Full and minimal = moves `Minimal in
  (* full restriping reshuffles most blocks; minimal only fills the
     new disks' fair share (400 * 4/12 = ~133) *)
  Alcotest.(check bool) "full moves most" true (full > 200);
  Alcotest.(check bool) "minimal moves the fair share" true
    (minimal >= 130 && minimal <= 140);
  (* both plans execute *)
  let sc =
    W.Scenarios.restripe (rng_of_int 8) ~n_old:8 ~n_new:4 ~n_objects:50
      ~blocks_per_object:8 ~mode:`Minimal ()
  in
  ignore (run_scenario sc);
  Alcotest.(check bool) "reached" true
    (S.Cluster.reached sc.W.Scenarios.cluster ~target:sc.W.Scenarios.target)

let test_scenario_guards () =
  let rng = rng_of_int 1 in
  Alcotest.check_raises "removal of everything"
    (Invalid_argument "Scenarios.disk_removal") (fun () ->
      ignore (W.Scenarios.disk_removal rng ~n_disks:4 ~n_remove:4 ~n_items:10 ()));
  Alcotest.check_raises "bad failed disk"
    (Invalid_argument "Scenarios.failure_recovery: bad disk") (fun () ->
      ignore
        (W.Scenarios.failure_recovery rng ~n_disks:5 ~failed:9 ~n_items:10 ()))

let () =
  Alcotest.run "workloads"
    [
      ( "demand",
        [
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
          Alcotest.test_case "randomized ranks" `Quick test_demands_randomized;
          shift_preserves_multiset;
        ] );
      ( "layout",
        [
          Alcotest.test_case "places everything" `Quick
            test_balance_places_everything;
          Alcotest.test_case "respects weights" `Quick
            test_balance_respects_weights;
          balance_beats_round_robin;
          Alcotest.test_case "sizes generator" `Quick
            test_sizes_positive_and_heavy_tailed;
          incremental_rebalance_properties;
          Alcotest.test_case "incremental noop" `Quick
            test_incremental_noop_when_balanced;
          Alcotest.test_case "incremental hotspot" `Quick
            test_incremental_fixes_hotspot;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "rebalance" `Quick test_rebalance_scenario;
          Alcotest.test_case "disk addition" `Quick test_addition_scenario;
          Alcotest.test_case "disk removal" `Quick test_removal_scenario;
          Alcotest.test_case "failure recovery" `Quick test_failure_scenario;
          scenarios_all_plannable;
          Alcotest.test_case "striped layout" `Quick test_striped_layout;
          Alcotest.test_case "restripe modes" `Quick test_restripe_modes;
          Alcotest.test_case "guards" `Quick test_scenario_guards;
        ] );
    ]
