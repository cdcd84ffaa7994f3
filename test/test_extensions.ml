(* Tests for the optional-extension modules: Halving (Section V's
   closing remark), Completion_time, Forwarding (helpers), Space
   (Hall et al.'s model), Cloning (Khuller-Kim-Wan's model). *)

module Multigraph = Mgraph.Multigraph
module M = Migration
open Test_util

(* random instance with inflated multiplicities *)
let fat_instance seed mult =
  let rng = rng_of_int seed in
  let base = Mgraph.Graph_gen.gnm rng ~n:8 ~m:20 in
  let g = Multigraph.create ~n:8 () in
  Multigraph.iter_edges base (fun { Multigraph.u; v; _ } ->
      for _ = 1 to mult do
        ignore (Multigraph.add_edge g u v)
      done);
  M.Instance.random_caps rng g ~choices:[ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Halving *)

let halving_valid =
  qtest "halving: valid schedule at any multiplicity" ~count:40
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 16))
    (fun (seed, mult) ->
      let inst = fat_instance seed mult in
      let sched = M.Halving.schedule ~rng:(rng_of_int seed) inst in
      M.Schedule.validate inst sched = Ok ())

let test_halving_recursion_depth () =
  let inst = fat_instance 3 32 in
  let _, stats = M.Halving.schedule_stats ~rng:(rng_of_int 3) inst in
  Alcotest.(check bool) "recursed" true (stats.M.Halving.levels >= 2);
  Alcotest.(check bool) "base smaller than full" true
    (stats.M.Halving.base_edges < M.Instance.n_items inst)

let test_halving_no_recursion_when_thin () =
  let rng = rng_of_int 4 in
  let g = Mgraph.Graph_gen.gnm rng ~n:10 ~m:30 in
  let inst = M.Instance.random_caps rng g ~choices:[ 2; 4 ] in
  let _, stats = M.Halving.schedule_stats ~rng inst in
  Alcotest.(check int) "no levels" 0 stats.M.Halving.levels

let halving_close_to_direct =
  qtest "halving: rounds within 2x of the direct planner" ~count:25
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 4 12))
    (fun (seed, mult) ->
      let inst = fat_instance seed mult in
      let h = M.Halving.schedule ~rng:(rng_of_int seed) inst in
      let d = M.Hetero_coloring.schedule ~rng:(rng_of_int seed) inst in
      M.Schedule.n_rounds h <= 2 * M.Schedule.n_rounds d + 2)

(* seed 1439 at multiplicity 5 breaks the property's bound unless the
   odd leftovers fill the doubled rounds' slack: given rounds of their
   own they take 33 rounds against hetero's 15 *)
let test_halving_leftovers_fill_slack () =
  let inst = fat_instance 1439 5 in
  let h = M.Halving.schedule ~rng:(rng_of_int 1439) inst in
  let d = M.Hetero_coloring.schedule ~rng:(rng_of_int 1439) inst in
  check_valid_schedule inst h "halving seed 1439";
  Alcotest.(check bool) "within 2x + 2 of the direct planner" true
    (M.Schedule.n_rounds h <= (2 * M.Schedule.n_rounds d) + 2)

let test_halving_exact_on_even_powers () =
  (* triangle with 2^k parallel edges and c = 2: both the direct even
     algorithm and the halved one are optimal *)
  let g = Mgraph.Graph_gen.triangle_stack 16 in
  let inst = M.Instance.uniform g ~cap:2 in
  let sched = M.Halving.schedule inst in
  check_valid_schedule inst sched "halving triangle";
  Alcotest.(check int) "optimal" (M.Lower_bounds.lb1 inst)
    (M.Schedule.n_rounds sched)

(* ------------------------------------------------------------------ *)
(* Completion_time *)

let test_item_sum_hand () =
  (* rounds of sizes 2,1: completing at 1,1,2 -> sum 4 *)
  let sched = M.Schedule.of_rounds [| [ 0; 1 ]; [ 2 ] |] in
  Alcotest.(check (float 1e-9)) "sum" 4.0
    (M.Completion_time.item_completion_sum sched);
  (* weighted: item 2 weighs 10 -> 1 + 1 + 20 *)
  Alcotest.(check (float 1e-9)) "weighted" 22.0
    (M.Completion_time.item_completion_sum
       ~weights:(fun e -> if e = 2 then 10.0 else 1.0)
       sched)

let test_disk_sum_hand () =
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:1 in
  (* round 0: edge (0,1); round 1: edge (1,2):
     disk 0 completes at 1, disks 1 and 2 at 2 -> 5 *)
  let sched = M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |] in
  Alcotest.(check (float 1e-9)) "sum" 5.0
    (M.Completion_time.disk_completion_sum inst sched)

let reorder_items_optimal =
  qtest "completion: items reorder is sorted and never worse" ~count:60
    (instance_spec_gen ~max_n:15 ~max_m:80 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      if M.Instance.n_items inst = 0 then true
      else begin
        let sched = M.Hetero_coloring.schedule ~rng:(rng_of_int 1) inst in
        let re = M.Completion_time.reorder_for_items sched in
        M.Schedule.validate inst re = Ok ()
        && M.Completion_time.item_completion_sum re
           <= M.Completion_time.item_completion_sum sched +. 1e-9
        &&
        (* sizes decreasing *)
        let sizes = Array.map List.length (M.Schedule.rounds re) in
        Array.for_all2 ( <= )
          (Array.sub sizes 1 (Array.length sizes - 1))
          (Array.sub sizes 0 (Array.length sizes - 1))
      end)

let reorder_disks_no_worse =
  qtest "completion: disks reorder is valid and never worse" ~count:40
    (instance_spec_gen ~max_n:12 ~max_m:40 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      if M.Instance.n_items inst = 0 then true
      else begin
        let sched = M.Hetero_coloring.schedule ~rng:(rng_of_int 2) inst in
        let re = M.Completion_time.reorder_for_disks inst sched in
        M.Schedule.validate inst re = Ok ()
        && M.Completion_time.disk_completion_sum inst re
           <= M.Completion_time.disk_completion_sum inst sched +. 1e-9
      end)

let test_reorder_disks_exact_small () =
  (* two rounds: round A touches disks {0,1}, round B touches {2,3,4}:
     B last  -> 1+1 + 2+2+2 = 8;  A last -> 2+2 + 1+1+1 = 7: A must go
     last *)
  let g = Multigraph.create ~n:5 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 2 3);
  ignore (Multigraph.add_edge g 3 4);
  let inst = M.Instance.uniform g ~cap:1 in
  let sched = M.Schedule.of_rounds [| [ 0 ]; [ 1; 2 ] |] in
  let re = M.Completion_time.reorder_for_disks inst sched in
  Alcotest.(check (float 1e-9)) "optimal order" 7.0
    (M.Completion_time.disk_completion_sum inst re)

(* ------------------------------------------------------------------ *)
(* Forwarding *)

let triangle_with_helpers m helpers =
  let g = Multigraph.create ~n:(3 + helpers) () in
  List.iter
    (fun (u, v) ->
      for _ = 1 to m do
        ignore (Multigraph.add_edge g u v)
      done)
    [ (0, 1); (1, 2); (0, 2) ];
  M.Instance.uniform g ~cap:1

let test_forwarding_beats_gamma () =
  let inst = triangle_with_helpers 8 4 in
  let plan, stats =
    M.Forwarding.plan_with_helpers ~rng:(rng_of_int 5) inst
  in
  Alcotest.(check bool) "valid" true (M.Forwarding.validate inst plan = Ok ());
  Alcotest.(check bool) "relayed something" true (stats.M.Forwarding.relayed > 0);
  Alcotest.(check bool) "beats the direct bound" true
    (stats.M.Forwarding.rounds < stats.M.Forwarding.bound_before);
  Alcotest.(check bool) "never worse than direct" true
    (stats.M.Forwarding.rounds <= stats.M.Forwarding.direct_rounds)

let test_forwarding_falls_back () =
  (* no helpers: relaying impossible, plan must equal the direct one *)
  let inst = triangle_with_helpers 4 0 in
  let plan, stats = M.Forwarding.plan_with_helpers ~rng:(rng_of_int 6) inst in
  Alcotest.(check int) "no relays" 0 stats.M.Forwarding.relayed;
  Alcotest.(check int) "direct rounds" stats.M.Forwarding.direct_rounds
    (M.Forwarding.n_rounds plan);
  Alcotest.(check bool) "valid" true (M.Forwarding.validate inst plan = Ok ())

let forwarding_always_valid =
  qtest "forwarding: plan is valid and never worse than direct" ~count:40
    (instance_spec_gen ~max_n:14 ~max_m:80 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      let plan, stats =
        M.Forwarding.plan_with_helpers ~rng:(rng_of_int spec.cap_seed) inst
      in
      M.Forwarding.validate inst plan = Ok ()
      && stats.M.Forwarding.rounds <= stats.M.Forwarding.direct_rounds)

let test_forwarding_validator_catches () =
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:1 in
  (* item 0 = (0,1), item 1 = (1,2) *)
  let bad_source =
    M.Forwarding.of_rounds
      [| [ { M.Forwarding.item = 0; src = 2; dst = 1 } ] |]
  in
  Alcotest.(check bool) "wrong source" true
    (M.Forwarding.validate inst bad_source <> Ok ());
  let undelivered =
    M.Forwarding.of_rounds
      [| [ { M.Forwarding.item = 0; src = 0; dst = 1 } ] |]
  in
  Alcotest.(check bool) "undelivered item" true
    (M.Forwarding.validate inst undelivered <> Ok ());
  let over_cap =
    M.Forwarding.of_rounds
      [|
        [
          { M.Forwarding.item = 0; src = 0; dst = 1 };
          { M.Forwarding.item = 1; src = 1; dst = 2 };
        ];
      |]
  in
  Alcotest.(check bool) "capacity violation" true
    (M.Forwarding.validate inst over_cap <> Ok ())

(* ------------------------------------------------------------------ *)
(* Space *)

let test_space_check () =
  let g = Mgraph.Graph_gen.path 3 in
  (* edges: 0=(0,1), 1=(1,2) *)
  let inst = M.Instance.uniform g ~cap:1 in
  let sched = M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |] in
  let roomy =
    {
      M.Space.space = [| 2; 2; 2 |];
      initial_load = [| 1; 1; 1 |];
      bypass = [];
    }
  in
  Alcotest.(check bool) "fits" true (M.Space.check inst roomy sched = Ok ());
  let tight =
    {
      M.Space.space = [| 1; 1; 1 |];
      initial_load = [| 1; 1; 1 |];
      bypass = [];
    }
  in
  Alcotest.(check bool) "overflow detected" true
    (M.Space.check inst tight sched <> Ok ())

let test_space_plan_direct () =
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:1 in
  let cfg =
    {
      M.Space.space = [| 2; 2; 2 |];
      initial_load = [| 1; 1; 0 |];
      bypass = [];
    }
  in
  let plan = M.Space.plan inst cfg in
  Alcotest.(check bool) "valid hops" true
    (M.Forwarding.validate inst plan = Ok ());
  Alcotest.(check bool) "space respected" true
    (M.Space.check_plan inst cfg plan = Ok ())

let test_space_cycle_needs_spare () =
  (* 3 full disks want to rotate their items; a 4th empty disk is the
     only slack.  Direct delivery is impossible; the planner must
     relay through the spare. *)
  let g = Multigraph.create ~n:4 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 1 2);
  ignore (Multigraph.add_edge g 2 0);
  let inst = M.Instance.uniform g ~cap:1 in
  let cfg =
    {
      M.Space.space = [| 1; 1; 1; 1 |];
      initial_load = [| 1; 1; 1; 0 |];
      bypass = [ 3 ];
    }
  in
  let plan = M.Space.plan inst cfg in
  Alcotest.(check bool) "valid hops" true
    (M.Forwarding.validate inst plan = Ok ());
  Alcotest.(check bool) "space respected" true
    (M.Space.check_plan inst cfg plan = Ok ());
  (* at least one relay was necessary *)
  let hops = Array.to_list (M.Forwarding.rounds plan) |> List.concat in
  Alcotest.(check bool) "used the spare disk" true
    (List.exists (fun h -> h.M.Forwarding.dst = 3) hops)

let test_space_deadlock () =
  (* the same cycle with no spare disk at all deadlocks *)
  let g = Multigraph.create ~n:3 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 1 2);
  ignore (Multigraph.add_edge g 2 0);
  let inst = M.Instance.uniform g ~cap:1 in
  let cfg =
    {
      M.Space.space = [| 1; 1; 1 |];
      initial_load = [| 1; 1; 1 |];
      bypass = [];
    }
  in
  match M.Space.plan inst cfg with
  | _ -> Alcotest.fail "expected Stuck"
  | exception M.Space.Stuck _ -> ()

let test_space_config_guards () =
  let g = Mgraph.Graph_gen.path 2 in
  let inst = M.Instance.uniform g ~cap:1 in
  Alcotest.check_raises "overloaded start"
    (Invalid_argument "Space: disk 0 starts above capacity (2 > 1)")
    (fun () ->
      M.Space.validate_config inst
        { M.Space.space = [| 1; 5 |]; initial_load = [| 2; 0 |]; bypass = [] })

let space_plan_random =
  qtest "space: plans with one spare unit per disk always deliver" ~count:30
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let n = 4 + Random.State.int rng 8 in
      let g = Mgraph.Graph_gen.gnm rng ~n ~m:(2 * n) in
      let inst = M.Instance.random_caps rng g ~choices:[ 1; 2 ] in
      (* loads: items per disk as sources; capacity leaves one spare
         above both the initial and the final occupancy (space must at
         least fit the end state, plus Hall et al.'s spare unit) *)
      let load = Array.make n 0 in
      let final = Array.make n 0 in
      Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
          load.(u) <- load.(u) + 1;
          final.(v) <- final.(v) + 1);
      let cfg =
        {
          M.Space.space = Array.init n (fun d -> max load.(d) final.(d) + 1);
          initial_load = load;
          bypass = [];
        }
      in
      match M.Space.plan ~rng inst cfg with
      | plan ->
          M.Forwarding.validate inst plan = Ok ()
          && M.Space.check_plan inst cfg plan = Ok ()
      | exception M.Space.Stuck _ ->
          (* acceptable only if some disk really had zero slack for its
             arrivals; with +1 spare everywhere this shouldn't happen *)
          false)

(* ------------------------------------------------------------------ *)
(* Cloning *)

let test_cloning_broadcast_doubling () =
  (* 1 source, 7 destinations, c = 1 everywhere: holders double each
     round -> exactly 3 rounds *)
  let t =
    M.Cloning.create ~n_disks:8 ~caps:(Array.make 8 1)
      [| { M.Cloning.sources = [ 0 ]; destinations = [ 1; 2; 3; 4; 5; 6; 7 ] } |]
  in
  let plan = M.Cloning.plan t in
  Alcotest.(check bool) "valid" true (M.Cloning.validate t plan = Ok ());
  Alcotest.(check int) "3 rounds" 3 (Array.length plan);
  Alcotest.(check bool) "lower bound consistent" true
    (Array.length plan >= M.Cloning.lower_bound t)

let test_cloning_fast_hub () =
  (* source with c = 7 serves everyone at once *)
  let caps = Array.make 8 7 in
  let t =
    M.Cloning.create ~n_disks:8 ~caps
      [| { M.Cloning.sources = [ 0 ]; destinations = [ 1; 2; 3; 4; 5; 6; 7 ] } |]
  in
  let plan = M.Cloning.plan t in
  Alcotest.(check bool) "valid" true (M.Cloning.validate t plan = Ok ());
  Alcotest.(check int) "1 round" 1 (Array.length plan)

let test_cloning_guards () =
  Alcotest.check_raises "empty sources"
    (Invalid_argument "Cloning.create: empty source set") (fun () ->
      ignore
        (M.Cloning.create ~n_disks:2 ~caps:[| 1; 1 |]
           [| { M.Cloning.sources = []; destinations = [ 1 ] } |]));
  Alcotest.check_raises "bad disk"
    (Invalid_argument "Cloning.create: bad disk in destinations") (fun () ->
      ignore
        (M.Cloning.create ~n_disks:2 ~caps:[| 1; 1 |]
           [| { M.Cloning.sources = [ 0 ]; destinations = [ 5 ] } |]))

let test_cloning_validator_catches () =
  let t =
    M.Cloning.create ~n_disks:3 ~caps:[| 1; 1; 1 |]
      [| { M.Cloning.sources = [ 0 ]; destinations = [ 1; 2 ] } |]
  in
  (* serving from a disk that holds nothing *)
  let bad = [| [ { M.Cloning.item = 0; src = 1; dst = 2 } ] |] in
  Alcotest.(check bool) "bad source" true (M.Cloning.validate t bad <> Ok ());
  (* capacity violation *)
  let over =
    [|
      [
        { M.Cloning.item = 0; src = 0; dst = 1 };
        { M.Cloning.item = 0; src = 0; dst = 2 };
      ];
    |]
  in
  Alcotest.(check bool) "over cap" true (M.Cloning.validate t over <> Ok ());
  (* unmet destination *)
  let partial = [| [ { M.Cloning.item = 0; src = 0; dst = 1 } ] |] in
  Alcotest.(check bool) "unmet" true (M.Cloning.validate t partial <> Ok ())

let cloning_random_valid =
  qtest "cloning: random demand sets are planned validly" ~count:40
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let n = 4 + Random.State.int rng 10 in
      let caps = Array.init n (fun _ -> 1 + Random.State.int rng 3) in
      let n_items = 1 + Random.State.int rng 12 in
      let demands =
        Array.init n_items (fun _ ->
            let src = Random.State.int rng n in
            let dests =
              List.init n Fun.id
              |> List.filter (fun v ->
                     v <> src && Random.State.bool rng)
            in
            { M.Cloning.sources = [ src ]; destinations = dests })
      in
      let t = M.Cloning.create ~n_disks:n ~caps demands in
      let plan = M.Cloning.plan ~rng t in
      M.Cloning.validate t plan = Ok ()
      && Array.length plan >= M.Cloning.lower_bound t
         || Array.for_all (fun d -> d.M.Cloning.destinations = []) demands)

(* ------------------------------------------------------------------ *)
(* Refine *)

let refine_never_worse =
  qtest "refine: valid, never more rounds, still covers everything" ~count:60
    (instance_spec_gen ~max_n:15 ~max_m:80 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      if M.Instance.n_items inst = 0 then true
      else begin
        (* greedy often leaves slack for refine to reclaim *)
        let ec =
          Coloring.Greedy_coloring.color (M.Instance.graph inst)
            ~cap:(M.Instance.cap inst)
        in
        let sched = M.Schedule.of_coloring ec in
        let sched', st = M.Refine.refine inst sched in
        M.Schedule.validate inst sched' = Ok ()
        && st.M.Refine.rounds_after <= st.M.Refine.rounds_before
        && M.Schedule.n_rounds sched' >= M.Lower_bounds.lb1 inst
      end)

let test_refine_dissolves_slack () =
  (* two single-edge rounds that trivially fit together under c = 2 *)
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:2 in
  let sched = M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |] in
  let sched', st = M.Refine.refine inst sched in
  Alcotest.(check int) "one round" 1 (M.Schedule.n_rounds sched');
  Alcotest.(check int) "moved one edge" 1 st.M.Refine.moves;
  Alcotest.(check bool) "valid" true (M.Schedule.validate inst sched' = Ok ())

let test_refine_respects_tightness () =
  (* c = 1 on a path: the two edges share disk 1, rounds cannot merge *)
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:1 in
  let sched = M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |] in
  let sched', _ = M.Refine.refine inst sched in
  Alcotest.(check int) "still two rounds" 2 (M.Schedule.n_rounds sched')

(* ------------------------------------------------------------------ *)
(* Deadline windows *)

let deadline_properties =
  qtest "deadline: window schedules are feasible subsets" ~count:50
    (instance_spec_gen ~max_n:14 ~max_m:80 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      let rng = rng_of_int spec.cap_seed in
      let budget = 1 + (spec.cap_seed mod 5) in
      let r = M.Deadline.plan_window ~rng inst ~budget in
      let m = M.Instance.n_items inst in
      (* partition *)
      List.length r.M.Deadline.moved + List.length r.M.Deadline.deferred = m
      && M.Schedule.n_rounds r.M.Deadline.schedule <= budget
      (* the window schedule is feasible for the sub-instance it moves *)
      && (let scheduled =
            Array.to_list (M.Schedule.rounds r.M.Deadline.schedule)
            |> List.concat |> List.sort compare
          in
          scheduled = r.M.Deadline.moved)
      && r.M.Deadline.moved_weight <= r.M.Deadline.total_weight +. 1e-9)

let test_deadline_prefers_heavy () =
  (* two forced rounds (c=1 path of 2 edges); weight concentrated on
     edge 1: a 1-round window must take it *)
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:1 in
  let r =
    M.Deadline.plan_window inst ~budget:1
      ~weights:(fun e -> if e = 1 then 10.0 else 1.0)
  in
  Alcotest.(check (list int)) "moved the heavy item" [ 1 ] r.M.Deadline.moved;
  Alcotest.(check (float 1e-9)) "weight" 10.0 r.M.Deadline.moved_weight

let test_deadline_budget_extremes () =
  let g = Mgraph.Graph_gen.triangle_stack 3 in
  let inst = M.Instance.uniform g ~cap:2 in
  let zero = M.Deadline.plan_window inst ~budget:0 in
  Alcotest.(check (list int)) "nothing moves" [] zero.M.Deadline.moved;
  let plenty = M.Deadline.plan_window inst ~budget:100 in
  Alcotest.(check (list int)) "everything moves" [] plenty.M.Deadline.deferred;
  Alcotest.check_raises "negative"
    (Invalid_argument "Deadline.plan_window: negative budget") (fun () ->
      ignore (M.Deadline.plan_window inst ~budget:(-1)))

let () =
  Alcotest.run "extensions"
    [
      ( "halving",
        [
          halving_valid;
          Alcotest.test_case "recursion depth" `Quick
            test_halving_recursion_depth;
          Alcotest.test_case "thin graphs skip recursion" `Quick
            test_halving_no_recursion_when_thin;
          halving_close_to_direct;
          Alcotest.test_case "leftovers fill the doubled rounds" `Quick
            test_halving_leftovers_fill_slack;
          Alcotest.test_case "even powers optimal" `Quick
            test_halving_exact_on_even_powers;
        ] );
      ( "completion_time",
        [
          Alcotest.test_case "item sum" `Quick test_item_sum_hand;
          Alcotest.test_case "disk sum" `Quick test_disk_sum_hand;
          reorder_items_optimal;
          reorder_disks_no_worse;
          Alcotest.test_case "exact small" `Quick
            test_reorder_disks_exact_small;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "beats the Γ bound with helpers" `Quick
            test_forwarding_beats_gamma;
          Alcotest.test_case "falls back without helpers" `Quick
            test_forwarding_falls_back;
          forwarding_always_valid;
          Alcotest.test_case "validator catches" `Quick
            test_forwarding_validator_catches;
        ] );
      ( "space",
        [
          Alcotest.test_case "check" `Quick test_space_check;
          Alcotest.test_case "plan direct" `Quick test_space_plan_direct;
          Alcotest.test_case "cycle needs spare" `Quick
            test_space_cycle_needs_spare;
          Alcotest.test_case "deadlock detected" `Quick test_space_deadlock;
          Alcotest.test_case "config guards" `Quick test_space_config_guards;
          space_plan_random;
        ] );
      ( "refine",
        [
          refine_never_worse;
          Alcotest.test_case "dissolves slack" `Quick
            test_refine_dissolves_slack;
          Alcotest.test_case "respects tightness" `Quick
            test_refine_respects_tightness;
        ] );
      ( "deadline",
        [
          deadline_properties;
          Alcotest.test_case "prefers heavy" `Quick test_deadline_prefers_heavy;
          Alcotest.test_case "budget extremes" `Quick
            test_deadline_budget_extremes;
        ] );
      ( "cloning",
        [
          Alcotest.test_case "broadcast doubling" `Quick
            test_cloning_broadcast_doubling;
          Alcotest.test_case "fast hub" `Quick test_cloning_fast_hub;
          Alcotest.test_case "guards" `Quick test_cloning_guards;
          Alcotest.test_case "validator catches" `Quick
            test_cloning_validator_catches;
          cloning_random_valid;
        ] );
    ]
