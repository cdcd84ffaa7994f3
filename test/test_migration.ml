(* Tests for the migration core: Instance, Schedule, Lower_bounds,
   Even_optimal (Theorem 4.1), Hetero_coloring (Theorem 5.1), Saia,
   Exact, and the planner dispatch. *)

module Multigraph = Mgraph.Multigraph
module M = Migration
open Test_util

let even_instance_gen =
  instance_spec_gen ~menu:[ 2; 4; 6; 8 ] ~max_n:25 ~max_m:160 ()

let mixed_instance_gen =
  instance_spec_gen ~menu:[ 1; 2; 3; 4; 5 ] ~max_n:25 ~max_m:160 ()

let tiny_instance_gen =
  instance_spec_gen ~menu:[ 1; 2; 3 ] ~max_n:5 ~max_m:9 ()

(* ------------------------------------------------------------------ *)
(* Instance *)

let test_instance_validation () =
  let g = Multigraph.create ~n:2 () in
  ignore (Multigraph.add_edge g 0 1);
  Alcotest.check_raises "caps length"
    (Invalid_argument "Instance.create: one capacity per node required")
    (fun () -> ignore (M.Instance.create g ~caps:[| 1 |]));
  Alcotest.check_raises "zero cap"
    (Invalid_argument "Instance.create: capacities must be >= 1") (fun () ->
      ignore (M.Instance.create g ~caps:[| 1; 0 |]));
  let loop = Multigraph.create ~n:1 () in
  ignore (Multigraph.add_edge loop 0 0);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Instance.create: self-loop (item already at target)")
    (fun () -> ignore (M.Instance.create loop ~caps:[| 1 |]))

let test_instance_accessors () =
  let g = Mgraph.Graph_gen.triangle_stack 3 in
  let inst = M.Instance.create g ~caps:[| 2; 4; 6 |] in
  Alcotest.(check int) "disks" 3 (M.Instance.n_disks inst);
  Alcotest.(check int) "items" 9 (M.Instance.n_items inst);
  Alcotest.(check int) "cap" 4 (M.Instance.cap inst 1);
  Alcotest.(check bool) "even" true (M.Instance.all_caps_even inst);
  (* degree 6, cap 2 -> ratio 3 *)
  Alcotest.(check int) "degree ratio" 3 (M.Instance.degree_ratio inst 0);
  let inst2 = M.Instance.uniform g ~cap:3 in
  Alcotest.(check bool) "odd not even" false (M.Instance.all_caps_even inst2)

let instance_roundtrip =
  qtest "instance: to_string/of_string round trip" mixed_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      let inst' = M.Instance.of_string (M.Instance.to_string inst) in
      M.Instance.n_disks inst' = M.Instance.n_disks inst
      && M.Instance.n_items inst' = M.Instance.n_items inst
      && M.Instance.caps inst' = M.Instance.caps inst
      && List.for_all
           (fun e ->
             Multigraph.endpoints (M.Instance.graph inst) e.Multigraph.id
             = Multigraph.endpoints (M.Instance.graph inst') e.Multigraph.id)
           (Multigraph.edges (M.Instance.graph inst)))

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_schedule_validate () =
  let g = Mgraph.Graph_gen.path 3 in
  (* edges: 0=(0,1), 1=(1,2); caps 1 everywhere *)
  let inst = M.Instance.uniform g ~cap:1 in
  let ok = M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |] in
  Alcotest.(check bool) "valid" true (M.Schedule.validate inst ok = Ok ());
  let conflict = M.Schedule.of_rounds [| [ 0; 1 ] |] in
  Alcotest.(check bool) "conflict caught" true
    (M.Schedule.validate inst conflict <> Ok ());
  let missing = M.Schedule.of_rounds [| [ 0 ] |] in
  Alcotest.(check bool) "missing caught" true
    (M.Schedule.validate inst missing <> Ok ());
  let dup = M.Schedule.of_rounds [| [ 0 ]; [ 0; 1 ] |] in
  Alcotest.(check bool) "duplicate caught" true
    (M.Schedule.validate inst dup <> Ok ());
  let unknown = M.Schedule.of_rounds [| [ 0 ]; [ 1 ]; [ 7 ] |] in
  Alcotest.(check bool) "unknown caught" true
    (M.Schedule.validate inst unknown <> Ok ())

let test_schedule_cap2_parallel () =
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:2 in
  let s = M.Schedule.of_rounds [| [ 0; 1 ] |] in
  Alcotest.(check bool) "one round fits with c=2" true
    (M.Schedule.validate inst s = Ok ());
  Alcotest.(check (array int)) "max parallelism" [| 2 |]
    (M.Schedule.max_parallelism inst s)

let test_schedule_of_coloring () =
  let g = Mgraph.Graph_gen.path 3 in
  let t = Coloring.Edge_coloring.create g ~cap:(fun _ -> 1) ~colors:3 in
  Coloring.Edge_coloring.assign t 0 0;
  Coloring.Edge_coloring.assign t 1 2;
  let s = M.Schedule.of_coloring t in
  Alcotest.(check int) "empty classes dropped" 2 (M.Schedule.n_rounds s);
  Alcotest.(check int) "items" 2 (M.Schedule.n_items s)

let test_schedule_incomplete_coloring () =
  let g = Mgraph.Graph_gen.path 3 in
  let t = Coloring.Edge_coloring.create g ~cap:(fun _ -> 1) ~colors:3 in
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Schedule.of_coloring: coloring incomplete") (fun () ->
      ignore (M.Schedule.of_coloring t))

(* ------------------------------------------------------------------ *)
(* Lower bounds *)

let test_lb1_hand () =
  let g = Mgraph.Graph_gen.star ~leaves:7 in
  let caps = Array.make 8 1 in
  caps.(0) <- 3;
  let inst = M.Instance.create g ~caps in
  (* hub degree 7, cap 3 -> ceil = 3 *)
  Alcotest.(check int) "lb1 star" 3 (M.Lower_bounds.lb1 inst)

let test_gamma_triangle () =
  (* the paper's Figure 2 seen through Lemma 3.1: triangle with M
     parallel edges and c=1 gives Γ = 3M on S = {0,1,2} *)
  let m = 5 in
  let g = Mgraph.Graph_gen.triangle_stack m in
  let inst = M.Instance.uniform g ~cap:1 in
  Alcotest.(check int) "gamma term" (3 * m)
    (M.Lower_bounds.gamma_term inst [ 0; 1; 2 ]);
  (* lb1 alone is only 2M: Γ is strictly stronger here *)
  Alcotest.(check int) "lb1 weaker" (2 * m) (M.Lower_bounds.lb1 inst);
  Alcotest.(check int) "lb2 finds it" (3 * m)
    (M.Lower_bounds.lb2 ~rng:(rng_of_int 1) inst);
  (* with c=2 the same subset only certifies M *)
  let inst2 = M.Instance.uniform g ~cap:2 in
  Alcotest.(check int) "gamma with c=2" m
    (M.Lower_bounds.gamma_term inst2 [ 0; 1; 2 ])

let test_gamma_guards () =
  let g = Mgraph.Graph_gen.path 2 in
  let inst = M.Instance.uniform g ~cap:1 in
  Alcotest.check_raises "duplicate node"
    (Invalid_argument "Lower_bounds.gamma_term: duplicate node") (fun () ->
      ignore (M.Lower_bounds.gamma_term inst [ 0; 0 ]))

let lb_sound =
  qtest "lower bounds: lb <= exact OPT on tiny instances" ~count:60
    tiny_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      match M.Exact.opt_rounds inst with
      | None -> true (* budget blown; nothing to check *)
      | Some opt ->
          M.Lower_bounds.lower_bound ~rng:(rng_of_int 1) inst <= opt)

let lb2_at_least_whole_graph =
  qtest "lower bounds: lb2 >= whole-graph term" mixed_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      let whole = M.Lower_bounds.gamma_term inst
          (List.init (M.Instance.n_disks inst) Fun.id) in
      M.Lower_bounds.lb2 ~rng:(rng_of_int 2) inst >= whole)

(* ------------------------------------------------------------------ *)
(* Even_optimal: Theorem 4.1 *)

let even_optimal_theorem =
  qtest "even caps: schedule is valid and achieves LB1 exactly (Thm 4.1)"
    ~count:150 even_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      let s = M.Even_optimal.schedule inst in
      M.Schedule.validate inst s = Ok ()
      && M.Schedule.n_rounds s = M.Lower_bounds.lb1 inst)

let test_even_optimal_empty () =
  let g = Multigraph.create ~n:4 () in
  let inst = M.Instance.uniform g ~cap:2 in
  Alcotest.(check int) "zero rounds" 0
    (M.Schedule.n_rounds (M.Even_optimal.schedule inst))

let test_even_optimal_odd_rejected () =
  let g = Mgraph.Graph_gen.path 2 in
  let inst = M.Instance.uniform g ~cap:1 in
  Alcotest.check_raises "odd caps"
    (Invalid_argument
       "Even_optimal.schedule: all transfer constraints must be even")
    (fun () -> ignore (M.Even_optimal.schedule inst))

let test_even_optimal_fig2 () =
  (* Figure 2 with c=2: M rounds *)
  let m = 6 in
  let g = Mgraph.Graph_gen.triangle_stack m in
  let inst = M.Instance.uniform g ~cap:2 in
  let s = M.Even_optimal.schedule inst in
  check_valid_schedule inst s "fig2";
  Alcotest.(check int) "M rounds" m (M.Schedule.n_rounds s)

let test_even_optimal_disconnected () =
  let g = Multigraph.create ~n:6 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 3 4);
  ignore (Multigraph.add_edge g 4 5);
  let inst = M.Instance.create g ~caps:[| 2; 2; 2; 2; 2; 4 |] in
  let s = M.Even_optimal.schedule inst in
  check_valid_schedule inst s "disconnected";
  Alcotest.(check int) "lb1 rounds" (M.Lower_bounds.lb1 inst)
    (M.Schedule.n_rounds s)

let even_heterogeneous_caps =
  qtest "even caps: heterogeneity handled (caps 2 vs 8)" ~count:60
    (instance_spec_gen ~menu:[ 2; 8 ] ~max_n:20 ~max_m:120 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      let s = M.Even_optimal.schedule inst in
      M.Schedule.validate inst s = Ok ()
      && M.Schedule.n_rounds s = M.Lower_bounds.lb1 inst)

(* ------------------------------------------------------------------ *)
(* Hetero_coloring: the general algorithm *)

let hetero_valid =
  qtest "general: schedule valid, rounds >= lb" ~count:120 mixed_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      let rng = rng_of_int spec.cap_seed in
      let s, stats = M.Hetero_coloring.schedule_stats ~rng inst in
      let r = M.Schedule.n_rounds s in
      M.Schedule.validate inst s = Ok ()
      && (M.Instance.n_items inst = 0 || r >= stats.M.Hetero_coloring.lb))

let hetero_beats_saia_bound =
  qtest "general: rounds <= Saia's 1.5 guarantee" ~count:100
    mixed_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      if M.Instance.n_items inst = 0 then true
      else begin
        let rng = rng_of_int spec.cap_seed in
        let s = M.Hetero_coloring.schedule ~rng inst in
        M.Schedule.n_rounds s <= M.Saia.round_bound inst + 1
      end)

let hetero_near_optimal_small =
  qtest "general: within OPT+1 on tiny instances" ~count:50 tiny_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      match M.Exact.opt_rounds inst with
      | None -> true
      | Some opt ->
          let rng = rng_of_int spec.cap_seed in
          let s = M.Hetero_coloring.schedule ~rng inst in
          M.Schedule.n_rounds s <= opt + 1)

let test_hetero_homogeneous_c1 () =
  (* with all c=1 this is classic multigraph edge coloring; the
     triangle-stack needs 3M rounds and the algorithm must find it *)
  let m = 4 in
  let g = Mgraph.Graph_gen.triangle_stack m in
  let inst = M.Instance.uniform g ~cap:1 in
  let s = M.Hetero_coloring.schedule ~rng:(rng_of_int 11) inst in
  check_valid_schedule inst s "c1 triangle";
  Alcotest.(check int) "3M rounds (Γ-tight)" (3 * m) (M.Schedule.n_rounds s)

let test_hetero_empty () =
  let g = Multigraph.create ~n:3 () in
  let inst = M.Instance.uniform g ~cap:1 in
  let s = M.Hetero_coloring.schedule inst in
  Alcotest.(check int) "zero rounds" 0 (M.Schedule.n_rounds s)

let hetero_deterministic =
  qtest "general: deterministic for a fixed seed" ~count:30
    mixed_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      let run () =
        M.Schedule.rounds
          (M.Hetero_coloring.schedule ~rng:(rng_of_int 99) inst)
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Saia baseline *)

let saia_valid_and_bounded =
  qtest "saia: valid and within the 1.5 bound" ~count:100 mixed_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      if M.Instance.n_items inst = 0 then true
      else begin
        let rng = rng_of_int spec.gspec.seed in
        let s = M.Saia.schedule ~rng inst in
        M.Schedule.validate inst s = Ok ()
        && M.Schedule.n_rounds s <= M.Saia.round_bound inst
      end)

let test_split_graph_properties () =
  let g = Mgraph.Graph_gen.triangle_stack 4 in
  let caps = [| 2; 3; 4 |] in
  let off = M.Split_graph.offsets caps in
  Alcotest.(check (array int)) "offsets" [| 0; 2; 5; 9 |] off;
  let sg = M.Split_graph.split g ~caps in
  Alcotest.(check int) "copies" 9 (Multigraph.n_nodes sg);
  Alcotest.(check int) "edges preserved" 12 (Multigraph.n_edges sg);
  (* node 0: degree 8, 2 copies -> each copy degree 4 *)
  Alcotest.(check int) "copy 0 degree" 4 (Multigraph.degree sg 0);
  Alcotest.(check int) "copy 1 degree" 4 (Multigraph.degree sg 1);
  Alcotest.(check int) "bound" 4 (M.Split_graph.split_degree_bound g ~caps)

(* ------------------------------------------------------------------ *)
(* Exact *)

let test_exact_triangle () =
  let g = Mgraph.Graph_gen.triangle_stack 1 in
  let inst = M.Instance.uniform g ~cap:1 in
  Alcotest.(check (option int)) "triangle c=1 needs 3" (Some 3)
    (M.Exact.opt_rounds inst);
  let inst2 = M.Instance.uniform g ~cap:2 in
  (* with c = 2, all three edges fit in a single round *)
  Alcotest.(check (option int)) "triangle c=2 needs 1" (Some 1)
    (M.Exact.opt_rounds inst2)

let test_exact_star () =
  let g = Mgraph.Graph_gen.star ~leaves:5 in
  let caps = Array.make 6 1 in
  caps.(0) <- 2;
  let inst = M.Instance.create g ~caps in
  (* hub degree 5, cap 2: ceil(5/2) = 3 and that's achievable *)
  Alcotest.(check (option int)) "star" (Some 3) (M.Exact.opt_rounds inst)

let test_exact_budget_exhaustion () =
  (* a dense instance with a 1-node budget must give up, not hang *)
  let g = Mgraph.Graph_gen.gnm (rng_of_int 7) ~n:8 ~m:40 in
  let inst = M.Instance.uniform g ~cap:1 in
  match M.Exact.solve ~node_budget:1 inst with
  | M.Exact.Gave_up -> ()
  | M.Exact.Optimal _ -> Alcotest.fail "expected Gave_up under a 1-node budget"

let test_instance_of_string_errors () =
  let bad input =
    try
      ignore (M.Instance.of_string input);
      Alcotest.failf "expected failure for %S" input
    with Failure _ | Invalid_argument _ -> ()
  in
  bad "";
  bad "2";
  bad "2 1";
  bad "2 1\n1 0";
  bad "2 1\n1 1\n0";
  bad "2 1\n1 1\n0 0" (* self loop *);
  bad "2 1\n0 1\n0 1" (* zero capacity *)

let exact_matches_even_optimal =
  qtest "exact: agrees with Theorem 4.1 on tiny even instances" ~count:40
    (instance_spec_gen ~menu:[ 2; 4 ] ~max_n:5 ~max_m:8 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      match M.Exact.opt_rounds inst with
      | None -> true
      | Some opt ->
          opt
          = M.Schedule.n_rounds (M.Even_optimal.schedule inst))

let exact_schedule_valid =
  qtest "exact: produced schedule is valid" ~count:40 tiny_instance_gen
    (fun spec ->
      let inst = instance_of_spec spec in
      match M.Exact.solve inst with
      | M.Exact.Gave_up -> true
      | M.Exact.Optimal s -> M.Schedule.validate inst s = Ok ())

(* ------------------------------------------------------------------ *)
(* Planner dispatch *)

let planner_all_algorithms_valid =
  qtest "planner: every algorithm yields a valid schedule" ~count:40
    (instance_spec_gen ~menu:[ 2; 4 ] ~max_n:15 ~max_m:80 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      List.for_all
        (fun solver ->
          let rng = rng_of_int 5 in
          let s = M.Solver.solve ~rng solver inst in
          M.Schedule.validate inst s = Ok ())
        M.Pipeline.solvers)

let test_planner_auto_even () =
  let g = Mgraph.Graph_gen.triangle_stack 3 in
  let inst = M.Instance.uniform g ~cap:2 in
  let s = M.Solver.solve M.Pipeline.auto inst in
  Alcotest.(check int) "auto = optimal for even" (M.Lower_bounds.lb1 inst)
    (M.Schedule.n_rounds s)

let test_algorithm_strings () =
  List.iter
    (fun (s : M.Solver.t) ->
      match M.Pipeline.find s.name with
      | Some s' when s' == s -> ()
      | _ -> Alcotest.failf "round trip failed for %s" s.name)
    M.Pipeline.solvers;
  Alcotest.(check bool) "unknown" true (M.Pipeline.find "nope" = None)

(* ------------------------------------------------------------------ *)
(* Validator fuzzing: every corruption of a valid schedule is caught *)

let validator_catches_mutations =
  qtest "schedule validator: random corruptions always detected" ~count:80
    QCheck2.Gen.(
      let* spec = instance_spec_gen ~menu:[ 1; 2; 3 ] ~max_n:10 ~max_m:30 () in
      let* kind = int_bound 3 in
      let* pick = int_bound 1_000_000 in
      return (spec, kind, pick))
    (fun (spec, kind, pick) ->
      let inst = instance_of_spec spec in
      let m = M.Instance.n_items inst in
      if m = 0 then true
      else begin
        let sched = M.Hetero_coloring.schedule ~rng:(rng_of_int pick) inst in
        let rounds = M.Schedule.rounds sched in
        let k = Array.length rounds in
        let corrupted =
          match kind with
          | 0 ->
              (* drop one edge *)
              let r = pick mod k in
              let edges = rounds.(r) in
              if edges = [] then None
              else begin
                rounds.(r) <- List.tl edges;
                Some (M.Schedule.of_rounds rounds)
              end
          | 1 ->
              (* schedule one edge twice *)
              let r = pick mod k in
              let e = pick mod m in
              rounds.(r) <- e :: rounds.(r);
              Some (M.Schedule.of_rounds rounds)
          | 2 ->
              (* unknown edge id *)
              let r = pick mod k in
              rounds.(r) <- (m + 5) :: rounds.(r);
              Some (M.Schedule.of_rounds rounds)
          | _ ->
              (* collapse everything into a single round: infeasible
                 whenever the lower bound needs >= 2 rounds *)
              if M.Lower_bounds.lb1 inst < 2 then None
              else
                Some
                  (M.Schedule.of_rounds
                     [| Array.to_list rounds |> List.concat |])
        in
        match corrupted with
        | None -> true (* mutation not applicable here *)
        | Some bad -> M.Schedule.validate inst bad <> Ok ()
      end)

(* ------------------------------------------------------------------ *)
(* Orbits: the paper's Section V-B structures and lemma checks *)

let partial_coloring spec fraction =
  let inst = instance_of_spec spec in
  let g = M.Instance.graph inst in
  let q = max 1 (M.Lower_bounds.lb1 inst + 1) in
  let t =
    Coloring.Edge_coloring.create g ~cap:(M.Instance.cap inst) ~colors:q
  in
  let rng = rng_of_int spec.cap_seed in
  Multigraph.iter_edges g (fun { Multigraph.id; _ } ->
      if Random.State.float rng 1.0 < fraction then
        match Coloring.Edge_coloring.common_missing t id with
        | Some c -> Coloring.Edge_coloring.assign t id c
        | None -> ());
  (inst, t)

let test_orbit_balancing_detection () =
  (* node 1 has cap 3 and no colored edges: strongly missing color 0 *)
  let g = Mgraph.Graph_gen.path 3 in
  let caps = [| 1; 3; 1 |] in
  let inst = M.Instance.create g ~caps in
  let t =
    Coloring.Edge_coloring.create (M.Instance.graph inst)
      ~cap:(M.Instance.cap inst) ~colors:2
  in
  match M.Orbits.orbits t with
  | [ orbit ] -> (
      Alcotest.(check int) "component spans the path" 3
        (List.length orbit.M.Orbits.nodes);
      match M.Orbits.classify t orbit with
      | M.Orbits.Balancing { node; _ } ->
          Alcotest.(check int) "the cap-3 node" 1 node
      | _ -> Alcotest.fail "expected a balancing orbit")
  | orbits -> Alcotest.failf "expected one orbit, got %d" (List.length orbits)

let test_orbit_color_orbit_detection () =
  (* caps 1 everywhere: every untouched node lightly misses color 0 *)
  let g = Mgraph.Graph_gen.path 3 in
  let inst = M.Instance.uniform g ~cap:1 in
  let t =
    Coloring.Edge_coloring.create (M.Instance.graph inst)
      ~cap:(M.Instance.cap inst) ~colors:1
  in
  match M.Orbits.orbits t with
  | [ orbit ] -> (
      match M.Orbits.classify t orbit with
      | M.Orbits.Color_orbit { color; _ } ->
          Alcotest.(check int) "shared missing color" 0 color
      | M.Orbits.Balancing _ -> Alcotest.fail "caps are 1: nothing strong"
      | M.Orbits.Tight -> Alcotest.fail "two nodes share the missing color")
  | _ -> Alcotest.fail "expected one orbit"

let test_orbit_bad_edges () =
  let g = Multigraph.create ~n:2 () in
  let e0 = Multigraph.add_edge g 0 1 in
  let e1 = Multigraph.add_edge g 0 1 in
  let inst = M.Instance.create g ~caps:[| 2; 2 |] in
  let t =
    Coloring.Edge_coloring.create (M.Instance.graph inst)
      ~cap:(M.Instance.cap inst) ~colors:2
  in
  Alcotest.(check (list int)) "both bad" [ e0; e1 ] (M.Orbits.bad_edges t);
  Coloring.Edge_coloring.assign t e0 0;
  Alcotest.(check (list int)) "none once one is colored" []
    (M.Orbits.bad_edges t)

let orbit_lemmas_hold =
  qtest "orbits: Lemmas 5.1/5.2 — non-tight orbits always yield progress"
    ~count:120
    (instance_spec_gen ~menu:[ 1; 2; 3; 4 ] ~max_n:14 ~max_m:60 ())
    (fun spec ->
      let _, t = partial_coloring spec 0.6 in
      let before = Coloring.Edge_coloring.n_uncolored t in
      if before = 0 then true
      else begin
        let rng = rng_of_int spec.gspec.seed in
        List.for_all
          (fun orbit ->
            match M.Orbits.classify t orbit with
            | M.Orbits.Tight -> true
            | M.Orbits.Balancing _ | M.Orbits.Color_orbit _ -> (
                match M.Orbits.make_progress ~rng t orbit with
                | Some _ ->
                    Coloring.Edge_coloring.validate t = Ok ()
                    && Coloring.Edge_coloring.n_uncolored t < before
                | None -> false))
          (M.Orbits.orbits t)
        |> fun ok ->
        (* at most one orbit was consumed above; re-validate the rest *)
        ok && Coloring.Edge_coloring.validate t = Ok ()
      end)

let test_edge_orbit_seed_and_grow () =
  (* two parallel uncolored edges plus an alternating path to follow *)
  let g = Multigraph.create ~n:4 () in
  let _e0 = Multigraph.add_edge g 0 1 in
  let _e1 = Multigraph.add_edge g 0 1 in
  let e2 = Multigraph.add_edge g 1 2 in
  let e3 = Multigraph.add_edge g 2 3 in
  let inst = M.Instance.uniform g ~cap:1 in
  let t =
    Coloring.Edge_coloring.create (M.Instance.graph inst)
      ~cap:(M.Instance.cap inst) ~colors:3
  in
  Coloring.Edge_coloring.assign t e2 0;
  Coloring.Edge_coloring.assign t e3 1;
  let orbit = M.Orbits.seed_orbit t 0 in
  Alcotest.(check (list int)) "seed vertices" [ 0; 1 ]
    orbit.M.Orbits.vertices;
  (match M.Orbits.grow t orbit with
  | M.Orbits.Grew o ->
      Alcotest.(check bool) "reached new vertices" true
        (List.length o.M.Orbits.vertices > 2);
      Alcotest.(check bool) "consumed colors" true
        (o.M.Orbits.used_colors <> [])
  | M.Orbits.Delta_witness _ -> Alcotest.fail "palette 3 has free colors"
  | M.Orbits.Gamma_witness -> Alcotest.fail "growth was available")

let orbit_engine_valid =
  qtest "orbit engine: faithful Phase 1 produces valid colorings" ~count:50
    (instance_spec_gen ~menu:[ 1; 2; 3 ] ~max_n:12 ~max_m:60 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      let rng = rng_of_int spec.cap_seed in
      let t, stats = M.Orbits.color_via_orbits ~rng inst in
      Coloring.Edge_coloring.is_complete t
      && Coloring.Edge_coloring.validate t = Ok ()
      && stats.M.Orbits.palette
         >= (if M.Instance.n_items inst = 0 then 1 else M.Lower_bounds.lb1 inst))

let orbit_engine_close_to_kempe =
  qtest "orbit engine: palette within 1.5x+2 of the Kempe engine" ~count:30
    (instance_spec_gen ~menu:[ 1; 2; 3 ] ~max_n:10 ~max_m:50 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      if M.Instance.n_items inst = 0 then true
      else begin
        let rng = rng_of_int spec.cap_seed in
        let _, ostats = M.Orbits.color_via_orbits ~rng inst in
        let _, hstats = M.Hetero_coloring.schedule_stats ~rng inst in
        ostats.M.Orbits.palette
        <= (3 * hstats.M.Hetero_coloring.palette / 2) + 2
      end)

let of_string_never_crashes =
  qtest "instance: of_string on junk fails cleanly, never crashes"
    ~count:200
    QCheck2.Gen.(string_size ~gen:(char_range '\000' 'z') (int_bound 60))
    (fun junk ->
      match M.Instance.of_string junk with
      | _ -> true
      | exception (Failure _ | Invalid_argument _) -> true)

let test_diagnostics () =
  let g = Mgraph.Graph_gen.triangle_stack 4 in
  let inst = M.Instance.create g ~caps:[| 1; 2; 2 |] in
  let r = M.Diagnostics.analyze ~rng:(rng_of_int 1) inst in
  Alcotest.(check int) "disks" 3 r.M.Diagnostics.disks;
  Alcotest.(check int) "items" 12 r.M.Diagnostics.items;
  Alcotest.(check int) "multiplicity" 4 r.M.Diagnostics.max_multiplicity;
  Alcotest.(check bool) "odd caps noted" false r.M.Diagnostics.all_caps_even;
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 1); (2, 2) ]
    r.M.Diagnostics.cap_histogram;
  (* degree 8 at the c=1 node -> LB1 = 8; gamma = ceil(12/2) = 6 *)
  Alcotest.(check int) "lb1" 8 r.M.Diagnostics.lb1;
  Alcotest.(check bool) "degree binds" true
    (r.M.Diagnostics.binding_bound = `Degree);
  let rendered = Format.asprintf "%a" M.Diagnostics.pp r in
  Alcotest.(check bool) "renders" true (String.length rendered > 50)

let () =
  Alcotest.run "migration"
    [
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "of_string errors" `Quick
            test_instance_of_string_errors;
          of_string_never_crashes;
          instance_roundtrip;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "validate" `Quick test_schedule_validate;
          validator_catches_mutations;
          Alcotest.test_case "cap2 parallel" `Quick test_schedule_cap2_parallel;
          Alcotest.test_case "of_coloring" `Quick test_schedule_of_coloring;
          Alcotest.test_case "incomplete rejected" `Quick
            test_schedule_incomplete_coloring;
        ] );
      ( "lower_bounds",
        [
          Alcotest.test_case "lb1 star" `Quick test_lb1_hand;
          Alcotest.test_case "gamma triangle (Lemma 3.1)" `Quick
            test_gamma_triangle;
          Alcotest.test_case "guards" `Quick test_gamma_guards;
          lb_sound;
          lb2_at_least_whole_graph;
        ] );
      ( "even_optimal",
        [
          even_optimal_theorem;
          Alcotest.test_case "empty" `Quick test_even_optimal_empty;
          Alcotest.test_case "odd rejected" `Quick
            test_even_optimal_odd_rejected;
          Alcotest.test_case "fig2 c=2" `Quick test_even_optimal_fig2;
          Alcotest.test_case "disconnected" `Quick
            test_even_optimal_disconnected;
          even_heterogeneous_caps;
        ] );
      ( "hetero",
        [
          hetero_valid;
          hetero_beats_saia_bound;
          hetero_near_optimal_small;
          Alcotest.test_case "homogeneous c=1 triangle" `Quick
            test_hetero_homogeneous_c1;
          Alcotest.test_case "empty" `Quick test_hetero_empty;
          hetero_deterministic;
        ] );
      ( "saia",
        [
          saia_valid_and_bounded;
          Alcotest.test_case "split graph" `Quick test_split_graph_properties;
        ] );
      ( "exact",
        [
          Alcotest.test_case "triangle" `Quick test_exact_triangle;
          Alcotest.test_case "star" `Quick test_exact_star;
          Alcotest.test_case "budget exhaustion" `Quick
            test_exact_budget_exhaustion;
          exact_matches_even_optimal;
          exact_schedule_valid;
        ] );
      ( "orbits",
        [
          Alcotest.test_case "balancing detection" `Quick
            test_orbit_balancing_detection;
          Alcotest.test_case "color orbit detection" `Quick
            test_orbit_color_orbit_detection;
          Alcotest.test_case "bad edges" `Quick test_orbit_bad_edges;
          orbit_lemmas_hold;
          Alcotest.test_case "edge orbit growth" `Quick
            test_edge_orbit_seed_and_grow;
          orbit_engine_valid;
          orbit_engine_close_to_kempe;
        ] );
      ( "diagnostics",
        [ Alcotest.test_case "summary" `Quick test_diagnostics ] );
      ( "planner",
        [
          planner_all_algorithms_valid;
          Alcotest.test_case "auto even" `Quick test_planner_auto_even;
          Alcotest.test_case "algorithm strings" `Quick test_algorithm_strings;
        ] );
    ]
