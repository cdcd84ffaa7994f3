(* Benchmark harness: regenerates every figure and theorem-level claim
   of the paper (see DESIGN.md section 4 and EXPERIMENTS.md), one
   experiment per CLI key.

     E1 fig1       the worked example instance
     E2 fig2       homogeneous vs parallel transfers (3M vs 2M)
     E3 thm41      even constraints: rounds = LB1 always
     E4 thm51      general constraints: additive gap vs OPT / lower bound
     E5 baselines  hetero vs Saia-1.5 vs greedy
     E6 lb2        instances where Γ (Lemma 3.1) beats LB1
     E7 runtime    scaling, plus Bechamel micro-benchmarks
     E8 scenarios  end-to-end cluster scenarios
     E9-E25        extensions and ablations (EXPERIMENTS.md)
     E26 parallel  pipeline speedup at 1/2/4 domains
     E27 huge      wall time and allocation per solver at ~1e5 edges
     E28 engine    incremental re-planning vs the re-solve oracle
     E29 sla       weighted group completion vs the round-optimal plan

   An experiment asserts its claim where it computes it, and a broken
   claim fails the run with an uncaught exception: every schedule must
   be valid, E3's rounds must equal LB1 (Theorem 4.1), E4's must stay
   within LB + ceil(2 sqrt LB) + 2 (Theorem 5.1), E26's jobs-4 speedup
   must reach 1.6x on a machine with at least 4 domains, and E27's
   solvers must stay within their bytes-per-edge budgets.  CI runs
   thm41 thm51 parallel huge sla.  Speed regressions are judged on the
   repo benchmark (bench/perf, compared by bench/gate.exe), not here.

   Run everything:         dune exec bench/main.exe
   Run some experiments:   dune exec bench/main.exe -- fig2 thm51 *)

module M = Migration
module Multigraph = Mgraph.Multigraph

let rng_of seed = Random.State.make [| seed; 0xbe7c |]

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let fail_invalid inst sched where =
  match M.Schedule.validate inst sched with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: invalid schedule: %s" where msg)

(* The certifier's full audit against lower bound [lb], including
   [solver]'s stated guarantee: a theorem the run contradicts fails it. *)
let fail_uncertified ~lb ~solver inst sched where =
  let v = M.Certify.check ~lb ~solver inst sched in
  if not (M.Certify.ok v) then
    failwith
      (Printf.sprintf "%s: %s" where
         (String.concat "; "
            (List.map M.Certify.violation_to_string v.M.Certify.violations)))

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 worked example                                         *)

let e1_fig1 () =
  header "E1 [Figure 1]  worked example instance";
  let g = Mgraph.Graph_gen.example_fig1 () in
  let inst = M.Instance.create g ~caps:[| 2; 1; 1; 2; 1 |] in
  let rng = rng_of 1 in
  let lb = M.Lower_bounds.lower_bound ~rng inst in
  let opt = M.Exact.opt_rounds inst in
  Printf.printf "%d disks, %d items, lower bound %d, exact OPT %s\n\n"
    (M.Instance.n_disks inst) (M.Instance.n_items inst) lb
    (match opt with Some o -> string_of_int o | None -> "?");
  Printf.printf "%-10s %7s\n" "algorithm" "rounds";
  List.iter
    (fun alg ->
      let sched = M.plan ~rng:(rng_of 2) alg inst in
      fail_invalid inst sched "e1";
      Printf.printf "%-10s %7d\n"
        (M.algorithm_to_string alg)
        (M.Schedule.n_rounds sched))
    [ M.Hetero; M.Saia_split; M.Greedy ]

(* ------------------------------------------------------------------ *)
(* E2: Figure 2 — parallel transfers beat single-stream migration      *)

let e2_fig2 () =
  header "E2 [Figure 2]  triangle with M parallel items per pair";
  Printf.printf
    "paper: c=1 needs 3M time units; c=2 finishes in 2M (M rounds x 2)\n\n";
  Printf.printf "%6s | %10s %10s | %10s %10s | %7s\n" "M" "c=1 rounds"
    "c=1 time" "c=2 rounds" "c=2 time" "speedup";
  List.iter
    (fun m ->
      let g = Mgraph.Graph_gen.triangle_stack m in
      let run cap =
        let inst = M.Instance.uniform g ~cap in
        let sched = M.plan ~rng:(rng_of m) M.Auto inst in
        fail_invalid inst sched "e2";
        let disks =
          Array.init 3 (fun id -> Storsim.Disk.make ~id ~cap ())
        in
        let job =
          {
            Storsim.Cluster.instance = inst;
            items = Array.init (3 * m) Fun.id;
            sources =
              Array.init (3 * m) (fun e -> fst (Multigraph.endpoints g e));
            targets =
              Array.init (3 * m) (fun e -> snd (Multigraph.endpoints g e));
          }
        in
        ( M.Schedule.n_rounds sched,
          Storsim.Bandwidth.schedule_duration ~disks job sched )
      in
      let r1, t1 = run 1 in
      let r2, t2 = run 2 in
      Printf.printf "%6d | %10d %10.0f | %10d %10.0f | %6.2fx\n" m r1 t1 r2 t2
        (t1 /. t2))
    [ 1; 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E3: Theorem 4.1 — even constraints are solved optimally             *)

let e3_thm41 () =
  header "E3 [Theorem 4.1]  even constraints: rounds = LB1 on every instance";
  Printf.printf "%5s %6s %12s | %6s %6s\n" "n" "m" "caps" "LB1" "rounds";
  let total = ref 0 in
  List.iter
    (fun (n, m, menu, label) ->
      List.iter
        (fun seed ->
          let rng = rng_of seed in
          let g = Mgraph.Graph_gen.gnm rng ~n ~m in
          let inst = M.Instance.random_caps rng g ~choices:menu in
          let sched = M.Even_optimal.schedule inst in
          (* all caps even: LB1 is exact, and even-opt must meet it *)
          let lb1 = M.Lower_bounds.lb1 inst in
          fail_uncertified ~lb:lb1 ~solver:"even-opt" inst sched "e3";
          incr total;
          if seed = 1 then
            Printf.printf "%5d %6d %12s | %6d %6d\n" n m label lb1
              (M.Schedule.n_rounds sched))
        [ 1; 2; 3; 4; 5 ])
    [
      (8, 40, [ 2 ], "{2}");
      (16, 120, [ 2; 4 ], "{2,4}");
      (64, 500, [ 2; 4; 8 ], "{2,4,8}");
      (128, 1500, [ 2; 6 ], "{2,6}");
      (256, 4000, [ 2; 4; 6; 8 ], "{2..8}");
    ];
  Printf.printf "\nrounds = LB1 on all %d instances (asserted; paper: always)\n"
    !total

(* ------------------------------------------------------------------ *)
(* E4: Theorem 5.1 — the general algorithm's additive gap              *)

let e4_thm51 () =
  header
    "E4 [Theorem 5.1]  arbitrary constraints: rounds <= OPT + O(sqrt OPT)";
  Printf.printf
    "gap = rounds - LB (LB <= OPT); paper predicts gap in O(sqrt OPT),\n\
     i.e. ratio -> 1 as instances grow; every schedule is asserted to\n\
     stay within LB + ceil(2 sqrt LB) + 2\n\n";
  Printf.printf "%6s %7s | %7s %7s %7s | %9s %9s\n" "n" "m" "LB" "rounds"
    "gap" "gap/sqrtLB" "ratio";
  List.iter
    (fun (n, m) ->
      let trials = 5 in
      let lb_sum = ref 0 and gap_sum = ref 0 and rounds_sum = ref 0 in
      for seed = 1 to trials do
        let rng = rng_of ((1000 * n) + seed) in
        let g = Mgraph.Graph_gen.gnm rng ~n ~m in
        let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3; 5; 7 ] in
        let sched, stats = M.Hetero_coloring.schedule_stats ~rng inst in
        fail_uncertified ~lb:stats.M.Hetero_coloring.lb ~solver:"hetero" inst
          sched "e4";
        let r = M.Schedule.n_rounds sched in
        lb_sum := !lb_sum + stats.M.Hetero_coloring.lb;
        rounds_sum := !rounds_sum + r;
        gap_sum := !gap_sum + (r - stats.M.Hetero_coloring.lb)
      done;
      let lb = float_of_int !lb_sum /. float_of_int trials in
      let gap = float_of_int !gap_sum /. float_of_int trials in
      let rounds = float_of_int !rounds_sum /. float_of_int trials in
      Printf.printf "%6d %7d | %7.1f %7.1f %7.1f | %9.3f %9.4f\n" n m lb rounds
        gap
        (if lb > 0.0 then gap /. sqrt lb else 0.0)
        (if lb > 0.0 then rounds /. lb else 1.0))
    [
      (8, 30); (12, 80); (16, 160); (24, 400); (32, 800); (48, 2000);
      (64, 4000); (96, 8000);
    ];
  (* small instances: measure against true OPT *)
  Printf.printf "\nvs exact OPT on tiny instances:\n";
  let hit = ref 0 and total = ref 0 and gap1 = ref 0 in
  for seed = 1 to 40 do
    let rng = rng_of (7000 + seed) in
    let g = Mgraph.Graph_gen.gnm rng ~n:5 ~m:(3 + Random.State.int rng 8) in
    let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3 ] in
    match M.Exact.opt_rounds inst with
    | None -> ()
    | Some opt ->
        incr total;
        let sched = M.Hetero_coloring.schedule ~rng inst in
        (* OPT itself as the lower bound: Theorem 5.1's statement *)
        fail_uncertified ~lb:opt ~solver:"hetero" inst sched "e4 tiny";
        let r = M.Schedule.n_rounds sched in
        if r = opt then incr hit else if r = opt + 1 then incr gap1
  done;
  Printf.printf "exact OPT matched: %d / %d (OPT+1: %d)\n" !hit !total !gap1

(* ------------------------------------------------------------------ *)
(* E5: baselines — who wins, by what factor                            *)

let e5_baselines () =
  header "E5 [baselines]  general algorithm vs Saia-1.5 vs greedy";
  Printf.printf "%12s | %9s %9s %9s   (mean rounds / LB over 5 seeds)\n"
    "family" "hetero" "saia" "greedy";
  let families =
    [
      ("gnm sparse", fun rng -> Mgraph.Graph_gen.gnm rng ~n:32 ~m:200);
      ("gnm dense", fun rng -> Mgraph.Graph_gen.gnm rng ~n:32 ~m:2000);
      ("power-law", fun rng -> Mgraph.Graph_gen.power_law rng ~n:32 ~m:600);
      ( "clustered",
        fun rng -> Mgraph.Graph_gen.clustered rng ~k:4 ~size:8 ~intra:150 ~inter:40 );
      ("triangle", fun _ -> Mgraph.Graph_gen.triangle_stack 40);
    ]
  in
  List.iter
    (fun (name, make) ->
      let ratios = Hashtbl.create 3 in
      List.iter
        (fun alg -> Hashtbl.add ratios alg (ref 0.0))
        [ M.Hetero; M.Saia_split; M.Greedy ];
      let trials = 5 in
      for seed = 1 to trials do
        let rng = rng_of (31 * seed) in
        let g = make rng in
        let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3; 5 ] in
        let lb = float_of_int (M.Lower_bounds.lower_bound ~rng inst) in
        List.iter
          (fun alg ->
            let sched = M.plan ~rng:(rng_of (17 * seed)) alg inst in
            fail_invalid inst sched "e5";
            let r = float_of_int (M.Schedule.n_rounds sched) in
            let acc = Hashtbl.find ratios alg in
            acc := !acc +. (r /. Float.max lb 1.0))
          [ M.Hetero; M.Saia_split; M.Greedy ]
      done;
      let mean alg = !(Hashtbl.find ratios alg) /. float_of_int trials in
      Printf.printf "%12s | %8.3fx %8.3fx %8.3fx\n" name (mean M.Hetero)
        (mean M.Saia_split) (mean M.Greedy))
    families

(* ------------------------------------------------------------------ *)
(* E6: Lemma 3.1 — when Γ beats LB1                                    *)

let e6_lb2 () =
  header "E6 [Lemma 3.1]  dense subsets: Γ can exceed LB1";
  Printf.printf "%18s | %5s %5s | %6s (rounds achieved by hetero)\n"
    "instance" "LB1" "Γ" "rounds";
  let cases =
    [
      ( "triangle M=20, c=1",
        M.Instance.uniform (Mgraph.Graph_gen.triangle_stack 20) ~cap:1 );
      ( "triangle M=20, c=2",
        M.Instance.uniform (Mgraph.Graph_gen.triangle_stack 20) ~cap:2 );
      ( "K5 x20, c=1",
        (let g = Multigraph.create ~n:5 () in
         for _ = 1 to 20 do
           for u = 0 to 4 do
             for v = u + 1 to 4 do
               ignore (Multigraph.add_edge g u v)
             done
           done
         done;
         M.Instance.uniform g ~cap:1) );
      ( "clustered, mixed c",
        (let rng = rng_of 5 in
         let g = Mgraph.Graph_gen.clustered rng ~k:3 ~size:4 ~intra:120 ~inter:10 in
         M.Instance.random_caps rng g ~choices:[ 1; 2 ]) );
    ]
  in
  List.iter
    (fun (name, inst) ->
      let rng = rng_of 6 in
      let lb1 = M.Lower_bounds.lb1 inst in
      let gamma = M.Lower_bounds.lb2 ~rng inst in
      let sched = M.Hetero_coloring.schedule ~rng inst in
      fail_invalid inst sched "e6";
      Printf.printf "%18s | %5d %5d | %6d\n" name lb1 gamma
        (M.Schedule.n_rounds sched))
    cases

(* ------------------------------------------------------------------ *)
(* E7: runtime scaling + Bechamel micro-benchmarks                     *)

let time_once f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let e7_runtime () =
  header "E7 [runtime]  planning cost scaling";
  Printf.printf "%8s %8s | %12s %12s %12s  (seconds, single run)\n" "n" "m"
    "even-opt" "hetero" "saia";
  List.iter
    (fun (n, m) ->
      let rng = rng_of (n + m) in
      let g = Mgraph.Graph_gen.gnm rng ~n ~m in
      let even = M.Instance.random_caps (rng_of 1) g ~choices:[ 2; 4 ] in
      let mixed = M.Instance.random_caps (rng_of 2) g ~choices:[ 1; 2; 3; 5 ] in
      let _, t_even = time_once (fun () -> M.Even_optimal.schedule even) in
      let _, t_het =
        time_once (fun () -> M.Hetero_coloring.schedule ~rng:(rng_of 3) mixed)
      in
      let _, t_saia =
        time_once (fun () -> M.Saia.schedule ~rng:(rng_of 4) mixed)
      in
      Printf.printf "%8d %8d | %12.3f %12.3f %12.3f\n" n m t_even t_het t_saia)
    [ (32, 500); (64, 2000); (128, 8000); (256, 32000) ]

let e7_bechamel () =
  header "E7b [Bechamel]  micro-benchmarks (ns per planning run)";
  let open Bechamel in
  let mk_instance seed n m menu =
    let rng = rng_of seed in
    let g = Mgraph.Graph_gen.gnm rng ~n ~m in
    M.Instance.random_caps rng g ~choices:menu
  in
  let even_inst = mk_instance 11 24 300 [ 2; 4 ] in
  let mixed_inst = mk_instance 12 24 300 [ 1; 2; 3 ] in
  let tests =
    [
      Test.make ~name:"even_optimal/n24/m300"
        (Staged.stage (fun () -> M.Even_optimal.schedule even_inst));
      Test.make ~name:"hetero/n24/m300"
        (Staged.stage (fun () ->
             M.Hetero_coloring.schedule ~rng:(rng_of 13) mixed_inst));
      Test.make ~name:"saia/n24/m300"
        (Staged.stage (fun () -> M.Saia.schedule ~rng:(rng_of 14) mixed_inst));
      Test.make ~name:"greedy/n24/m300"
        (Staged.stage (fun () ->
             Coloring.Greedy_coloring.color
               (M.Instance.graph mixed_inst)
               ~cap:(M.Instance.cap mixed_inst)));
      Test.make ~name:"lower_bound/n24/m300"
        (Staged.stage (fun () ->
             M.Lower_bounds.lower_bound ~rng:(rng_of 15) mixed_inst));
    ]
  in
  let grouped = Test.make_grouped ~name:"planners" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ ns ] -> Printf.printf "%-32s %12.0f ns/run\n" name ns
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* E8: end-to-end cluster scenarios                                    *)

let e8_scenarios () =
  header "E8 [scenarios]  end-to-end cluster migrations";
  Printf.printf "%18s %8s | %7s %7s %8s %7s\n" "scenario" "alg" "moves"
    "rounds" "wall" "util";
  let builders =
    [
      ( "rebalance",
        fun rng ->
          Workloads.Scenarios.rebalance rng ~n_disks:24 ~n_items:1200
            ~caps:[ 1; 2; 2; 4 ] () );
      ( "disk-addition",
        fun rng ->
          Workloads.Scenarios.disk_addition rng ~n_old:18 ~n_new:6
            ~n_items:1200 ~old_cap:2 ~new_cap:4 () );
      ( "disk-removal",
        fun rng ->
          Workloads.Scenarios.disk_removal rng ~n_disks:24 ~n_remove:6
            ~n_items:1200 ~caps:[ 2; 3 ] () );
      ( "failure-recovery",
        fun rng ->
          Workloads.Scenarios.failure_recovery rng ~n_disks:24 ~failed:3
            ~n_items:1200 ~caps:[ 2; 2; 4 ] () );
    ]
  in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun alg ->
          (* fresh scenario per run: the simulator mutates placements *)
          let sc = build (rng_of 2024) in
          let _, report =
            Storsim.Simulator.run ~rng:(rng_of 9)
              ~choose:(M.choose_of_algorithm alg) ~policy:M.Engine.no_faults
              sc.Workloads.Scenarios.cluster
              ~target:sc.Workloads.Scenarios.target
          in
          Printf.printf "%18s %8s | %7d %7d %8.1f %7.2f\n" name
            (M.algorithm_to_string alg)
            report.Storsim.Simulator.items_moved report.Storsim.Simulator.rounds
            report.Storsim.Simulator.wall_time
            report.Storsim.Simulator.mean_utilization)
        [ M.Hetero; M.Saia_split; M.Greedy ])
    builders

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E9: forwarding (helpers) vs the direct-transfer assumption          *)

let e9_forwarding () =
  header "E9 [extension]  forwarding through helper disks (Section II refs)";
  Printf.printf
    "triangle bottleneck (Γ = 3M with c=1) plus idle helper disks\n\n";
  Printf.printf "%4s %8s | %7s %10s %8s | %8s\n" "M" "helpers" "direct"
    "forwarded" "relayed" "saving";
  List.iter
    (fun (m, h) ->
      let g = Multigraph.create ~n:(3 + h) () in
      List.iter
        (fun (u, v) ->
          for _ = 1 to m do
            ignore (Multigraph.add_edge g u v)
          done)
        [ (0, 1); (1, 2); (0, 2) ];
      let inst = M.Instance.uniform g ~cap:1 in
      let plan, stats = M.Forwarding.plan_with_helpers ~rng:(rng_of m) inst in
      (match M.Forwarding.validate inst plan with
      | Ok () -> ()
      | Error msg -> failwith ("e9: " ^ msg));
      Printf.printf "%4d %8d | %7d %10d %8d | %7.1f%%\n" m h
        stats.M.Forwarding.direct_rounds stats.M.Forwarding.rounds
        stats.M.Forwarding.relayed
        (100.0
        *. float_of_int
             (stats.M.Forwarding.direct_rounds - stats.M.Forwarding.rounds)
        /. float_of_int stats.M.Forwarding.direct_rounds))
    [ (8, 0); (8, 1); (8, 2); (8, 4); (16, 4); (16, 8); (32, 8); (32, 16) ]

(* ------------------------------------------------------------------ *)
(* E10: multiplicity halving (Section V closing remark)                *)

let e10_halving () =
  header "E10 [ablation]  multiplicity halving (Section V closing remark)";
  Printf.printf "%6s %8s | %10s %10s | %10s %10s\n" "mult" "items"
    "direct (s)" "halved (s)" "direct rds" "halved rds";
  List.iter
    (fun mult ->
      let rng = rng_of mult in
      let base = Mgraph.Graph_gen.gnm rng ~n:12 ~m:30 in
      let g = Multigraph.create ~n:12 () in
      Multigraph.iter_edges base (fun { Multigraph.u; v; _ } ->
          for _ = 1 to mult do
            ignore (Multigraph.add_edge g u v)
          done);
      let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3 ] in
      let direct, t_direct =
        time_once (fun () -> M.Hetero_coloring.schedule ~rng:(rng_of 1) inst)
      in
      let halved, t_halved =
        time_once (fun () -> M.Halving.schedule ~rng:(rng_of 1) inst)
      in
      fail_invalid inst direct "e10 direct";
      fail_invalid inst halved "e10 halved";
      Printf.printf "%6d %8d | %10.3f %10.3f | %10d %10d\n" mult
        (M.Instance.n_items inst) t_direct t_halved
        (M.Schedule.n_rounds direct) (M.Schedule.n_rounds halved))
    [ 4; 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* E11: completion-time objectives (Section II refs)                   *)

let e11_completion () =
  header "E11 [ablation]  round ordering for completion-time objectives";
  Printf.printf "%6s | %12s %12s | %12s %12s\n" "seed" "items(id)"
    "items(sort)" "disks(id)" "disks(reord)";
  List.iter
    (fun seed ->
      let rng = rng_of seed in
      let g = Mgraph.Graph_gen.power_law rng ~n:24 ~m:600 in
      let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 4 ] in
      let sched = M.Hetero_coloring.schedule ~rng inst in
      let items_id = M.Completion_time.item_completion_sum sched in
      let items_sorted =
        M.Completion_time.item_completion_sum
          (M.Completion_time.reorder_for_items sched)
      in
      let disks_id = M.Completion_time.disk_completion_sum inst sched in
      let disks_re =
        M.Completion_time.disk_completion_sum inst
          (M.Completion_time.reorder_for_disks inst sched)
      in
      Printf.printf "%6d | %12.0f %12.0f | %12.0f %12.0f\n" seed items_id
        items_sorted disks_id disks_re)
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E12: space constraints and bypass disks (Hall et al., Section II)   *)

let e12_space () =
  header "E12 [extension]  space constraints and bypass disks";
  Printf.printf
    "rotation workloads on full disks: spare units vs rounds needed\n\n";
  Printf.printf "%6s %8s | %8s %8s %8s\n" "disks" "spare" "rounds" "relays"
    "feasible";
  List.iter
    (fun (n, spare) ->
      (* a rotation: disk d sends one item to disk d+1 *)
      let g = Multigraph.create ~n:(n + 1) () in
      for d = 0 to n - 1 do
        ignore (Multigraph.add_edge g d ((d + 1) mod n))
      done;
      let inst = M.Instance.uniform g ~cap:2 in
      let cfg =
        {
          M.Space.space =
            Array.init (n + 1) (fun d -> if d = n then 1 else 1 + spare);
          initial_load = Array.init (n + 1) (fun d -> if d = n then 0 else 1);
          bypass = [ n ];
        }
      in
      match M.Space.plan inst cfg with
      | plan ->
          (match M.Space.check_plan inst cfg plan with
          | Ok () -> ()
          | Error msg -> failwith ("e12: " ^ msg));
          let relays =
            Array.to_list (M.Forwarding.rounds plan)
            |> List.concat
            |> List.filter (fun h -> h.M.Forwarding.dst = n)
            |> List.length
          in
          Printf.printf "%6d %8d | %8d %8d %8s\n" n spare
            (M.Forwarding.n_rounds plan) relays "yes"
      | exception M.Space.Stuck _ ->
          Printf.printf "%6d %8d | %8s %8s %8s\n" n spare "-" "-" "stuck")
    [ (6, 0); (6, 1); (12, 0); (12, 1); (24, 0); (24, 2) ]

(* ------------------------------------------------------------------ *)
(* E13: cloning (Khuller-Kim-Wan model, Section II)                    *)

let e13_cloning () =
  header "E13 [extension]  migration with cloning (broadcast trees)";
  Printf.printf "%8s %8s %6s | %8s %8s\n" "disks" "items" "caps" "LB" "rounds";
  List.iter
    (fun (n, items, cap) ->
      let rng = rng_of (n + items + cap) in
      let caps = Array.make n cap in
      let demands =
        Array.init items (fun _ ->
            let src = Random.State.int rng n in
            let dests =
              List.init n Fun.id
              |> List.filter (fun v -> v <> src && Random.State.int rng 3 = 0)
            in
            { M.Cloning.sources = [ src ]; destinations = dests })
      in
      let t = M.Cloning.create ~n_disks:n ~caps demands in
      let plan = M.Cloning.plan ~rng t in
      (match M.Cloning.validate t plan with
      | Ok () -> ()
      | Error msg -> failwith ("e13: " ^ msg));
      Printf.printf "%8d %8d %6d | %8d %8d\n" n items cap
        (M.Cloning.lower_bound t) (Array.length plan))
    [ (16, 20, 1); (16, 20, 2); (32, 60, 1); (32, 60, 4); (64, 120, 2) ]

(* ------------------------------------------------------------------ *)
(* E14: design-choice ablations                                        *)

let e14_ablations () =
  header "E14 [ablation]  design choices in the general algorithm";
  (* (a) edge ordering for the greedy baseline *)
  Printf.printf "(a) greedy edge order (rounds, mean of 5 seeds):\n";
  Printf.printf "%16s %10s %10s %10s\n" "family" "id-order" "hardest" "lb";
  List.iter
    (fun (name, make) ->
      let sum_id = ref 0 and sum_hard = ref 0 and sum_lb = ref 0 in
      for seed = 1 to 5 do
        let rng = rng_of seed in
        let g : Multigraph.t = make rng in
        let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3 ] in
        let greedy order =
          let ec =
            Coloring.Greedy_coloring.color ?order (M.Instance.graph inst)
              ~cap:(M.Instance.cap inst)
          in
          M.Schedule.n_rounds (M.Schedule.of_coloring ec)
        in
        let hardest =
          let weight e =
            let u, v = Multigraph.endpoints g e in
            M.Instance.degree_ratio inst u + M.Instance.degree_ratio inst v
          in
          List.init (Multigraph.n_edges g) Fun.id
          |> List.map (fun e -> (weight e, e))
          |> List.sort (fun (a, _) (b, _) -> compare b a)
          |> List.map snd
        in
        sum_id := !sum_id + greedy None;
        sum_hard := !sum_hard + greedy (Some hardest);
        sum_lb := !sum_lb + M.Lower_bounds.lower_bound ~rng inst
      done;
      Printf.printf "%16s %10.1f %10.1f %10.1f\n" name
        (float_of_int !sum_id /. 5.0)
        (float_of_int !sum_hard /. 5.0)
        (float_of_int !sum_lb /. 5.0))
    [
      ("power-law", fun rng -> Mgraph.Graph_gen.power_law rng ~n:24 ~m:500);
      ("gnm", fun rng -> Mgraph.Graph_gen.gnm rng ~n:24 ~m:500);
      ("triangle", fun _ -> Mgraph.Graph_gen.triangle_stack 30);
    ];
  (* (b') refine post-pass: rounds reclaimed from the greedy baseline *)
  Printf.printf "\n(b') refine post-pass on greedy schedules (5 seeds):\n";
  Printf.printf "%16s %10s %10s %10s\n" "family" "greedy" "refined" "lb";
  List.iter
    (fun (name, make) ->
      let g_sum = ref 0 and r_sum = ref 0 and lb_sum = ref 0 in
      for seed = 1 to 5 do
        let rng = rng_of (seed * 7) in
        let g : Multigraph.t = make rng in
        let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3 ] in
        let ec =
          Coloring.Greedy_coloring.color (M.Instance.graph inst)
            ~cap:(M.Instance.cap inst)
        in
        let sched = M.Schedule.of_coloring ec in
        let refined, _ = M.Refine.refine inst sched in
        g_sum := !g_sum + M.Schedule.n_rounds sched;
        r_sum := !r_sum + M.Schedule.n_rounds refined;
        lb_sum := !lb_sum + M.Lower_bounds.lower_bound ~rng inst
      done;
      Printf.printf "%16s %10.1f %10.1f %10.1f\n" name
        (float_of_int !g_sum /. 5.0)
        (float_of_int !r_sum /. 5.0)
        (float_of_int !lb_sum /. 5.0))
    [
      ("power-law", fun rng -> Mgraph.Graph_gen.power_law rng ~n:24 ~m:500);
      ("gnm", fun rng -> Mgraph.Graph_gen.gnm rng ~n:24 ~m:500);
    ];
  (* (b) lower-bound components: which term wins where *)
  Printf.printf "\n(b) lower-bound terms (LB1 vs Γ):\n";
  Printf.printf "%16s %8s %8s %8s\n" "family" "LB1" "Γ" "winner";
  List.iter
    (fun (name, inst) ->
      let lb1 = M.Lower_bounds.lb1 inst in
      let gamma = M.Lower_bounds.lb2 ~rng:(rng_of 3) inst in
      Printf.printf "%16s %8d %8d %8s\n" name lb1 gamma
        (if gamma > lb1 then "Γ" else if lb1 > gamma then "LB1" else "tie"))
    [
      ( "sparse gnm",
        M.Instance.random_caps (rng_of 1)
          (Mgraph.Graph_gen.gnm (rng_of 1) ~n:32 ~m:100)
          ~choices:[ 1; 2; 3 ] );
      ( "dense clique",
        M.Instance.uniform (Mgraph.Graph_gen.triangle_stack 30) ~cap:1 );
      ( "star",
        M.Instance.random_caps (rng_of 2)
          (Mgraph.Graph_gen.star ~leaves:40)
          ~choices:[ 1; 2; 3 ] );
    ]

(* ------------------------------------------------------------------ *)
(* E15: what the round abstraction costs                               *)

let e15_async () =
  header "E15 [extension]  round barriers vs work-conserving execution";
  Printf.printf
    "same transfers, three executions: barrier rounds (paper model),\n\
     async with schedule priorities, async FIFO (no planning)\n\n";
  Printf.printf "%6s %6s | %10s %10s %10s | %12s\n" "disks" "items" "barrier"
    "async+plan" "async-fifo" "barrier cost";
  List.iter
    (fun (n, m_items) ->
      let rng = rng_of (n + m_items) in
      let caps = Array.init n (fun i -> 1 + (i mod 4)) in
      let disks =
        Array.mapi (fun id cap -> Storsim.Disk.make ~id ~cap ()) caps
      in
      let g = Multigraph.create ~n () in
      let sources = Array.make m_items 0 and targets = Array.make m_items 0 in
      for e = 0 to m_items - 1 do
        let u = Random.State.int rng n in
        let rec pick () =
          let v = Random.State.int rng n in
          if v = u then pick () else v
        in
        let v = pick () in
        ignore (Multigraph.add_edge g u v);
        sources.(e) <- u;
        targets.(e) <- v
      done;
      let inst = M.Instance.create g ~caps in
      let job =
        {
          Storsim.Cluster.instance = inst;
          items = Array.init m_items Fun.id;
          sources;
          targets;
        }
      in
      let sched = M.plan ~rng M.Hetero inst in
      let barrier = Storsim.Bandwidth.schedule_duration ~disks job sched in
      let planned =
        Storsim.Async_exec.run ~disks job (Storsim.Async_exec.By_schedule sched)
      in
      let fifo = Storsim.Async_exec.run ~disks job Storsim.Async_exec.Fifo in
      Printf.printf "%6d %6d | %10.1f %10.1f %10.1f | %10.1f%%\n" n m_items
        barrier planned.Storsim.Async_exec.makespan
        fifo.Storsim.Async_exec.makespan
        (100.0
        *. (barrier -. planned.Storsim.Async_exec.makespan)
        /. barrier))
    [ (8, 60); (16, 200); (32, 800); (64, 2000) ]

(* ------------------------------------------------------------------ *)
(* E16: online migration under a request stream                        *)

let e16_online () =
  header "E16 [extension]  online migration (requests arriving mid-flight)";
  Printf.printf "Service.run: 25-move retargets, epochs of at most 16 rounds\n\n";
  Printf.printf "%10s %9s | %6s %7s %8s %5s %5s %10s\n" "requests" "arrival"
    "epochs" "rounds" "moves" "p50" "p99" "certified";
  List.iter
    (fun (n_req, gap) ->
      let rng = rng_of (n_req + gap) in
      let n_disks = 16 and n_items = 400 in
      let cluster =
        {
          Service.caps = Array.init n_disks (fun i -> 1 + (i mod 3));
          placement = Array.init n_items (fun _ -> Random.State.int rng n_disks);
          demands = Array.make n_items 1.0;
        }
      in
      let requests =
        List.init n_req (fun k ->
            {
              Service.at = k * gap;
              tenant = 0;
              trigger =
                Service.Retarget
                  (List.init 25 (fun _ ->
                       ( Random.State.int rng n_items,
                         Random.State.int rng n_disks )));
            })
      in
      let r = Service.run ~rng_seed:(n_req + gap) cluster ~requests () in
      Printf.printf "%10d %9d | %6d %7d %8d %5d %5d %10s\n" n_req gap
        r.Service.epochs r.Service.total_rounds r.Service.transfers
        r.Service.p50 r.Service.p99
        (if M.Certify.service_ok (M.Certify.certify_service r.Service.execution)
         then "yes"
         else "NO"))
    [ (1, 0); (4, 2); (4, 8); (12, 2); (12, 6) ]

(* ------------------------------------------------------------------ *)
(* E17: non-uniform item sizes                                         *)

let e17_sizes () =
  header "E17 [extension]  non-uniform item sizes";
  Printf.printf
    "the paper's unit-size model vs Pareto-sized items; the size-aware\n\
     round rebalancer swaps parallel items between rounds\n\n";
  Printf.printf "%6s %7s | %10s %10s %8s | %10s\n" "disks" "items" "naive"
    "balanced" "swaps" "async";
  List.iter
    (fun (n, m_items, alpha) ->
      let rng = rng_of (n + m_items) in
      let caps = Array.init n (fun i -> 1 + (i mod 4)) in
      let disks =
        Array.mapi (fun id cap -> Storsim.Disk.make ~id ~cap ()) caps
      in
      let g = Multigraph.create ~n () in
      let sources = Array.make m_items 0 and targets = Array.make m_items 0 in
      for e = 0 to m_items - 1 do
        let u = Random.State.int rng n in
        let rec pick () =
          let v = Random.State.int rng n in
          if v = u then pick () else v
        in
        let v = pick () in
        ignore (Multigraph.add_edge g u v);
        sources.(e) <- u;
        targets.(e) <- v
      done;
      let inst = M.Instance.create g ~caps in
      let job =
        {
          Storsim.Cluster.instance = inst;
          items = Array.init m_items Fun.id;
          sources;
          targets;
        }
      in
      let sizes = Workloads.Demand.sizes rng ~n:m_items ~alpha in
      let sched = M.plan ~rng M.Hetero inst in
      let naive = Storsim.Bandwidth.schedule_duration ~disks ~sizes job sched in
      let _, st = Storsim.Size_balance.optimize ~disks ~sizes job sched in
      let async_report =
        Storsim.Async_exec.run ~disks ~sizes job
          (Storsim.Async_exec.By_schedule sched)
      in
      Printf.printf "%6d %7d | %10.1f %10.1f %8d | %10.1f\n" n m_items naive
        st.Storsim.Size_balance.duration_after st.Storsim.Size_balance.swaps
        async_report.Storsim.Async_exec.makespan)
    [ (8, 100, 1.5); (16, 400, 1.5); (16, 400, 1.1); (32, 1200, 1.3) ]

(* ------------------------------------------------------------------ *)
(* E18: migration-aware layouts                                        *)

let e18_layout () =
  header "E18 [extension]  migration-aware rebalancing (move less, stay close)";
  Printf.printf
    "after a demand shift: from-scratch layout vs incremental layout\n\n";
  Printf.printf "%10s | %8s %10s | %8s %10s\n" "tolerance" "moves"
    "imbalance" "moves" "imbalance";
  Printf.printf "%10s | %19s | %19s\n" "" "from scratch" "incremental";
  let rng = rng_of 2025 in
  let n_items = 2000 and weights = Array.init 16 (fun i -> float_of_int (1 + (i mod 3))) in
  let demands = Workloads.Demand.demands rng ~n:n_items ~s:0.5 in
  let before = Workloads.Layout.balance ~demands ~weights in
  let demands' = Workloads.Demand.shift rng ~fraction:0.4 demands in
  let full = Workloads.Layout.balance ~demands:demands' ~weights in
  let full_moves =
    List.length (Storsim.Placement.diff before full)
  in
  let full_imb = Workloads.Layout.imbalance ~demands:demands' ~weights full in
  List.iter
    (fun tolerance ->
      let incr =
        Workloads.Layout.rebalance_incremental ~demands:demands' ~weights
          ~current:before ~tolerance
      in
      Printf.printf "%10.2f | %8d %10.3f | %8d %10.3f\n" tolerance full_moves
        full_imb
        (List.length (Storsim.Placement.diff before incr))
        (Workloads.Layout.imbalance ~demands:demands' ~weights incr))
    [ 0.02; 0.05; 0.10; 0.25 ]

(* ------------------------------------------------------------------ *)
(* E19: flaky transport — retries and replans                          *)

let e19_flaky () =
  header "E19 [extension]  flaky transport: engine retries vs failure rate";
  Printf.printf "%8s | %8s %8s %8s %8s %12s   (mean of 5 seeds)\n" "p(fail)"
    "replans" "retries" "rounds" "wall" "quarantined";
  List.iter
    (fun rate ->
      let replans = ref [] and retries = ref [] and rounds = ref [] in
      let wall = ref [] and quarantined = ref [] in
      for seed = 1 to 5 do
        let rng = rng_of ((seed * 100) + int_of_float (rate *. 100.0)) in
        let sc =
          Workloads.Scenarios.rebalance rng ~n_disks:12 ~n_items:400
            ~caps:[ 2; 3 ] ()
        in
        let o, report =
          Storsim.Simulator.run ~rng
            ~policy:(Storsim.Fault.engine_policy ~fault_rate:rate ~seed ())
            sc.Workloads.Scenarios.cluster
            ~target:sc.Workloads.Scenarios.target
        in
        replans := float_of_int o.M.Engine.replans :: !replans;
        retries := float_of_int o.M.Engine.retries :: !retries;
        rounds := float_of_int o.M.Engine.total_rounds :: !rounds;
        wall := report.Storsim.Simulator.wall_time :: !wall;
        quarantined :=
          float_of_int (List.length o.M.Engine.quarantined) :: !quarantined
      done;
      Printf.printf "%8.2f | %8.1f %8.1f %8.1f %8.1f %12.1f\n" rate
        (Mgraph.Stats.mean !replans) (Mgraph.Stats.mean !retries)
        (Mgraph.Stats.mean !rounds) (Mgraph.Stats.mean !wall)
        (Mgraph.Stats.mean !quarantined))
    [ 0.0; 0.05; 0.15; 0.30; 0.50 ]

(* ------------------------------------------------------------------ *)
(* E20: the dedicated-network assumption, stress-tested               *)

let e20_network () =
  header "E20 [extension]  oversubscribed fabric: where Fig. 2's speedup dies";
  Printf.printf
    "triangle M=16: c=2 beats c=1 by 1.5x under full bisection (the\n\
     paper's assumption); a saturating core erodes the advantage\n\n";
  Printf.printf "%12s | %10s %10s | %8s\n" "core streams" "c=1 time"
    "c=2 time" "speedup";
  let m = 16 in
  let g = Mgraph.Graph_gen.triangle_stack m in
  let run cap network =
    let inst = M.Instance.uniform g ~cap in
    let sched = M.plan ~rng:(rng_of 1) M.Auto inst in
    let disks = Array.init 3 (fun id -> Storsim.Disk.make ~id ~cap ()) in
    let job =
      {
        Storsim.Cluster.instance = inst;
        items = Array.init (3 * m) Fun.id;
        sources = Array.init (3 * m) (fun e -> fst (Multigraph.endpoints g e));
        targets = Array.init (3 * m) (fun e -> snd (Multigraph.endpoints g e));
      }
    in
    Storsim.Bandwidth.schedule_duration ~disks ?network job sched
  in
  List.iter
    (fun core ->
      let network =
        match core with
        | None -> None
        | Some c -> Some (Storsim.Network.oversubscribed ~core_streams:c)
      in
      let t1 = run 1 network and t2 = run 2 network in
      Printf.printf "%12s | %10.0f %10.0f | %7.2fx\n"
        (match core with None -> "unlimited" | Some c -> Printf.sprintf "%.1f" c)
        t1 t2 (t1 /. t2))
    [ None; Some 3.0; Some 2.0; Some 1.5; Some 1.0 ]

(* ------------------------------------------------------------------ *)
(* E21: restriping a multimedia array                                  *)

let e21_restripe () =
  header "E21 [extension]  restriping after expansion (staggered striping)";
  Printf.printf
    "8 -> 12 disks, 50 objects x 8 blocks: full restripe vs minimal move\n\n";
  Printf.printf "%10s | %8s %8s %8s %10s\n" "mode" "moves" "lb" "rounds"
    "wall";
  List.iter
    (fun (label, mode) ->
      let sc =
        Workloads.Scenarios.restripe (rng_of 11) ~n_old:8 ~n_new:4
          ~n_objects:50 ~blocks_per_object:8 ~mode ()
      in
      let job =
        Storsim.Cluster.plan_reconfiguration sc.Workloads.Scenarios.cluster
          ~target:sc.Workloads.Scenarios.target
      in
      let inst = job.Storsim.Cluster.instance in
      let lb = M.Lower_bounds.lower_bound ~rng:(rng_of 12) inst in
      let _, report =
        Storsim.Simulator.run ~rng:(rng_of 13) ~policy:M.Engine.no_faults
          sc.Workloads.Scenarios.cluster
          ~target:sc.Workloads.Scenarios.target
      in
      Printf.printf "%10s | %8d %8d %8d %10.1f\n" label
        report.Storsim.Simulator.items_moved lb report.Storsim.Simulator.rounds
        report.Storsim.Simulator.wall_time)
    [ ("full", `Full); ("minimal", `Minimal) ]

(* ------------------------------------------------------------------ *)
(* E22: orbit-driven Phase 1 vs the Kempe engine                       *)

let e22_orbit_engine () =
  header "E22 [fidelity]  orbit-driven Phase 1 (Section V-C1) vs Kempe engine";
  Printf.printf
    "same instances, two realizations of the paper's Phase 1: the\n\
     structurally faithful orbit/witness loop vs the production Kempe\n\
     engine (mean over 5 seeds)\n\n";
  Printf.printf "%6s %6s | %7s | %8s %8s | %10s %10s\n" "n" "m" "LB"
    "orbit" "kempe" "witnesses" "growths";
  List.iter
    (fun (n, m) ->
      let lb = ref 0.0 and po = ref 0.0 and pk = ref 0.0 in
      let wit = ref 0.0 and gro = ref 0.0 in
      for seed = 1 to 5 do
        let rng = rng_of ((n * 37) + seed) in
        let g = Mgraph.Graph_gen.gnm rng ~n ~m in
        let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3 ] in
        let _, os = M.Orbits.color_via_orbits ~rng inst in
        let _, hs = M.Hetero_coloring.schedule_stats ~rng inst in
        lb := !lb +. float_of_int hs.M.Hetero_coloring.lb;
        po := !po +. float_of_int os.M.Orbits.palette;
        pk := !pk +. float_of_int hs.M.Hetero_coloring.palette;
        wit :=
          !wit
          +. float_of_int
               (os.M.Orbits.witnesses_delta + os.M.Orbits.witnesses_gamma);
        gro := !gro +. float_of_int os.M.Orbits.orbit_growths
      done;
      Printf.printf "%6d %6d | %7.1f | %8.1f %8.1f | %10.1f %10.1f\n" n m
        (!lb /. 5.0) (!po /. 5.0) (!pk /. 5.0) (!wit /. 5.0) (!gro /. 5.0))
    [ (8, 40); (12, 100); (16, 200); (24, 400) ];
  (* adversarial: the clique stack where the certified bound is not
     quite reachable and witnesses must fire *)
  Printf.printf "\nadversarial K5 x 12 (c = 1):\n";
  let g = Multigraph.create ~n:5 () in
  for _ = 1 to 12 do
    for u = 0 to 4 do
      for v = u + 1 to 4 do
        ignore (Multigraph.add_edge g u v)
      done
    done
  done;
  let inst = M.Instance.uniform g ~cap:1 in
  let rng = rng_of 99 in
  let _, os = M.Orbits.color_via_orbits ~rng inst in
  let _, hs = M.Hetero_coloring.schedule_stats ~rng inst in
  Printf.printf
    "LB %d | orbit engine %d (Δ-wit %d, Γ-wit %d, growths %d, max orbit %d) | kempe %d\n"
    hs.M.Hetero_coloring.lb os.M.Orbits.palette os.M.Orbits.witnesses_delta
    os.M.Orbits.witnesses_gamma os.M.Orbits.orbit_growths
    os.M.Orbits.largest_orbit hs.M.Hetero_coloring.palette

(* ------------------------------------------------------------------ *)
(* E24: maintenance windows — recovered demand vs round budget         *)

let e24_deadline () =
  header "E24 [extension]  deadline windows: demand recovered per round";
  Printf.printf
    "rebalance needing R rounds, executed in a window of K rounds:\n\
     fraction of shifted demand recovered (weights = item demand)\n\n";
  let rng = rng_of 55 in
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
  let full = M.Hetero_coloring.schedule ~rng inst in
  let total_rounds = M.Schedule.n_rounds full in
  Printf.printf "full migration: %d moves, %d rounds\n\n"
    (M.Instance.n_items inst) total_rounds;
  Printf.printf "%8s | %8s %10s %12s\n" "budget" "moved" "weight" "recovered";
  List.iter
    (fun k ->
      let budget = max 1 (k * total_rounds / 4) in
      let r = M.Deadline.plan_window ~rng:(rng_of 56) ~weights inst ~budget in
      Printf.printf "%8d | %8d %10.4f %11.1f%%\n" budget
        (List.length r.M.Deadline.moved) r.M.Deadline.moved_weight
        (100.0 *. r.M.Deadline.moved_weight /. r.M.Deadline.total_weight))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E25: structured instrumentation — where planning time goes          *)

let e25_metrics () =
  header "E25 [metrics]  per-phase timings and counters (Migration.Instr)";
  Printf.printf
    "pipeline auto on a mixed instance; spans aggregate every\n\
     component's solver run\n\n";
  let g = Mgraph.Graph_gen.gnm (rng_of 57) ~n:96 ~m:6000 in
  let inst = M.Instance.random_caps (rng_of 58) g ~choices:[ 1; 2; 3; 4 ] in
  M.Instr.reset ();
  let sched, report =
    M.Pipeline.solve ~rng:(rng_of 59) ~choose:M.Pipeline.auto_choose inst
  in
  fail_invalid inst sched "pipeline auto";
  Printf.printf "%d disks, %d items -> %d rounds over %d component(s)\n\n"
    (M.Instance.n_disks inst) (M.Instance.n_items inst)
    (M.Schedule.n_rounds sched) report.M.Pipeline.components;
  Format.printf "%a@." M.Instr.pp_table (M.Instr.snapshot ())

(* ------------------------------------------------------------------ *)
(* E26: parallel scaling of the component pipeline                    *)

let wall_clock f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* [components] disjoint G(n,m) blocks in one instance: the pipeline
   decomposes them back and solves each on its own worker domain. *)
let parallel_instance ~components ~n ~m =
  let g = Multigraph.create ~n:(components * n) () in
  for c = 0 to components - 1 do
    let gc = Mgraph.Graph_gen.gnm (rng_of (900 + c)) ~n ~m in
    Multigraph.iter_edges gc (fun { Multigraph.u; v; _ } ->
        ignore (Multigraph.add_edge g ((c * n) + u) ((c * n) + v)))
  done;
  M.Instance.random_caps (rng_of 899) g ~choices:[ 1; 2; 3; 5 ]

(* the least speedup jobs 4 must show over jobs 1 where 4 domains
   exist: parallelism that stops paying for itself is a regression
   even when single-job wall time holds *)
let speedup_floor = 1.6

let e26_parallel () =
  header "E26 [parallel]  domain-parallel pipeline scaling";
  let components = 8 and n = 64 and m = 4000 in
  let inst = parallel_instance ~components ~n ~m in
  let solve jobs =
    M.Pipeline.solve ~rng:(rng_of 901) ~jobs ~choose:M.Pipeline.auto_choose
      inst
  in
  (* warm up allocators and code paths before timing *)
  ignore (solve 1);
  let runs =
    List.map
      (fun jobs ->
        let (sched, _), t = wall_clock (fun () -> solve jobs) in
        (jobs, sched, t))
      [ 1; 2; 4 ]
  in
  let base_sched, base_t =
    match runs with
    | (1, s, t) :: _ -> (s, t)
    | _ -> assert false
  in
  List.iter
    (fun (jobs, sched, _) ->
      fail_invalid inst sched "e26 parallel";
      if M.Schedule.to_string sched <> M.Schedule.to_string base_sched then
        failwith
          (Printf.sprintf "e26: schedule at --jobs %d differs from --jobs 1"
             jobs))
    runs;
  let rounds = M.Schedule.n_rounds base_sched in
  let lb = M.Lower_bounds.lower_bound ~rng:(rng_of 902) inst in
  let domains = Exec.default_jobs () in
  Printf.printf
    "%d components x (n=%d, m=%d); %d rounds, lower bound %d\n\
     schedules bit-identical across jobs; recommended domains here: %d\n\n"
    components n m rounds lb domains;
  Printf.printf "%6s %10s %9s\n" "jobs" "wall (s)" "speedup";
  List.iter
    (fun (jobs, _, t) ->
      Printf.printf "%6d %10.3f %8.2fx\n" jobs t (base_t /. t))
    runs;
  let speedup4 =
    match List.rev runs with
    | (4, _, t) :: _ -> base_t /. t
    | _ -> assert false
  in
  (* a machine with fewer domains than jobs cannot show the speedup,
     so there the floor is reported, not asserted *)
  if domains < 4 then
    Printf.printf "\nfloor %.1fx at 4 jobs not asserted: %d domain%s here\n"
      speedup_floor domains
      (if domains = 1 then "" else "s")
  else if speedup4 < speedup_floor then
    failwith
      (Printf.sprintf "e26: speedup %.2fx at 4 jobs is below the %.1fx floor"
         speedup4 speedup_floor)
  else
    Printf.printf "\nspeedup at 4 jobs %.2fx >= floor %.1fx\n" speedup4
      speedup_floor

(* ------------------------------------------------------------------ *)
(* E27: flat-core scale — wall and allocation per solver on the       *)
(* "huge" family                                                       *)

(* bytes allocated per edge on the huge instance, with 3-6x headroom
   over the measured values (greedy ~200, hetero ~620, even-opt ~4950)
   so GC/runtime drift across OCaml versions cannot trip it but a
   rewritten kernel that allocates per edge per round will *)
let alloc_budgets =
  [ ("greedy", 1024.0); ("hetero", 4096.0); ("even-opt", 15000.0) ]

let e27_huge () =
  header "E27 [huge]  flat-core scale: wall time and allocation per solver";
  let fam =
    match Gen.family_of_string "huge" with
    | Some f -> f
    | None -> failwith "e27: gen family \"huge\" missing"
  in
  let inst = Gen.instance fam ~seed:1 ~size:112 in
  let m = M.Instance.n_items inst in
  Printf.printf "huge seed 1 size 112: %d disks, %d items, all-even caps\n\n"
    (M.Instance.n_disks inst) m;
  Printf.printf "%10s %10s %7s %12s %8s\n" "solver" "wall (s)" "rounds"
    "bytes/item" "budget";
  let measure name solve =
    (* Gc.allocated_bytes counts every word this domain ever allocated,
       so the delta is total allocation — what the arenas amortize away
       shows up as a smaller delta, which is what the budget pins *)
    let a0 = Gc.allocated_bytes () in
    let sched, t = wall_clock solve in
    let bpe = (Gc.allocated_bytes () -. a0) /. float_of_int m in
    fail_invalid inst sched ("e27 " ^ name);
    let budget = List.assoc name alloc_budgets in
    Printf.printf "%10s %10.3f %7d %12.1f %8.0f\n" name t
      (M.Schedule.n_rounds sched) bpe budget;
    if bpe > budget then
      failwith
        (Printf.sprintf "e27: %s allocated %.1f bytes per edge, over its %.0f"
           name bpe budget)
  in
  measure "greedy" (fun () -> M.plan ~rng:(rng_of 911) M.Greedy inst);
  measure "hetero" (fun () -> M.plan ~rng:(rng_of 912) M.Hetero inst);
  measure "even-opt" (fun () -> M.Even_optimal.schedule inst)

(* ------------------------------------------------------------------ *)
(* E28: incremental re-planning vs the oracle                         *)

let e28_engine () =
  header "E28 [engine]  incremental re-planning vs re-solve-from-scratch";
  Printf.printf
    "closed-loop execution under seeded transient faults: warm-started\n\
     incremental replanning (only fault-dirtied components re-solve) vs\n\
     an oracle that re-solves the whole residual at every replan\n\n";
  let components = 6 and n = 32 and m = 1200 in
  let inst = parallel_instance ~components ~n ~m in
  Printf.printf "%d components x (n=%d, m=%d) = %d items\n\n" components n m
    (M.Instance.n_items inst);
  Printf.printf "%8s | %9s %8s %7s | %10s %8s %7s | %8s\n" "p(fail)"
    "incr (s)" "replans" "rounds" "scratch(s)" "replans" "rounds" "speedup";
  List.iter
    (fun rate ->
        let run incremental =
          (* same seeds both ways: identical fault draws, so the only
             difference is how much re-planning each replan does.  Two
             mid-flight slowdowns land in two of the six components —
             the warm start re-solves those components only, the
             oracle re-solves all six every time. *)
          let policy =
            Storsim.Fault.engine_policy ~fault_rate:rate
              ~slowdowns:[ (5, 3); (25, n + 3) ]
              ~seed:7 ()
          in
          let o, t =
            wall_clock (fun () ->
                M.Engine.run ~rng:(rng_of 903) ~incremental ~policy inst)
          in
          let v = M.Certify.certify_execution o.M.Engine.execution in
          if not (M.Certify.exec_ok v) then
            failwith "e28 engine: execution failed certification";
          (o, t)
        in
        let oi, ti = run true in
        let os, ts = run false in
        Printf.printf
          "%8.2f | %9.3f %8d %7d | %10.3f %8d %7d | %7.2fx\n" rate ti
          oi.M.Engine.replans oi.M.Engine.total_rounds ts
          os.M.Engine.replans os.M.Engine.total_rounds
          (if ti > 0.0 then ts /. ti else 1.0))
    [ 0.0; 0.01; 0.05 ]

(* ------------------------------------------------------------------ *)
(* E29: weighted group completion vs the round-optimal baseline       *)

let e29_sla () =
  header "E29 [sla]  weighted group completion vs the round-optimal baseline";
  let fam =
    match Gen.family_of_string "tenants" with
    | Some f -> f
    | None -> failwith "e29: tenants family not registered"
  in
  let inst = Gen.instance fam ~seed:941 ~size:64 in
  let k = M.Instance.n_groups inst in
  let m = M.Instance.n_items inst in
  Printf.printf "tenants family, seed 941: %d items, %d groups, weights %s\n\n"
    m k
    (String.concat ","
       (Array.to_list (Array.map string_of_int (M.Instance.weights inst))));
  (* the round-optimal baseline: the auto pipeline, blind to groups *)
  let plan jobs =
    fst
      (M.Pipeline.solve ~rng:(rng_of 942) ~jobs ~choose:M.Pipeline.auto_choose
         inst)
  in
  ignore (plan 1);
  (* warm up before timing *)
  let certify name ~solver ~reordered sched =
    fail_invalid inst sched ("e29 " ^ name);
    let v =
      M.Certify.check_sla inst sched (M.Objective.claim ~solver ~reordered inst sched)
    in
    if not (M.Certify.sla_ok v) then
      failwith (Printf.sprintf "e29: %s failed SLA certification" name)
  in
  let stats sched =
    let _, p99 = M.Objective.completion_percentiles inst sched in
    (M.Schedule.n_rounds sched, M.Objective.weighted_sum inst sched, p99)
  in
  let base, base_t = wall_clock (fun () -> plan 1) in
  certify "baseline" ~solver:"auto" ~reordered:false base;
  (* the post-pass must be a pure round permutation at every --jobs:
     byte-compare the reordered schedule across worker counts *)
  let reordered, reorder_t =
    wall_clock (fun () -> M.Objective.reorder inst (plan 1))
  in
  certify "reordered" ~solver:"auto" ~reordered:true reordered;
  List.iter
    (fun jobs ->
      if
        M.Schedule.to_string (M.Objective.reorder inst (plan jobs))
        <> M.Schedule.to_string reordered
      then failwith "e29: reordered schedule differs across --jobs")
    [ 1; 2; 4 ];
  let greedy_sched, greedy_t =
    wall_clock (fun () ->
        M.Objective.reorder inst
          (M.Solver.solve ~rng:(rng_of 943) M.Objective.sla_greedy inst))
  in
  certify "sla-greedy" ~solver:"sla-greedy" ~reordered:true greedy_sched;
  let br, bw, bp = stats base in
  if M.Schedule.n_rounds reordered <> br then
    failwith "e29: reorder changed the makespan";
  let variants =
    [
      ("baseline", base, base_t);
      ("reordered", reordered, base_t +. reorder_t);
      ("sla-greedy", greedy_sched, greedy_t);
    ]
  in
  Printf.printf "%12s %8s %14s %6s %10s\n" "variant" "rounds" "weighted sum"
    "p99" "wall (s)";
  List.iter
    (fun (name, sched, t) ->
      let rounds, wsum, p99 = stats sched in
      Printf.printf "%12s %8d %14d %6d %10.3f\n" name rounds wsum p99 t)
    variants;
  let gr, gw, gp = stats greedy_sched in
  Printf.printf
    "\nprice of fairness: %+d rounds for %+d weighted sum, p99 %d -> %d\n\
     reordered schedule bit-identical across jobs; all variants certified\n\n"
    (gr - br) (gw - bw) bp gp

let experiments =
  [
    ("fig1", e1_fig1);
    ("fig2", e2_fig2);
    ("thm41", e3_thm41);
    ("thm51", e4_thm51);
    ("baselines", e5_baselines);
    ("lb2", e6_lb2);
    ("runtime", e7_runtime);
    ("bechamel", e7_bechamel);
    ("scenarios", e8_scenarios);
    ("forwarding", e9_forwarding);
    ("halving", e10_halving);
    ("completion", e11_completion);
    ("space", e12_space);
    ("cloning", e13_cloning);
    ("ablations", e14_ablations);
    ("async", e15_async);
    ("online", e16_online);
    ("sizes", e17_sizes);
    ("layout", e18_layout);
    ("flaky", e19_flaky);
    ("network", e20_network);
    ("restripe", e21_restripe);
    ("orbits", e22_orbit_engine);
    ("deadline", e24_deadline);
    ("metrics", e25_metrics);
    ("parallel", e26_parallel);
    ("huge", e27_huge);
    ("engine", e28_engine);
    ("sla", e29_sla);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    requested;
  List.iter (fun name -> (List.assoc name experiments) ()) requested
