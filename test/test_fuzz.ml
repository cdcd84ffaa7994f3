(* The adversarial harness itself: generator families, the independent
   certifier, the shrinker, and the differential fuzz loop — including
   the mutation smoke test that proves a broken planner is caught and
   shrunk to a small reproducer. *)

module M = Migration
module Multigraph = Mgraph.Multigraph
open Test_util

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* generator families *)

let test_families_build () =
  List.iter
    (fun fam ->
      List.iter
        (fun (seed, size) ->
          let inst = Gen.instance fam ~seed ~size in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d size=%d has items" fam.Gen.name seed
               size)
            true
            (M.Instance.n_items inst > 0);
          (* reproducer contract: same triple, same instance *)
          let again = Gen.instance fam ~seed ~size in
          Alcotest.(check string)
            (fam.Gen.name ^ " deterministic")
            (M.Instance.to_string inst)
            (M.Instance.to_string again);
          (* printable and parseable *)
          let rt = M.Instance.of_string (M.Instance.to_string inst) in
          Alcotest.(check int)
            (fam.Gen.name ^ " roundtrips")
            (M.Instance.n_items inst) (M.Instance.n_items rt))
        [ (0, 4); (1, 12); (2, 25) ])
    Gen.all

let test_family_lookup () =
  List.iter
    (fun name ->
      match Gen.family_of_string name with
      | Some f -> Alcotest.(check string) "name matches" name f.Gen.name
      | None -> Alcotest.failf "family %s not found" name)
    Gen.names;
  Alcotest.(check bool) "unknown family" true (Gen.family_of_string "nope" = None)

let test_family_regimes () =
  let even = Option.get (Gen.family_of_string "even") in
  let unit = Option.get (Gen.family_of_string "unit") in
  let multipool = Option.get (Gen.family_of_string "multipool") in
  for seed = 0 to 4 do
    Alcotest.(check bool) "even family is all-even" true
      (M.Instance.all_caps_even (Gen.instance even ~seed ~size:12));
    Alcotest.(check bool) "unit family is c_v = 1" true
      (Array.for_all (( = ) 1)
         (M.Instance.caps (Gen.instance unit ~seed ~size:12)));
    Alcotest.(check bool) "multipool is disconnected" true
      (List.length (M.Instance.decompose (Gen.instance multipool ~seed ~size:12))
      > 1)
  done

(* the bottleneck family must make the subset bound bind: the witness
   returned by lb2_witness actually achieves the reported Γ-term *)
let test_bottleneck_witness () =
  let fam = Option.get (Gen.family_of_string "bottleneck") in
  for seed = 0 to 9 do
    let inst = Gen.instance fam ~seed ~size:12 in
    let rng = rng_of_int seed in
    let lb2, witness = M.Lower_bounds.lb2_witness ~rng inst in
    Alcotest.(check bool) "bound is positive" true (lb2 > 0);
    Alcotest.(check int)
      (Printf.sprintf "witness achieves the bound (seed %d)" seed)
      lb2
      (M.Lower_bounds.gamma_term inst witness);
    Alcotest.(check bool)
      (Printf.sprintf "Gamma strictly beats LB1 (seed %d)" seed)
      true
      (lb2 > M.Lower_bounds.lb1 inst)
  done

(* ------------------------------------------------------------------ *)
(* the independent certifier *)

let path_c1 () =
  (* 0 - 1 - 2 with c_1 = 1: both edges collide at disk 1, lb = 2 *)
  let g = Multigraph.create ~n:3 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 1 2);
  M.Instance.create g ~caps:[| 1; 1; 1 |]

let has_violation v pred = List.exists pred v.M.Certify.violations

let test_certify_ok () =
  let inst = path_c1 () in
  let v = M.Certify.check inst (M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |]) in
  Alcotest.(check bool) "certifies" true (M.Certify.ok v);
  Alcotest.(check int) "lb recorded" 2 v.M.Certify.lb

let test_certify_missing_and_duplicate () =
  let inst = path_c1 () in
  let v = M.Certify.check inst (M.Schedule.of_rounds [| [ 0 ]; [ 0 ] |]) in
  Alcotest.(check bool) "duplicate named" true
    (has_violation v (function
      | M.Certify.Duplicate_item { item = 0; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "missing named" true
    (has_violation v (function
      | M.Certify.Missing_item { item = 1 } -> true
      | _ -> false))

let test_certify_overload_and_lb () =
  let inst = path_c1 () in
  let v = M.Certify.check inst (M.Schedule.of_rounds [| [ 0; 1 ] |]) in
  Alcotest.(check bool) "overload names disk and round" true
    (has_violation v (function
      | M.Certify.Overload { round = 0; disk = 1; load = 2; cap = 1 } -> true
      | _ -> false));
  Alcotest.(check bool) "beats lower bound" true
    (has_violation v (function
      | M.Certify.Beats_lower_bound { rounds = 1; lb = 2 } -> true
      | _ -> false))

let test_certify_unknown_item () =
  let inst = path_c1 () in
  let v = M.Certify.check inst (M.Schedule.of_rounds [| [ 0; 7 ]; [ 1 ] |]) in
  Alcotest.(check bool) "unknown item named" true
    (has_violation v (function
      | M.Certify.Unknown_item { item = 7; round = 0 } -> true
      | _ -> false))

let test_certify_guarantees () =
  (* even-opt must tie LB1 exactly: a 1-round-too-long schedule of an
     all-even instance certifies as a schedule but breaks the
     guarantee *)
  let g = Multigraph.create ~n:2 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 0 1);
  let inst = M.Instance.create g ~caps:[| 2; 2 |] in
  let lazy_sched = M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |] in
  Alcotest.(check bool) "unattributed schedule passes" true
    (M.Certify.ok (M.Certify.check inst lazy_sched));
  let v = M.Certify.check ~solver:"even-opt" inst lazy_sched in
  Alcotest.(check bool) "even-opt guarantee broken" true
    (has_violation v (function
      | M.Certify.Guarantee_broken { solver = "even-opt"; _ } -> true
      | _ -> false));
  let tight = M.Schedule.of_rounds [| [ 0; 1 ] |] in
  Alcotest.(check bool) "tight schedule certifies for even-opt" true
    (M.Certify.ok (M.Certify.check ~solver:"even-opt" inst tight))

(* ------------------------------------------------------------------ *)
(* the shrinker *)

let test_shrink_minimizes () =
  let rng = rng_of_int 3 in
  let g = Mgraph.Graph_gen.gnm rng ~n:12 ~m:40 in
  let inst = M.Instance.random_caps rng g ~choices:[ 1; 2; 3 ] in
  let fails i = M.Instance.n_items i >= 3 in
  let shrunk = M.Shrink.minimize ~fails inst in
  Alcotest.(check int) "minimal failing size" 3 (M.Instance.n_items shrunk);
  Alcotest.(check bool) "still fails" true (fails shrunk);
  Alcotest.(check bool) "isolated disks dropped" true
    (M.Instance.n_disks shrunk <= 6)

let test_shrink_requires_failure () =
  Alcotest.check_raises "non-failing instance rejected"
    (Invalid_argument "Shrink.minimize: instance does not fail") (fun () ->
      ignore
        (M.Shrink.minimize ~fails:(fun _ -> false) (path_c1 ())))

(* ------------------------------------------------------------------ *)
(* the differential loop *)

let test_differential_clean () =
  let report =
    Gen.Fuzz.run ~size:10 ~families:Gen.all ~count:4 ~seed:99 ()
  in
  Alcotest.(check int) "instances" (4 * List.length Gen.all)
    report.Gen.Fuzz.total_instances;
  Alcotest.(check (list string)) "no failures" []
    (List.map
       (fun (f : Gen.Fuzz.failure) ->
         Printf.sprintf "%s/%s: %s" f.Gen.Fuzz.family f.Gen.Fuzz.solver
           (String.concat "; " f.Gen.Fuzz.messages))
       report.Gen.Fuzz.failures);
  (* every family exercised every requested solver it can *)
  List.iter
    (fun (fr : Gen.Fuzz.family_report) ->
      Alcotest.(check bool)
        (fr.Gen.Fuzz.family ^ " ran hetero")
        true
        (List.exists
           (fun (s : Gen.Fuzz.solver_stats) ->
             s.Gen.Fuzz.solver = "hetero" && s.Gen.Fuzz.runs = 4)
           fr.Gen.Fuzz.per_solver))
    report.Gen.Fuzz.family_reports

(* The acceptance-criterion mutation smoke test: a planner that
   overloads disks by collapsing its first two rounds; the
   certifier must name the invariant and the shrunk reproducer must be
   small. *)
let broken_solver =
  {
    M.Solver.name = "broken";
    doc = "hetero with rounds 0 and 1 collapsed (deliberately invalid)";
    can_solve = (fun _ -> true);
    solve =
      (fun ctx inst ->
        let sched = M.Solver.hetero.M.Solver.solve ctx inst in
        let rounds = M.Schedule.rounds sched in
        if Array.length rounds < 2 then sched
        else
          M.Schedule.of_rounds
            (Array.append
               [| rounds.(0) @ rounds.(1) |]
               (Array.sub rounds 2 (Array.length rounds - 2))));
  }

let test_mutation_caught () =
  let fam = Option.get (Gen.family_of_string "unit") in
  let report =
    Gen.Fuzz.run ~size:12 ~solvers:[ broken_solver ] ~families:[ fam ]
      ~count:3 ~seed:5 ()
  in
  Alcotest.(check bool) "at least one failure" true
    (report.Gen.Fuzz.failures <> []);
  List.iter
    (fun (f : Gen.Fuzz.failure) ->
      Alcotest.(check string) "attributed to the mutant" "broken"
        f.Gen.Fuzz.solver;
      (* the certifier names the violated invariant, not just "invalid" *)
      Alcotest.(check bool) "overload invariant named" true
        (List.exists
           (fun m -> contains m "overloads disk" || contains m "lower bound")
           f.Gen.Fuzz.messages);
      (* shrunk reproducer is small and still fails the same check *)
      Alcotest.(check bool) "reproducer <= 8 disks" true
        (M.Instance.n_disks f.Gen.Fuzz.shrunk <= 8);
      let still =
        let sched =
          M.Solver.solve ~rng:(rng_of_int 0) broken_solver f.Gen.Fuzz.shrunk
        in
        not
          (M.Certify.ok
             (M.Certify.check ~solver:"broken" f.Gen.Fuzz.shrunk sched))
      in
      Alcotest.(check bool) "shrunk reproducer still fails" true still)
    report.Gen.Fuzz.failures

(* a second mutation: dropping the last round loses items — the
   certifier must name the missing item *)
let dropping_solver =
  {
    M.Solver.name = "dropper";
    doc = "hetero minus its last round (deliberately lossy)";
    can_solve = (fun _ -> true);
    solve =
      (fun ctx inst ->
        let sched = M.Solver.hetero.M.Solver.solve ctx inst in
        let rounds = M.Schedule.rounds sched in
        if Array.length rounds = 0 then sched
        else M.Schedule.of_rounds (Array.sub rounds 0 (Array.length rounds - 1)));
  }

let test_dropper_caught () =
  let fam = Option.get (Gen.family_of_string "uniform") in
  let report =
    Gen.Fuzz.run ~size:8 ~solvers:[ dropping_solver ] ~families:[ fam ]
      ~count:2 ~seed:11 ()
  in
  Alcotest.(check bool) "dropper caught" true (report.Gen.Fuzz.failures <> []);
  let f = List.hd report.Gen.Fuzz.failures in
  Alcotest.(check bool) "missing item named" true
    (List.exists (fun m -> contains m "never scheduled") f.Gen.Fuzz.messages)

(* ------------------------------------------------------------------ *)
(* the soak loop, with the whole streaming daemon as the drive *)

let soak_drive ~fault_rate ~inst ~seed =
  Service.soak ~epoch_rounds:4 ~fault_rate ~inst ~seed ()
  |> Result.map (fun (s : Service.soak_stats) -> [ s.Service.soak_transfers ])

(* every generator family through the service loop — the soak driver
   mixes demand-shift / disk-failure / disk-addition triggers into the
   stream — fault-free and under 10% transfer faults: every
   concatenated flight log must certify *)
let test_service_soak_clean () =
  List.iter
    (fun fault_rate ->
      let report =
        Gen.Fuzz.soak ~size:8 ~label:"service" ~columns:[ "transfers" ]
          ~drive:(soak_drive ~fault_rate) ~families:Gen.all ~count:2 ~seed:77
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "fault %.2f: every instance soaked" fault_rate)
        (2 * List.length Gen.all)
        report.Gen.Fuzz.soaks;
      Alcotest.(check bool)
        (Printf.sprintf "fault %.2f: transfers happened" fault_rate)
        true
        (List.exists
           (fun (_, transfers) -> transfers <> [ 0 ])
           report.Gen.Fuzz.per_family);
      match report.Gen.Fuzz.soak_failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "fault %.2f: %s seed=%d size=%d: %s" fault_rate
            f.Gen.Fuzz.family f.Gen.Fuzz.seed f.Gen.Fuzz.size
            (String.concat "; " f.Gen.Fuzz.messages))
    [ 0.0; 0.1 ]

(* shrink plumbing: an artificially failing driver must come back as a
   failure under the loop's label whose reproducer was delta-debugged
   to the boundary (the driver rejects anything over 3 items, so the
   minimum is 4); the failing cell adds nothing to the sums *)
let test_soak_shrinks () =
  let drive ~inst ~seed:_ =
    if M.Instance.n_items inst > 3 then Error [ "too big" ] else Ok [ 1 ]
  in
  let fam = Option.get (Gen.family_of_string "uniform") in
  let report =
    Gen.Fuzz.soak ~size:10 ~label:"toy" ~columns:[ "runs" ] ~drive
      ~families:[ fam ] ~count:1 ~seed:5 ()
  in
  let f =
    match report.Gen.Fuzz.soak_failures with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs)
  in
  Alcotest.(check string) "labelled with the mode" "toy" f.Gen.Fuzz.solver;
  Alcotest.(check (list (pair string (list int))))
    "failing cell not summed" [ ("uniform", [ 0 ]) ] report.Gen.Fuzz.per_family;
  Alcotest.(check bool) "shrunk no bigger than original" true
    (M.Instance.n_items f.Gen.Fuzz.shrunk
    <= M.Instance.n_items f.Gen.Fuzz.instance);
  Alcotest.(check int) "shrunk to the boundary" 4
    (M.Instance.n_items f.Gen.Fuzz.shrunk);
  Alcotest.(check bool) "shrunk reproducer still fails" true
    (Result.is_error (drive ~inst:f.Gen.Fuzz.shrunk ~seed:0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ( "families",
        [
          Alcotest.test_case "build, determinism, roundtrip" `Quick
            test_families_build;
          Alcotest.test_case "lookup by name" `Quick test_family_lookup;
          Alcotest.test_case "family regimes hold" `Quick test_family_regimes;
          Alcotest.test_case "bottleneck witness achieves Gamma" `Quick
            test_bottleneck_witness;
        ] );
      ( "certify",
        [
          Alcotest.test_case "valid schedule certifies" `Quick test_certify_ok;
          Alcotest.test_case "missing and duplicate items" `Quick
            test_certify_missing_and_duplicate;
          Alcotest.test_case "overload and lower bound" `Quick
            test_certify_overload_and_lb;
          Alcotest.test_case "unknown item" `Quick test_certify_unknown_item;
          Alcotest.test_case "solver guarantees" `Quick test_certify_guarantees;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to the boundary" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "rejects non-failing input" `Quick
            test_shrink_requires_failure;
        ] );
      ( "differential",
        [
          Alcotest.test_case "all families, all solvers, clean" `Slow
            test_differential_clean;
          Alcotest.test_case "mutation: overload caught and shrunk" `Quick
            test_mutation_caught;
          Alcotest.test_case "mutation: lost items caught" `Quick
            test_dropper_caught;
        ] );
      ( "service",
        [
          Alcotest.test_case "all families soak clean, 0% and 10% faults"
            `Slow test_service_soak_clean;
          Alcotest.test_case "failing driver shrunk to the boundary" `Quick
            test_soak_shrinks;
        ] );
    ]
