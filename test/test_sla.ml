(* SLA-aware objectives: tenant/group tags on instances, the
   weighted-group-completion objective, the priority reordering
   post-pass, the sla-greedy planner, and the independent SLA
   certifier — including tamper detection on forged claims. *)

module M = Migration
module O = M.Objective
module Multigraph = Mgraph.Multigraph
open Test_util

let tenants = Option.get (Gen.family_of_string "tenants")

let sorted_edges sched =
  M.Schedule.rounds sched |> Array.to_list |> List.concat
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* instance tagging *)

let test_tagged_roundtrip () =
  for seed = 0 to 6 do
    let inst = Gen.instance tenants ~seed ~size:12 in
    Alcotest.(check bool) "tenants instances are tagged" true
      (M.Instance.tagged inst);
    let rt = M.Instance.of_string (M.Instance.to_string inst) in
    Alcotest.(check string) "to_string/of_string round-trips tags"
      (M.Instance.to_string inst)
      (M.Instance.to_string rt);
    Alcotest.(check (array int)) "groups survive"
      (M.Instance.groups inst) (M.Instance.groups rt);
    Alcotest.(check (array int)) "weights survive"
      (M.Instance.weights inst) (M.Instance.weights rt)
  done

let test_untagged_format_stable () =
  (* untagged instances must keep the legacy wire format: no "groups"
     block, so execution digests over old instances never change *)
  let g = Multigraph.create ~n:3 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 1 2);
  let inst = M.Instance.create g ~caps:[| 1; 2; 1 |] in
  let s = M.Instance.to_string inst in
  Alcotest.(check bool) "no groups token" false
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l >= 6 && String.sub l 0 6 = "groups"));
  Alcotest.(check int) "implicit single group" 1 (M.Instance.n_groups inst);
  Alcotest.(check bool) "untagged" false (M.Instance.tagged inst)

let test_decompose_preserves_groups () =
  for seed = 0 to 4 do
    let inst = Gen.instance tenants ~seed ~size:10 in
    let comps = M.Instance.decompose inst in
    List.iter
      (fun (c : M.Instance.component) ->
        Array.iteri
          (fun local global ->
            Alcotest.(check int)
              (Printf.sprintf "seed %d edge %d group" seed global)
              (M.Instance.group inst global)
              (M.Instance.group c.M.Instance.instance local))
          c.M.Instance.edges)
      comps
  done

(* ------------------------------------------------------------------ *)
(* the reordering post-pass *)

let reorder_preserves =
  qtest "reorder: same edge multiset, same makespan, certified" ~count:60
    QCheck2.Gen.(
      let* seed = int_bound 1_000 in
      let* size = int_range 4 20 in
      return (seed, size))
    (fun (seed, size) ->
      let inst = Gen.instance tenants ~seed ~size in
      let sched = M.Solver.solve ~rng:(rng_of_int seed) M.Pipeline.auto inst in
      let r = O.reorder inst sched in
      sorted_edges r = sorted_edges sched
      && M.Schedule.n_rounds r = M.Schedule.n_rounds sched
      && M.Schedule.validate inst r = Ok ()
      && M.Certify.sla_ok
           (M.Certify.check_sla inst r (O.claim ~reordered:true inst r)))

let test_reorder_untagged_noop_semantics () =
  (* one implicit group: reordering may permute rounds but the single
     group's completion is the makespan either way *)
  let g = Multigraph.create ~n:4 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 2 3);
  ignore (Multigraph.add_edge g 0 1);
  let untagged = M.Instance.create g ~caps:[| 1; 1; 1; 1 |] in
  let sched = M.Solver.solve ~rng:(rng_of_int 3) M.Pipeline.auto untagged in
  let r = O.reorder untagged sched in
  Alcotest.(check int) "same rounds"
    (M.Schedule.n_rounds sched) (M.Schedule.n_rounds r);
  Alcotest.(check int) "C_0 = makespan"
    (M.Schedule.n_rounds r)
    (O.completion_rounds untagged r).(0)

(* ------------------------------------------------------------------ *)
(* the certifier *)

let plan_with_claim seed size =
  let inst = Gen.instance tenants ~seed ~size in
  let sched =
    O.reorder inst
      (M.Solver.solve ~rng:(rng_of_int seed) M.Pipeline.auto inst)
  in
  (inst, sched, O.claim ~solver:"auto" ~reordered:true inst sched)

let test_certifier_accepts_honest () =
  for seed = 0 to 5 do
    let inst, sched, claim = plan_with_claim seed 12 in
    let v = M.Certify.check_sla inst sched claim in
    if not (M.Certify.sla_ok v) then
      Alcotest.failf "seed %d rejected: %s" seed
        (String.concat "; "
           (List.map M.Certify.sla_violation_to_string
              v.M.Certify.sla_violations))
  done

let test_certifier_rejects_forged_completion () =
  let inst, sched, claim = plan_with_claim 7 12 in
  (* forge the first group's completion one round early — the classic
     SLA lie.  The certifier re-derives C_g from the rounds alone, so
     the forgery must surface as a completion mismatch *)
  let forged =
    {
      claim with
      M.Certify.sla_completions =
        (match claim.M.Certify.sla_completions with
        | (g, c) :: rest -> (g, max 1 (c - 1)) :: rest
        | [] -> Alcotest.fail "no completions claimed");
    }
  in
  let v = M.Certify.check_sla inst sched forged in
  Alcotest.(check bool) "forged C_g rejected" false (M.Certify.sla_ok v);
  let is_mismatch = function
    | M.Certify.Sla_completion_mismatch _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "violation names the mismatch" true
    (List.exists is_mismatch v.M.Certify.sla_violations)

let test_certifier_rejects_forged_sum () =
  let inst, sched, claim = plan_with_claim 8 12 in
  let forged =
    { claim with M.Certify.sla_weighted_sum = claim.M.Certify.sla_weighted_sum - 1 }
  in
  let v = M.Certify.check_sla inst sched forged in
  Alcotest.(check bool) "forged sum rejected" false (M.Certify.sla_ok v);
  Alcotest.(check bool) "violation names the sum" true
    (List.exists
       (function M.Certify.Sla_weighted_sum_mismatch _ -> true | _ -> false)
       v.M.Certify.sla_violations)

let test_certifier_catches_inversion () =
  (* two groups on disjoint disks: group 1 (weight 5) could run in
     round 1, but the schedule serves only group 0 (weight 1) first
     while claiming the reordering invariant — a priority inversion *)
  let g = Multigraph.create ~n:4 () in
  let _e0 = Multigraph.add_edge g 0 1 in
  let _e1 = Multigraph.add_edge g 2 3 in
  let inst =
    M.Instance.create ~groups:[| 0; 1 |] ~weights:[| 1; 5 |] g
      ~caps:[| 1; 1; 1; 1 |]
  in
  let inverted = M.Schedule.of_rounds [| [ 0 ]; [ 1 ] |] in
  let claim = O.claim ~reordered:true inst inverted in
  let v = M.Certify.check_sla inst inverted claim in
  Alcotest.(check bool) "inversion rejected" false (M.Certify.sla_ok v);
  Alcotest.(check bool) "violation is the inversion" true
    (List.exists
       (function M.Certify.Sla_priority_inversion _ -> true | _ -> false)
       v.M.Certify.sla_violations);
  (* the honest order passes *)
  let honest = M.Schedule.of_rounds [| [ 1 ]; [ 0 ] |] in
  let v' = M.Certify.check_sla inst honest (O.claim ~reordered:true inst honest) in
  Alcotest.(check bool) "honest order certified" true (M.Certify.sla_ok v')

(* ------------------------------------------------------------------ *)
(* the sla-greedy planner *)

let sla_greedy_certifies =
  qtest "sla-greedy: valid and SLA-certified on tagged instances"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_bound 1_000 in
      let* size = int_range 4 16 in
      return (seed, size))
    (fun (seed, size) ->
      let inst = Gen.instance tenants ~seed ~size in
      let sched =
        O.reorder inst
          (M.Solver.solve ~rng:(rng_of_int seed) O.sla_greedy inst)
      in
      M.Schedule.validate inst sched = Ok ()
      && M.Certify.sla_ok
           (M.Certify.check_sla inst sched
              (O.claim ~solver:"sla-greedy" ~reordered:true inst sched)))

let test_priority_order () =
  let g = Multigraph.create ~n:6 () in
  for i = 0 to 2 do
    ignore (Multigraph.add_edge g (2 * i) ((2 * i) + 1))
  done;
  let inst =
    M.Instance.create ~groups:[| 0; 1; 2 |] ~weights:[| 2; 7; 2 |] g
      ~caps:(Array.make 6 1)
  in
  (* weight descending, group id ascending on ties *)
  Alcotest.(check (array int)) "order" [| 1; 0; 2 |] (O.priority_order inst)

let () =
  Alcotest.run "sla"
    [
      ( "instance",
        [
          Alcotest.test_case "tenants tags round-trip" `Quick
            test_tagged_roundtrip;
          Alcotest.test_case "untagged wire format unchanged" `Quick
            test_untagged_format_stable;
          Alcotest.test_case "decompose preserves group tags" `Quick
            test_decompose_preserves_groups;
        ] );
      ( "reorder",
        [
          reorder_preserves;
          Alcotest.test_case "single implicit group" `Quick
            test_reorder_untagged_noop_semantics;
        ] );
      ( "certify",
        [
          Alcotest.test_case "honest claims certified" `Quick
            test_certifier_accepts_honest;
          Alcotest.test_case "forged C_g rejected" `Quick
            test_certifier_rejects_forged_completion;
          Alcotest.test_case "forged weighted sum rejected" `Quick
            test_certifier_rejects_forged_sum;
          Alcotest.test_case "priority inversion rejected" `Quick
            test_certifier_catches_inversion;
        ] );
      ( "planner",
        [
          sla_greedy_certifies;
          Alcotest.test_case "priority order" `Quick test_priority_order;
        ] );
    ]
