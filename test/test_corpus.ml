(* Golden regression tests over the curated instance corpus in
   data/instances/: load each file, check the certified bounds, plan
   with every applicable algorithm, validate, and pin the achieved
   round counts.  A planner regression that costs rounds anywhere
   fails here with the instance named. *)

module M = Migration
open Test_util

let corpus_dir =
  (* dune runs tests from the build sandbox; data/ is a source dep.
     CORPUS_DIR overrides the search so the same binary also replays a
     corpus from a CLI checkout (e.g. fuzz reproducers just written). *)
  let candidates =
    (match Sys.getenv_opt "CORPUS_DIR" with Some d -> [ d ] | None -> [])
    @ [ "data/instances"; "../data/instances"; "../../data/instances" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.fail "corpus directory not found"

(* the fuzz harness writes shrunk failing reproducers next to the
   curated corpus; every file that shows up there is replayed here *)
let regressions_dir = Filename.concat (Filename.dirname corpus_dir) "regressions"

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      M.Instance.of_string (really_input_string ic (in_channel_length ic)))

let load name = load_file (Filename.concat corpus_dir name)

let regression_files =
  if Sys.file_exists regressions_dir && Sys.is_directory regressions_dir then
    Sys.readdir regressions_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".inst")
    |> List.sort compare
  else []

(* per instance: (file, expected lb1, expected gamma, expected rounds
   achievable by the general planner) *)
let golden =
  [
    ("fig1.inst", 4, 3, 4);
    ("triangle10_c1.inst", 20, 30, 30);
    ("k5x8_c1.inst", 32, 40, 40);
    ("even_mixed.inst", 10, 6, 10);
    ("hetero_medium.inst", 32, 9, 32);
    ("powerlaw.inst", 45, 14, 45);
    ("clustered.inst", 47, 23, 47);
    ("two_pools.inst", 3, 2, 3);
  ]

let test_golden (file, lb1, gamma, rounds) () =
  let inst = load file in
  let rng = rng_of_int 1 in
  Alcotest.(check int) (file ^ " lb1") lb1 (M.Lower_bounds.lb1 inst);
  Alcotest.(check int) (file ^ " gamma") gamma (M.Lower_bounds.lb2 ~rng inst);
  let sched = M.Hetero_coloring.schedule ~rng:(rng_of_int 2) inst in
  check_valid_schedule inst sched file;
  Alcotest.(check int) (file ^ " rounds") rounds (M.Schedule.n_rounds sched)

let test_all_algorithms_on_corpus () =
  List.iter
    (fun (file, _, _, _) ->
      let inst = load file in
      List.iter
        (fun (s : M.Solver.t) ->
          if s.can_solve inst then begin
            let sched = M.Solver.solve ~rng:(rng_of_int 3) s inst in
            match M.Schedule.validate inst sched with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "%s with %s: %s" file s.name msg
          end)
        M.Pipeline.solvers)
    golden

(* a regression instance once broke some planner: re-run every
   planner through the pipeline and certify independently *)
let test_regression file () =
  let inst = load_file (Filename.concat regressions_dir file) in
  let lb = M.Lower_bounds.lower_bound ~rng:(rng_of_int 1) inst in
  List.iter
    (fun (s : M.Solver.t) ->
      if s.can_solve inst then begin
        let sched, _ =
          M.Pipeline.solve ~rng:(rng_of_int 2) ~choose:(M.Pipeline.choose_of s)
            inst
        in
        let v = M.Certify.check ~lb ~solver:s.name inst sched in
        if not (M.Certify.ok v) then
          Alcotest.failf "%s with %s: %s" file s.name
            (String.concat "; "
               (List.map M.Certify.violation_to_string v.M.Certify.violations))
      end)
    M.Pipeline.solvers

(* service-soak reproducers land in the same corpus (written by
   `migrate fuzz --service`): replay each regression instance through
   a fault-free soak — the concatenated flight log must certify *)
let test_regression_service file () =
  let inst = load_file (Filename.concat regressions_dir file) in
  match Service.soak ~epoch_rounds:4 ~inst ~seed:1 () with
  | Ok _ -> ()
  | Error msgs ->
      Alcotest.failf "%s: service soak: %s" file (String.concat "; " msgs)

(* distributed-soak reproducers (written by `migrate fuzz
   --distributed` as <family>_s<seed>_dist.inst) land here too: replay
   each regression through a fault-free coordinator/worker run — it
   must converge to a certifier-clean flight log byte-identical to the
   in-process engine's.  Safe to fork: every test in this binary plans
   with jobs=1, so no domain has ever been spawned. *)
let test_regression_distributed file () =
  let inst = load_file (Filename.concat regressions_dir file) in
  let state_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "corpus_dist.%d.%s" (Unix.getpid ()) file)
  in
  let cleanup () =
    if Sys.file_exists state_dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat state_dir f) with _ -> ())
        (Sys.readdir state_dir);
      try Sys.rmdir state_dir with _ -> ()
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  match
    Distproto.Runner.run ~workers:2 ~seed:1 ~state_dir inst
  with
  | Error msg -> Alcotest.failf "%s: distributed run: %s" file msg
  | Ok (Distproto.Runner.Interrupted _) ->
      Alcotest.failf "%s: distributed run interrupted without a kill" file
  | Ok (Distproto.Runner.Completed o) ->
      let v = M.Certify.certify_execution o.Distproto.Runner.execution in
      if not (M.Certify.exec_ok v) then
        Alcotest.failf "%s: distributed flight log failed certification" file;
      let reference =
        M.Engine.run
          ~rng:(Distproto.Runner.plan_rng 1)
          ~jobs:1 ~policy:M.Engine.no_faults inst
      in
      Alcotest.(check string)
        (file ^ " distributed flight log matches the engine")
        (M.Certify.execution_to_string reference.M.Engine.execution)
        (M.Certify.execution_to_string o.Distproto.Runner.execution)

let test_corpus_roundtrips () =
  List.iter
    (fun (file, _, _, _) ->
      let inst = load file in
      let inst' = M.Instance.of_string (M.Instance.to_string inst) in
      Alcotest.(check int) (file ^ " items survive roundtrip")
        (M.Instance.n_items inst) (M.Instance.n_items inst'))
    golden

let () =
  Alcotest.run "corpus"
    [
      ( "golden",
        List.map
          (fun ((file, _, _, _) as entry) ->
            Alcotest.test_case file `Quick (test_golden entry))
          golden );
      ( "sweep",
        [
          Alcotest.test_case "all algorithms validate" `Quick
            test_all_algorithms_on_corpus;
          Alcotest.test_case "serialization roundtrips" `Quick
            test_corpus_roundtrips;
        ] );
      ( "regressions",
        List.concat_map
          (fun file ->
            [
              Alcotest.test_case file `Quick (test_regression file);
              Alcotest.test_case (file ^ " (service soak)") `Quick
                (test_regression_service file);
              Alcotest.test_case (file ^ " (distributed)") `Quick
                (test_regression_distributed file);
            ])
          regression_files );
    ]
