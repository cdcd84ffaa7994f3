(* Crash-recovery battery for the distributed coordinator/worker
   runner.

   The contract under test: for a fixed instance and seed, the
   converged flight log is (a) clean under the independent execution
   certifier and (b) BYTE-IDENTICAL (Certify.execution_to_string) to
   the in-process engine's fault-free run — at any worker count, under
   kill -9 at any of the five phase transitions, across any number of
   crash/resume cycles, and through torn journal tails. *)

module D = Distproto
module M = Migration
open Test_util

(* ------------------------------------------------------------------ *)
(* harness *)

let temp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "migrate_dist_test_%d_%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_state_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let gen_inst ?(size = 8) ~family ~seed () =
  match Gen.family_of_string family with
  | Some fam -> Gen.instance fam ~seed ~size
  | None -> Alcotest.fail ("unknown family " ^ family)

(* the in-process engine run the distributed flight log must
   byte-match, seeded exactly like the coordinator's planner *)
let reference inst ~seed =
  (M.Engine.run ~rng:(D.Runner.plan_rng seed) ~policy:M.Engine.no_faults inst)
    .M.Engine.execution

let ref_rounds inst ~seed = List.length (reference inst ~seed).M.Certify.log

(* run + resume until Completed; kill specs are one-shot so resumes
   drop them.  Returns the outcome and the number of resumes. *)
let converge ?kill ~workers ~seed ~state_dir inst =
  let rec go attempts kill =
    if attempts > 10 then Alcotest.fail "runner did not converge in 10 resumes"
    else
      match D.Runner.run ?kill ~workers ~seed ~state_dir inst with
      | Error msg -> Alcotest.fail ("runner error: " ^ msg)
      | Ok (D.Runner.Interrupted _) -> go (attempts + 1) None
      | Ok (D.Runner.Completed o) -> (o, attempts)
  in
  go 0 kill

let check_converged ?kill ~workers ~seed inst =
  with_state_dir @@ fun state_dir ->
  let o, resumes = converge ?kill ~workers ~seed ~state_dir inst in
  let v = M.Certify.certify_execution o.D.Runner.execution in
  Alcotest.(check bool) "certifier clean" true (M.Certify.exec_ok v);
  Alcotest.(check string) "byte-identical to in-process engine"
    (M.Certify.execution_to_string (reference inst ~seed))
    (M.Certify.execution_to_string o.D.Runner.execution);
  (o, resumes)

(* ------------------------------------------------------------------ *)
(* message codec *)

let roundtrip m =
  match D.Message.decode (D.Message.encode m) with
  | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
  | Error e -> Alcotest.fail e

let test_message_roundtrip () =
  roundtrip (D.Message.Hello { worker = 2; workers = 4; rounds = 9 });
  roundtrip (D.Message.Ready { worker = 0 });
  roundtrip (D.Message.Round_start { round = 3; edges = [ 5; 1; 9 ] });
  roundtrip (D.Message.Round_start { round = 0; edges = [] });
  roundtrip (D.Message.Round_done { worker = 1; round = 7; edges = [ 0 ] });
  roundtrip (D.Message.Commit { round = 12 });
  roundtrip D.Message.Finish;
  roundtrip (D.Message.Bye { worker = 3; metrics = "" });
  (* the farewell metrics field is rest-of-line and may hold spaces *)
  roundtrip
    (D.Message.Bye { worker = 3; metrics = "c:dist.transfers=7 c:x.y=1" });
  List.iter
    (fun s ->
      match D.Message.decode s with
      | Ok _ -> Alcotest.fail ("decoded garbage: " ^ s)
      | Error _ -> ())
    [ ""; "hello"; "hello x 2 3"; "round 1"; "done 1 2"; "commitment 3" ]

(* ------------------------------------------------------------------ *)
(* sharding *)

let test_sharding_partition () =
  let inst = gen_inst ~family:"uniform" ~seed:11 () in
  let m = M.Instance.n_items inst in
  let round = List.init m Fun.id in
  List.iter
    (fun workers ->
      let shards = M.Engine.shard_round inst ~workers round in
      Alcotest.(check int) "one shard per worker" workers (Array.length shards);
      let union = List.sort compare (List.concat (Array.to_list shards)) in
      Alcotest.(check (list int)) "partition covers the round exactly" round
        union;
      Array.iteri
        (fun w shard ->
          List.iter
            (fun e ->
              Alcotest.(check int)
                (Printf.sprintf "edge %d owned by its shard" e)
                w
                (M.Engine.shard_of inst ~workers e))
            shard)
        shards)
    [ 1; 2; 3; 7 ];
  let one = M.Engine.shard_round inst ~workers:1 round in
  Alcotest.(check (list int)) "workers=1 keeps plan order" round one.(0)

let test_sharding_guards () =
  let inst = gen_inst ~family:"unit" ~seed:2 () in
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Engine.shard_of: workers must be >= 1") (fun () ->
      ignore (M.Engine.shard_of inst ~workers:0 0));
  Alcotest.check_raises "edge range"
    (Invalid_argument "Engine.shard_of: edge out of range") (fun () ->
      ignore (M.Engine.shard_of inst ~workers:2 (M.Instance.n_items inst)))

(* ------------------------------------------------------------------ *)
(* journal *)

let test_journal_roundtrip () =
  with_state_dir @@ fun d ->
  let path = Filename.concat d "j.log" in
  let entries =
    [
      D.Journal.Planned { digest = "abc"; rounds = 3; plan_md5 = "def" };
      D.Journal.Sharded { workers = 4 };
      D.Journal.Round_started { round = 0 };
      D.Journal.Round_committed { round = 0; edges = [ 3; 1; 4 ] };
      D.Journal.Round_started { round = 1 };
      D.Journal.Round_committed { round = 1; edges = [] };
      D.Journal.Certified;
    ]
  in
  let j, prior = D.Journal.open_ path in
  Alcotest.(check int) "fresh journal" 0 (List.length prior);
  List.iter (D.Journal.append j) entries;
  D.Journal.close j;
  let replayed = D.Journal.replay path in
  Alcotest.(check bool) "replay returns every record" true
    (replayed = entries);
  Alcotest.(check bool) "phase is certified" true
    (D.Journal.phase_of replayed = D.Journal.All_certified);
  Alcotest.(check bool) "committed rounds in order" true
    (D.Journal.committed replayed = [ (0, [ 3; 1; 4 ]); (1, []) ]);
  (* reopening resumes the sequence: appended records still replay *)
  let j2, prior2 = D.Journal.open_ path in
  Alcotest.(check int) "reopen sees the prefix" 7 (List.length prior2);
  D.Journal.append j2 (D.Journal.Round_started { round = 2 });
  D.Journal.close j2;
  Alcotest.(check int) "append after reopen" 8
    (List.length (D.Journal.replay path))

let test_journal_phase_order () =
  let expected =
    [
      D.Journal.Empty;
      D.Journal.Planned_phase;
      D.Journal.Sharded_phase;
      D.Journal.Executing_round 0;
      D.Journal.Committed_round 0;
      D.Journal.Executing_round 1;
      D.Journal.Committed_round 1;
      D.Journal.Executing_round 2;
      D.Journal.All_certified;
    ]
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as tl) ->
        D.Journal.compare_phase a b < 0 && strictly_increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "phases are totally ordered" true
    (strictly_increasing expected)

(* a torn tail — the crash left a partial last record — must replay to
   the valid prefix, silently *)
let test_journal_torn_tail () =
  with_state_dir @@ fun d ->
  let path = Filename.concat d "j.log" in
  let j, _ = D.Journal.open_ path in
  D.Journal.append j (D.Journal.Planned { digest = "x"; rounds = 2; plan_md5 = "y" });
  D.Journal.append j (D.Journal.Round_started { round = 0 });
  D.Journal.append j (D.Journal.Round_committed { round = 0; edges = [ 1; 2 ] });
  D.Journal.close j;
  let full = D.Journal.replay path in
  Alcotest.(check int) "full replay" 3 (List.length full);
  let size = (Unix.stat path).Unix.st_size in
  (* chop 1..last-record-length bytes off the tail: every truncation
     must drop exactly the damaged record and keep the prefix *)
  let last_len =
    let ic = open_in path in
    let rec last acc =
      match input_line ic with
      | line -> last (String.length line + 1)
      | exception End_of_file -> acc
    in
    let n = last 0 in
    close_in ic;
    n
  in
  for chop = 1 to last_len do
    let copy = Filename.concat d (Printf.sprintf "torn_%d.log" chop) in
    let contents =
      let ic = open_in_bin path in
      let s = really_input_string ic (size - chop) in
      close_in ic;
      s
    in
    let oc = open_out_bin copy in
    output_string oc contents;
    close_out oc;
    let replayed = D.Journal.replay copy in
    Alcotest.(check int)
      (Printf.sprintf "chop %d drops only the torn record" chop)
      2 (List.length replayed);
    Alcotest.(check bool) "prefix intact" true
      (replayed = [ List.nth full 0; List.nth full 1 ])
  done;
  (* a corrupted byte mid-record (checksum mismatch) also truncates *)
  let corrupt = Filename.concat d "corrupt.log" in
  let contents =
    let ic = open_in_bin path in
    let s = really_input_string ic size in
    close_in ic;
    s
  in
  let b = Bytes.of_string contents in
  Bytes.set b (size - 10) 'Z';
  let oc = open_out_bin corrupt in
  output_bytes oc (Bytes.sub b 0 size);
  close_out oc;
  Alcotest.(check int) "bad checksum truncates" 2
    (List.length (D.Journal.replay corrupt))

(* ------------------------------------------------------------------ *)
(* the crash battery: one scripted kill -9 at each phase transition *)

let battery_inst () = gen_inst ~family:"uniform" ~seed:5 ()
let battery_seed = 5

let kill_round inst =
  (* land inside the plan so the kill actually fires *)
  min 1 (max 0 (ref_rounds inst ~seed:battery_seed - 1))

let test_kill_worker point () =
  let inst = battery_inst () in
  let kill =
    {
      D.Runner.kill_role = `Worker 1;
      kill_point = point;
      kill_round = kill_round inst;
    }
  in
  let o, resumes = check_converged ~kill ~workers:3 ~seed:battery_seed inst in
  (* a worker kill is absorbed inside one invocation: the coordinator
     respawns the corpse, no coordinator-level resume happens *)
  Alcotest.(check int) "no coordinator resume" 0 resumes;
  Alcotest.(check bool) "the dead worker was respawned" true
    (o.D.Runner.respawns >= 1)

let test_kill_coordinator point () =
  let inst = battery_inst () in
  let kill =
    {
      D.Runner.kill_role = `Coordinator;
      kill_point = point;
      kill_round = kill_round inst;
    }
  in
  let o, resumes = check_converged ~kill ~workers:3 ~seed:battery_seed inst in
  Alcotest.(check int) "exactly one resume" 1 resumes;
  Alcotest.(check bool) "resume observed the journal" true
    o.D.Runner.resumed;
  (* post-commit: the killed round is already durable, so the resume
     must skip it (pre-commit: it is not, so it is re-issued) *)
  let expect_skipped =
    match point with
    | D.Runner.Coord_post_commit -> kill_round inst + 1
    | _ -> kill_round inst
  in
  Alcotest.(check int) "committed rounds skipped on resume" expect_skipped
    o.D.Runner.skipped

(* interruption surfaces the journal phase truthfully *)
let test_interrupt_reports_phase () =
  let inst = battery_inst () in
  with_state_dir @@ fun state_dir ->
  let kill =
    { D.Runner.kill_role = `Coordinator; kill_point = D.Runner.Coord_pre_commit;
      kill_round = 0 }
  in
  (match D.Runner.run ~kill ~workers:2 ~seed:battery_seed ~state_dir inst with
  | Ok (D.Runner.Interrupted { phase; signal }) ->
      Alcotest.(check bool) "killed by SIGKILL" true (signal = Sys.sigkill);
      Alcotest.(check bool) "phase is round-0-executing" true
        (phase = D.Journal.Executing_round 0)
  | Ok (D.Runner.Completed _) -> Alcotest.fail "kill did not fire"
  | Error msg -> Alcotest.fail msg);
  let o, _ = converge ~workers:2 ~seed:battery_seed ~state_dir inst in
  Alcotest.(check string) "resume converges byte-identically"
    (M.Certify.execution_to_string (reference inst ~seed:battery_seed))
    (M.Certify.execution_to_string o.D.Runner.execution)

(* a journal whose tail record was torn by the crash must still resume
   to the byte-identical flight log: the torn commit is re-executed *)
let test_resume_from_torn_journal () =
  let inst = battery_inst () in
  with_state_dir @@ fun state_dir ->
  let kill =
    { D.Runner.kill_role = `Coordinator;
      kill_point = D.Runner.Coord_post_commit; kill_round = 1 }
  in
  (match D.Runner.run ~kill ~workers:2 ~seed:battery_seed ~state_dir inst with
  | Ok (D.Runner.Interrupted _) -> ()
  | _ -> Alcotest.fail "expected an interruption");
  (* tear the last record (the round-1 commit) in half *)
  let jpath = Filename.concat state_dir "journal.log" in
  let size = (Unix.stat jpath).Unix.st_size in
  let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 7);
  Unix.close fd;
  let entries = D.Journal.replay jpath in
  Alcotest.(check bool) "torn commit dropped from replay" true
    (D.Journal.phase_of entries = D.Journal.Executing_round 1);
  let o, _ = converge ~workers:2 ~seed:battery_seed ~state_dir inst in
  Alcotest.(check int) "only round 0 was skipped" 1 o.D.Runner.skipped;
  Alcotest.(check string) "torn resume is byte-identical"
    (M.Certify.execution_to_string (reference inst ~seed:battery_seed))
    (M.Certify.execution_to_string o.D.Runner.execution)

(* ------------------------------------------------------------------ *)
(* durability odds and ends *)

let test_rerun_is_idempotent () =
  let inst = battery_inst () in
  with_state_dir @@ fun state_dir ->
  let o1, _ = converge ~workers:2 ~seed:battery_seed ~state_dir inst in
  let o2, _ = converge ~workers:2 ~seed:battery_seed ~state_dir inst in
  Alcotest.(check bool) "second run resumed" true o2.D.Runner.resumed;
  Alcotest.(check int) "second run skipped everything" o1.D.Runner.rounds
    o2.D.Runner.skipped;
  Alcotest.(check string) "same bytes"
    (M.Certify.execution_to_string o1.D.Runner.execution)
    (M.Certify.execution_to_string o2.D.Runner.execution)

let test_state_dir_mismatch () =
  let inst = battery_inst () in
  with_state_dir @@ fun state_dir ->
  let _ = converge ~workers:2 ~seed:battery_seed ~state_dir inst in
  (match D.Runner.run ~workers:2 ~seed:(battery_seed + 1) ~state_dir inst with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a journal from a different seed");
  let other = gen_inst ~family:"parallel" ~seed:9 () in
  match D.Runner.run ~workers:2 ~seed:battery_seed ~state_dir other with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a journal from a different instance"

let test_worker_count_invariance () =
  let inst = gen_inst ~family:"multipool" ~seed:13 () in
  let strings =
    List.map
      (fun workers ->
        let o, _ = check_converged ~workers ~seed:13 inst in
        M.Certify.execution_to_string o.D.Runner.execution)
      [ 1; 2; 5 ]
  in
  match strings with
  | a :: rest ->
      List.iter (Alcotest.(check string) "same bytes at every N" a) rest
  | [] -> assert false

let test_runner_guards () =
  let inst = battery_inst () in
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Runner.run: workers must be >= 1") (fun () ->
      ignore (D.Runner.run ~workers:0 ~seed:1 ~state_dir:"/nonexistent" inst))

(* ------------------------------------------------------------------ *)
(* exhaustive battery: every single kill at every round, 1-3 workers *)

let qcheck_families = [ "uniform"; "powerlaw"; "even"; "unit"; "parallel";
                        "bottleneck"; "multipool" ]

(* Drive [inst] to completion under [kill], resuming after coordinator
   kills (specs are one-shot, so resumes drop them): the converged
   flight log's bytes when the certifier passes it, else why not. *)
let converged_log ?kill ~workers ~seed inst =
  with_state_dir @@ fun state_dir ->
  let rec go attempts kill =
    if attempts > 10 then Error "no convergence in 10 resumes"
    else
      match D.Runner.run ?kill ~workers ~seed ~state_dir inst with
      | Error msg -> Error msg
      | Ok (D.Runner.Interrupted _) -> go (attempts + 1) None
      | Ok (D.Runner.Completed o) ->
          if M.Certify.exec_ok (M.Certify.certify_execution o.D.Runner.execution)
          then Ok (M.Certify.execution_to_string o.D.Runner.execution)
          else Error "flight log failed certification"
  in
  go 0 kill

(* every kill of one run: each worker point against each worker and
   each coordinator point, at every round, the last one included *)
let every_kill ~workers ~n_rounds =
  let open D.Runner in
  List.concat_map
    (fun kill_round ->
      List.concat_map
        (fun kill_point ->
          let roles =
            match kill_point with
            | Coord_pre_commit | Coord_post_commit -> [ `Coordinator ]
            | Worker_pre_round | Worker_mid_round | Worker_post_report ->
                List.init workers (fun w -> `Worker w)
          in
          List.map (fun kill_role -> { kill_role; kill_point; kill_round }) roles)
        [ Worker_pre_round; Worker_mid_round; Worker_post_report;
          Coord_pre_commit; Coord_post_commit ])
    (List.init n_rounds Fun.id)

let describe_kill { D.Runner.kill_role; kill_point; kill_round } =
  Printf.sprintf "%s %s at round %d"
    (match kill_role with
    | `Coordinator -> "coordinator"
    | `Worker w -> Printf.sprintf "worker %d" w)
    (D.Runner.kill_point_to_string kill_point)
    kill_round

let test_every_kill family () =
  let seed = 1 in
  let inst = gen_inst ~size:4 ~family ~seed () in
  let expected = Ok (M.Certify.execution_to_string (reference inst ~seed)) in
  let n_rounds = ref_rounds inst ~seed in
  List.iter
    (fun workers ->
      List.iter
        (fun kill ->
          let got = converged_log ~kill ~workers ~seed inst in
          if got <> expected then
            Alcotest.failf "%s seed %d, %d workers, %s: %s" family seed workers
              (describe_kill kill)
              (match got with
              | Error msg -> msg
              | Ok _ -> "flight log differs from the in-process engine"))
        (every_kill ~workers ~n_rounds))
    [ 1; 2; 3 ]

(* The schedule that exposed a closed connection left in the runner's
   table: the last worker dies after reporting the last round, so the
   farewell loop has closed the others' descriptors when it is
   respawned, and the kernel hands their numbers to the new socketpair. *)
let test_last_round_reproducer () =
  let seed = 3862 in
  let inst = gen_inst ~size:6 ~family:"even" ~seed () in
  Alcotest.(check int) "round 3 is the last" 4 (ref_rounds inst ~seed);
  let kill =
    {
      D.Runner.kill_role = `Worker 2;
      kill_point = D.Runner.Worker_post_report;
      kill_round = 3;
    }
  in
  ignore (check_converged ~kill ~workers:3 ~seed inst)

(* ------------------------------------------------------------------ *)
(* randomized battery: family x kill schedule x worker count *)

let crash_schedule_gen =
  QCheck2.Gen.(
    tup4 (int_bound (List.length qcheck_families - 1)) (int_bound 10_000)
      (int_range 1 3)
      (tup3 (int_bound 5) (int_bound 2) (int_bound 7)))

let prop_crash_recovery (fam_idx, iseed, workers, (kind, victim, round)) =
  let family = List.nth qcheck_families fam_idx in
  let inst = gen_inst ~size:6 ~family ~seed:iseed () in
  let n_rounds = ref_rounds inst ~seed:iseed in
  let kill =
    if n_rounds = 0 || kind >= 5 then None (* also exercise kill-free runs *)
    else
      let kill_round = round mod n_rounds in
      let w = victim mod workers in
      Some
        (match kind with
        | 0 ->
            { D.Runner.kill_role = `Worker w;
              kill_point = D.Runner.Worker_pre_round; kill_round }
        | 1 ->
            { D.Runner.kill_role = `Worker w;
              kill_point = D.Runner.Worker_mid_round; kill_round }
        | 2 ->
            { D.Runner.kill_role = `Worker w;
              kill_point = D.Runner.Worker_post_report; kill_round }
        | 3 ->
            { D.Runner.kill_role = `Coordinator;
              kill_point = D.Runner.Coord_pre_commit; kill_round }
        | _ ->
            { D.Runner.kill_role = `Coordinator;
              kill_point = D.Runner.Coord_post_commit; kill_round })
  in
  converged_log ?kill ~workers ~seed:iseed inst
  = Ok (M.Certify.execution_to_string (reference inst ~seed:iseed))

let crash_recovery_random =
  qtest "crash recovery: random family x kill schedule x workers" ~count:200
    crash_schedule_gen prop_crash_recovery

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "distproto"
    [
      ( "protocol",
        [
          Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
          Alcotest.test_case "shard partition" `Quick test_sharding_partition;
          Alcotest.test_case "shard guards" `Quick test_sharding_guards;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip + reopen" `Quick test_journal_roundtrip;
          Alcotest.test_case "phase order" `Quick test_journal_phase_order;
          Alcotest.test_case "torn tail replay" `Quick test_journal_torn_tail;
        ] );
      ( "crash-battery",
        [
          Alcotest.test_case "worker pre-round kill" `Quick
            (test_kill_worker D.Runner.Worker_pre_round);
          Alcotest.test_case "worker mid-round kill" `Quick
            (test_kill_worker D.Runner.Worker_mid_round);
          Alcotest.test_case "worker post-report kill" `Quick
            (test_kill_worker D.Runner.Worker_post_report);
          Alcotest.test_case "coordinator pre-commit kill" `Quick
            (test_kill_coordinator D.Runner.Coord_pre_commit);
          Alcotest.test_case "coordinator post-commit kill" `Quick
            (test_kill_coordinator D.Runner.Coord_post_commit);
          Alcotest.test_case "interrupt reports the phase" `Quick
            test_interrupt_reports_phase;
          Alcotest.test_case "resume from a torn journal" `Quick
            test_resume_from_torn_journal;
        ] );
      ( "durability",
        [
          Alcotest.test_case "re-run is idempotent" `Quick
            test_rerun_is_idempotent;
          Alcotest.test_case "state-dir mismatch refused" `Quick
            test_state_dir_mismatch;
          Alcotest.test_case "worker-count invariance" `Quick
            test_worker_count_invariance;
          Alcotest.test_case "guards" `Quick test_runner_guards;
        ] );
      ( "every-kill",
        Alcotest.test_case "last-round post-report reproducer" `Quick
          test_last_round_reproducer
        :: List.map
             (fun family ->
               Alcotest.test_case family `Quick (test_every_kill family))
             qcheck_families );
      ("random", [ crash_recovery_random ]);
    ]
