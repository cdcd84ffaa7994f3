(* Coordinator/worker execution of a certified plan, over real
   processes.

   Process tree: the caller (supervisor) forks a coordinator; the
   coordinator plans (jobs:1 — forking with live domains is unsafe in
   OCaml 5, and the plan must be byte-identical to the in-process
   engine's anyway), certifies, journals, forks N workers over
   socketpairs and drives the plan round by round.  Children always
   leave through [Unix._exit] so at-exit machinery never runs twice.

   Durability: every phase transition lands in the fsync'd journal
   before the effects it describes are acted on (write-ahead), so a
   kill -9 of the coordinator leaves a valid prefix from which a fresh
   run resumes — committed rounds are skipped, the one possibly
   in-flight round is re-issued.  Worker death is handled below the
   journal: the coordinator reaps the corpse, respawns the index
   (without any scripted kill — respawn specs are one-shot) and
   re-sends the current round's shard unless that worker already
   reported it.

   Determinism: the flight log reconstructed from the journal is
   byte-identical (Certify.execution_to_string) to the in-process
   engine's fault-free run seeded with [plan_rng seed], at any worker
   count and under any crash schedule — rounds are committed in plan
   order carrying the plan's own edge order, regardless of which
   worker reported what when. *)

module M = Migration

let c_rounds = Probes.counter "dist.rounds"
let c_commits = Probes.counter "dist.commits"
let c_respawns = Probes.counter "dist.respawns"
let c_resumes = Probes.counter "dist.resumes"
let c_messages = Probes.counter "dist.messages"
let c_transfers = Probes.counter "dist.transfers"
let t_round = Probes.timer "dist.round"

type kill_point =
  | Worker_pre_round
  | Worker_mid_round
  | Worker_post_report
  | Coord_pre_commit
  | Coord_post_commit

type kill_role = [ `Worker of int | `Coordinator ]
type kill_spec = { kill_role : kill_role; kill_point : kill_point; kill_round : int }

type outcome = {
  execution : M.Certify.execution;
  rounds : int;
  workers : int;
  respawns : int;
  skipped : int;
  resumed : bool;
}

type result =
  | Completed of outcome
  | Interrupted of { phase : Journal.phase; signal : int }

let plan_rng seed = Random.State.make [| 0xd157; seed |]

let kill_point_to_string = function
  | Worker_pre_round -> "pre-round"
  | Worker_mid_round -> "mid-round"
  | Worker_post_report -> "post-report"
  | Coord_pre_commit -> "pre-commit"
  | Coord_post_commit -> "post-commit"

let journal_path state_dir = Filename.concat state_dir "journal.log"
let metrics_path state_dir = Filename.concat state_dir "coord.metrics"

let run_digest inst ~seed =
  Digest.to_hex
    (Digest.string (Printf.sprintf "%d#%s" seed (M.Instance.to_string inst)))

(* Scripted crash injection: the process SIGKILLs itself, exactly what
   an external kill -9 delivers (no cleanup, no flush, no unwind). *)
let maybe_kill kill ~role ~point ~round =
  match kill with
  | Some k when k.kill_role = role && k.kill_point = point && k.kill_round = round
    ->
      Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)

let worker_main ?kill ~worker:w conn =
  Probes.reset ();
  (match Net.recv conn with
  | Some (Message.Hello _) ->
      Probes.bump c_messages;
      Net.send conn (Message.Ready { worker = w })
  | Some _ | None -> raise Net.Closed);
  let role = `Worker w in
  let rec loop () =
    match Net.recv conn with
    | None -> loop ()
    | Some (Message.Round_start { round; edges }) ->
        Probes.bump c_messages;
        maybe_kill kill ~role ~point:Worker_pre_round ~round;
        let n = List.length edges in
        if n = 0 then maybe_kill kill ~role ~point:Worker_mid_round ~round
        else
          List.iteri
            (fun i _e ->
              if i = n / 2 then
                maybe_kill kill ~role ~point:Worker_mid_round ~round;
              Probes.bump c_transfers)
            edges;
        Net.send conn (Message.Round_done { worker = w; round; edges });
        maybe_kill kill ~role ~point:Worker_post_report ~round;
        loop ()
    | Some (Message.Commit _) ->
        Probes.bump c_messages;
        loop ()
    | Some Message.Finish ->
        Probes.bump c_messages;
        let metrics = Probes.marshal_snapshot (Probes.snapshot ()) in
        Net.send conn (Message.Bye { worker = w; metrics })
    | Some (Message.Hello _ | Message.Ready _ | Message.Round_done _
           | Message.Bye _) ->
        loop () (* not addressed to a worker; ignore *)
  in
  try loop () with Net.Closed -> () (* orphaned by a dead coordinator *)

(* ------------------------------------------------------------------ *)
(* Coordinator process                                                 *)

let coordinator_main ?kill ~workers ~seed ~state_dir ~round_timeout_s inst =
  Probes.reset ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let journal, entries0 = Journal.open_ (journal_path state_dir) in
  let digest = run_digest inst ~seed in
  let sched, _report =
    M.Pipeline.solve ~rng:(plan_rng seed) ~jobs:1 ~choose:M.Pipeline.auto_choose
      inst
  in
  let plan_md5 = Digest.to_hex (Digest.string (M.Schedule.to_string sched)) in
  let rounds = M.Schedule.rounds sched in
  let n_rounds = Array.length rounds in
  if entries0 <> [] then Probes.bump c_resumes;
  (match Journal.planned entries0 with
  | Some (d, r, pm) ->
      if d <> digest || r <> n_rounds || pm <> plan_md5 then begin
        Printf.eprintf
          "coordinator: journal does not match this instance/seed/plan\n%!";
        Unix._exit 4
      end
  | None ->
      let verdict = M.Certify.check ~lb:(M.Lower_bounds.lb1 inst) inst sched in
      if not (M.Certify.ok verdict) then begin
        Printf.eprintf "coordinator: plan rejected by certifier:\n%s%!"
          (String.concat ""
             (List.map
                (fun v -> "  " ^ M.Certify.violation_to_string v ^ "\n")
                verdict.M.Certify.violations));
        Unix._exit 5
      end;
      Journal.append journal
        (Journal.Planned { digest; rounds = n_rounds; plan_md5 }));
  let phase0 = Journal.phase_of entries0 in
  if Journal.compare_phase phase0 Journal.Sharded_phase < 0 then
    Journal.append journal (Journal.Sharded { workers });
  (* one-shot kill wiring: only the FIRST spawn of a worker index gets
     the scripted kill, so a respawned worker cannot crash-loop *)
  let first_spawn = Array.make workers true in
  let conns = Array.make workers None in
  let pids = Array.make workers (-1) in
  let respawn_budget = ref ((workers * 4) + 8) in
  let spawn w =
    let wkill =
      match kill with
      | Some { kill_role = `Worker i; _ } when i = w && first_spawn.(w) -> kill
      | _ -> None
    in
    first_spawn.(w) <- false;
    let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> (
        Unix.close parent_fd;
        Array.iter
          (function Some c -> Net.close c | None -> ())
          conns;
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let conn = Net.of_fd child_fd in
        match worker_main ?kill:wkill ~worker:w conn with
        | () -> Unix._exit 0
        | exception Net.Closed -> Unix._exit 0
        | exception e ->
            Printf.eprintf "worker %d: %s\n%!" w (Printexc.to_string e);
            Unix._exit 10)
    | pid -> (
        Unix.close child_fd;
        let conn = Net.of_fd parent_fd in
        pids.(w) <- pid;
        conns.(w) <- Some conn;
        Net.send conn (Message.Hello { worker = w; workers; rounds = n_rounds });
        Probes.bump c_messages;
        match Net.recv ~timeout_s:round_timeout_s conn with
        | Some (Message.Ready { worker }) when worker = w ->
            Probes.bump c_messages
        | Some _ | None ->
            Printf.eprintf "coordinator: worker %d failed its handshake\n%!" w;
            Unix._exit 7
        | exception Net.Closed ->
            Printf.eprintf "coordinator: worker %d died in its handshake\n%!" w;
            Unix._exit 7)
  in
  let conn_of w =
    match conns.(w) with Some c -> c | None -> assert false
  in
  (* A closed connection leaves [conns] at once: the next [spawn]'s
     child closes every [Some] entry, and a closed entry's fd number may
     by then belong to that child's own socketpair end. *)
  let drop w =
    (match conns.(w) with Some c -> Net.close c | None -> ());
    conns.(w) <- None
  in
  let respawn w =
    drop w;
    if pids.(w) > 0 then ignore (waitpid_retry pids.(w));
    decr respawn_budget;
    if !respawn_budget < 0 then begin
      Printf.eprintf "coordinator: worker respawn storm, giving up\n%!";
      Unix._exit 7
    end;
    Probes.bump c_respawns;
    spawn w
  in
  (* send with transparent respawn: a dead worker is revived and the
     message redelivered (all protocol messages are idempotent) *)
  let rec send_to w msg =
    match Net.send (conn_of w) msg with
    | () -> Probes.bump c_messages
    | exception Net.Closed ->
        respawn w;
        send_to w msg
  in
  for w = 0 to workers - 1 do
    spawn w
  done;
  let committed0 = Journal.committed entries0 in
  let start = List.length committed0 in
  for k = start to n_rounds - 1 do
    let t0 = Probes.now_s () in
    if Journal.compare_phase phase0 (Journal.Executing_round k) < 0 then
      Journal.append journal (Journal.Round_started { round = k });
    Probes.bump c_rounds;
    let shards = M.Engine.shard_round inst ~workers rounds.(k) in
    let reported = Array.make workers false in
    let outstanding = ref workers in
    for w = 0 to workers - 1 do
      send_to w (Message.Round_start { round = k; edges = shards.(w) })
    done;
    while !outstanding > 0 do
      let tagged =
        List.filter_map
          (fun w -> Option.map (fun c -> (w, c)) conns.(w))
          (List.init workers Fun.id)
      in
      match Net.next ~timeout_s:round_timeout_s tagged with
      | Net.Msg (w, Message.Round_done { worker; round; edges }) ->
          Probes.bump c_messages;
          if worker = w && round = k && not reported.(w) then begin
            (* a shard is all-or-nothing: partial completion means the
               worker died mid-shard and never reported *)
            if List.sort compare edges <> List.sort compare shards.(w) then begin
              Printf.eprintf
                "coordinator: worker %d reported a wrong shard for round %d\n%!"
                w k;
              Unix._exit 6
            end;
            reported.(w) <- true;
            decr outstanding
          end
      | Net.Msg (_, _) -> Probes.bump c_messages (* stray frame; ignore *)
      | Net.Eof w ->
          respawn w;
          if not reported.(w) then
            send_to w (Message.Round_start { round = k; edges = shards.(w) })
      | Net.Timeout ->
          Printf.eprintf "coordinator: round %d stalled (timeout)\n%!" k;
          Unix._exit 7
    done;
    maybe_kill kill ~role:`Coordinator ~point:Coord_pre_commit ~round:k;
    (* the barrier: this fsync makes round k durable, in plan order *)
    Journal.append journal
      (Journal.Round_committed { round = k; edges = rounds.(k) });
    Probes.bump c_commits;
    maybe_kill kill ~role:`Coordinator ~point:Coord_post_commit ~round:k;
    for w = 0 to workers - 1 do
      send_to w (Message.Commit { round = k })
    done;
    Probes.record t_round (Probes.now_s () -. t0)
  done;
  if Journal.compare_phase phase0 Journal.All_certified < 0 then
    Journal.append journal Journal.Certified;
  (* farewell: collect each worker's probe snapshot so the metrics
     file covers the whole process tree *)
  for w = 0 to workers - 1 do
    (try
       send_to w Message.Finish;
       let rec collect () =
         match Net.recv ~timeout_s:round_timeout_s (conn_of w) with
         | Some (Message.Bye { metrics; _ }) -> (
             Probes.bump c_messages;
             match Probes.unmarshal_snapshot metrics with
             | Some snap -> Probes.absorb snap
             | None -> ())
         | Some _ ->
             Probes.bump c_messages;
             collect ()
         | None -> ()
       in
       collect ()
     with Net.Closed -> ());
    drop w;
    if pids.(w) > 0 then ignore (waitpid_retry pids.(w))
  done;
  let oc = open_out (metrics_path state_dir) in
  output_string oc (Probes.marshal_snapshot (Probes.snapshot ()));
  output_char oc '\n';
  close_out oc;
  Journal.close journal

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let absorb_metrics state_dir =
  let path = metrics_path state_dir in
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match Probes.unmarshal_snapshot line with
    | None -> 0
    | Some snap ->
        Probes.absorb snap;
        Option.value ~default:0 (List.assoc_opt "dist.respawns" snap.counters)
  end

let run ?kill ?(round_timeout_s = 30.0) ~workers ~seed ~state_dir inst =
  if workers < 1 then invalid_arg "Runner.run: workers must be >= 1";
  (try Unix.mkdir state_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let jpath = journal_path state_dir in
  let entries0 = Journal.replay jpath in
  let digest = run_digest inst ~seed in
  match Journal.planned entries0 with
  | Some (d, _, _) when d <> digest ->
      Error
        (Printf.sprintf
           "state dir %s holds the journal of a different run (instance/seed \
            mismatch)"
           state_dir)
  | _ -> (
      let resumed = entries0 <> [] in
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 -> (
          match
            coordinator_main ?kill ~workers ~seed ~state_dir ~round_timeout_s
              inst
          with
          | () -> Unix._exit 0
          | exception e ->
              Printf.eprintf "coordinator: %s\n%!" (Printexc.to_string e);
              Unix._exit 9)
      | pid -> (
          let status = waitpid_retry pid in
          let entries = Journal.replay jpath in
          match status with
          | Unix.WEXITED 0 -> (
              let respawns = absorb_metrics state_dir in
              match Journal.planned entries with
              | None ->
                  Error "journal holds no plan record after a successful run"
              | Some (_, n_rounds, _) ->
                  let committed = Journal.committed entries in
                  let log =
                    List.map
                      (fun (_, edges) ->
                        {
                          M.Certify.attempted = edges;
                          completed = edges;
                          crashed = [];
                          slowed = [];
                        })
                      committed
                  in
                  let execution =
                    {
                      M.Certify.instance = inst;
                      log;
                      idle_rounds = 0;
                      quarantined = [];
                      replan_bounds = [ n_rounds ];
                    }
                  in
                  Ok
                    (Completed
                       {
                         execution;
                         rounds = List.length committed;
                         workers;
                         respawns;
                         skipped = List.length (Journal.committed entries0);
                         resumed;
                       }))
          | Unix.WEXITED 4 ->
              Error "journal does not match this instance/seed/plan"
          | Unix.WEXITED 5 -> Error "plan rejected by certifier"
          | Unix.WEXITED 6 ->
              Error "protocol error: a worker reported a wrong shard"
          | Unix.WEXITED 7 ->
              Error "protocol stall: handshake/timeout/respawn storm"
          | Unix.WEXITED n ->
              Error (Printf.sprintf "coordinator exited with status %d" n)
          | Unix.WSIGNALED s ->
              Ok (Interrupted { phase = Journal.phase_of entries; signal = s })
          | Unix.WSTOPPED _ -> Error "coordinator stopped unexpectedly"))
