(* migrate — command-line front end for the heterogeneous data
   migration library.

   Subcommands:
     generate   write a random migration instance to stdout/file
     bounds     print the lower bounds of an instance
     plan       compute and print a migration schedule
     compare    run every algorithm on an instance and tabulate
     simulate   run a full cluster scenario through the execution engine

   Instances use the text format of [Migration.Instance.to_string]:
   "n m" header, a line of n capacities, then m "src dst" edge lines. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared helpers *)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Enable debug logging of the planners and simulator." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_instance path =
  let contents =
    match path with
    | "-" ->
        let buf = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel buf stdin 1
           done
         with End_of_file -> ());
        Buffer.contents buf
    | path -> (
        try read_file path
        with Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2)
  in
  try Migration.Instance.of_string contents
  with Failure msg | Invalid_argument msg ->
    Printf.eprintf "error: not a valid instance: %s\n" msg;
    exit 2

let rng_of_seed seed = Random.State.make [| seed; 0xda7a |]

let seed_arg =
  let doc = "Random seed (reproducible runs)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel solving (default: the machine's \
     recommended domain count).  Output is bit-identical for every \
     value; 1 runs fully sequential with no domains spawned."
  in
  Arg.(
    value
    & opt int (Exec.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let instance_arg =
  let doc = "Instance file ('-' for stdin)." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"INSTANCE" ~doc)

let solver_name (s : Migration.Solver.t) = s.name

(* generated from [Pipeline.solvers], so it cannot go stale; the
   default, auto, comes first *)
let algorithm_names =
  let auto = Migration.Pipeline.auto in
  List.map solver_name
    (auto :: List.filter (fun s -> s != auto) Migration.Pipeline.solvers)

let algorithm_conv =
  let parse s =
    match Migration.Pipeline.find s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown algorithm %S (%s)" s
               (String.concat "|" algorithm_names)))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (solver_name s))

let algorithm_arg =
  let doc =
    Printf.sprintf "Scheduling algorithm: %s."
      (String.concat ", " algorithm_names)
  in
  Arg.(
    value
    & opt algorithm_conv Migration.Pipeline.auto
    & info [ "a"; "algorithm" ] ~docv:"ALG" ~doc)

(* A planner the user picked that cannot plan the instance is a usage
   error: exit 2 before planning, rather than let the planner raise. *)
let require_can_solve (alg : Migration.Solver.t) inst ~what =
  if not (alg.can_solve inst) then begin
    Printf.eprintf "error: planner %s cannot plan %s\n" alg.name what;
    exit 2
  end

(* Structured instrumentation (Migration.Instr): reset before planning,
   report after.  Counters are registered at module load, so the JSON
   key set is stable run to run (zero, never missing). *)
let metrics_arg =
  let doc = "Print the planner metrics table (counters and phase timings)." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_json_arg =
  let doc = "Print the planner metrics as a single JSON object." in
  Arg.(value & flag & info [ "metrics-json" ] ~doc)

let report_metrics ~metrics ~metrics_json =
  let snap = Migration.Instr.snapshot () in
  if metrics then Format.printf "@.%a@." Migration.Instr.pp_table snap;
  if metrics_json then print_endline (Migration.Instr.to_json snap)

(* ------------------------------------------------------------------ *)
(* generate *)

(* a proper converter so a typo'd family name fails at parse time and
   the error lists every valid family *)
let family_conv =
  let parse s =
    match Gen.family_of_string s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown family %S (expected one of %s)" s
               (String.concat "|" Gen.names)))
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf f.Gen.name)

let generate kind family size n m caps seed =
  let inst =
    match family with
    | Some fam -> Gen.instance fam ~seed ~size
    | None ->
        let rng = rng_of_seed seed in
        let g =
          match kind with
          | "gnm" -> Mgraph.Graph_gen.gnm rng ~n ~m
          | "power-law" -> Mgraph.Graph_gen.power_law rng ~n ~m
          | "clustered" ->
              let k = max 2 (n / 8) in
              Mgraph.Graph_gen.clustered rng ~k ~size:(max 2 (n / k))
                ~intra:(m / (k + 1)) ~inter:(m / (k + 1))
          | "triangle" -> Mgraph.Graph_gen.triangle_stack (max 1 (m / 3))
          | "fig1" -> Mgraph.Graph_gen.example_fig1 ()
          | other ->
              Printf.eprintf "unknown kind %S\n" other;
              exit 2
        in
        Migration.Instance.random_caps rng g ~choices:caps
  in
  print_string (Migration.Instance.to_string inst)

let size_arg =
  let doc = "Size parameter of a fuzz family (scales disks and items)." in
  Arg.(value & opt int 12 & info [ "size" ] ~docv:"SIZE" ~doc)

let family_arg =
  (* the list is generated, not typed out, so it cannot go stale when
     a family is added *)
  let doc =
    Printf.sprintf
      "Fuzz-family generator (%s); overrides $(b,--kind).  The (family, \
       seed, size) triple reproduces the exact instance a fuzz failure \
       names."
      (String.concat ", " Gen.names)
  in
  Arg.(
    value & opt (some family_conv) None & info [ "family" ] ~docv:"FAMILY" ~doc)

let generate_cmd =
  let kind =
    let doc = "Graph family: gnm, power-law, clustered, triangle, fig1." in
    Arg.(value & opt string "gnm" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n =
    let doc = "Number of disks." in
    Arg.(value & opt int 16 & info [ "disks" ] ~docv:"N" ~doc)
  in
  let m =
    let doc = "Number of items (edges)." in
    Arg.(value & opt int 100 & info [ "items" ] ~docv:"M" ~doc)
  in
  let caps =
    let doc = "Transfer-constraint menu, sampled per disk." in
    Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "caps" ] ~docv:"C1,C2,..." ~doc)
  in
  let doc = "Generate a random migration instance." in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(
      const generate $ kind $ family_arg $ size_arg $ n $ m $ caps $ seed_arg)

(* ------------------------------------------------------------------ *)
(* bounds *)

let bounds path seed =
  let inst = read_instance path in
  let rng = rng_of_seed seed in
  Printf.printf "disks:       %d\n" (Migration.Instance.n_disks inst);
  Printf.printf "items:       %d\n" (Migration.Instance.n_items inst);
  Printf.printf "LB1:         %d\n" (Migration.Lower_bounds.lb1 inst);
  Printf.printf "LB2 (gamma): %d\n" (Migration.Lower_bounds.lb2 ~rng inst);
  Printf.printf "lower bound: %d\n" (Migration.Lower_bounds.lower_bound ~rng inst)

let bounds_cmd =
  let doc = "Print the paper's lower bounds for an instance." in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const bounds $ instance_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* plan *)

let plan path alg objective seed jobs quiet save metrics metrics_json verbose =
  setup_logs verbose;
  let inst = read_instance path in
  require_can_solve alg inst ~what:"this instance";
  let rng = rng_of_seed seed in
  Migration.Instr.reset ();
  let sched = Migration.Solver.solve ~rng ~jobs alg inst in
  (match Migration.Schedule.validate inst sched with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "internal error: invalid schedule: %s\n" msg;
      exit 1);
  (* group-ct: permute rounds so groups complete in priority order —
     the makespan (and hence every line below) is unchanged *)
  let sched =
    match objective with
    | `Makespan -> sched
    | `Group_ct -> Migration.Objective.reorder inst sched
  in
  Printf.printf "algorithm:   %s\n" (solver_name alg);
  Printf.printf "objective:   %s\n"
    (match objective with `Makespan -> "makespan" | `Group_ct -> "group-ct");
  Printf.printf "rounds:      %d\n" (Migration.Schedule.n_rounds sched);
  Printf.printf "lower bound: %d\n"
    (Migration.Lower_bounds.lower_bound ~rng inst);
  Printf.printf "utilization: %.2f\n"
    (Migration.Schedule.utilization inst sched);
  (match objective with
  | `Makespan -> ()
  | `Group_ct ->
      let module O = Migration.Objective in
      let completions = O.completion_rounds inst sched in
      Array.iter
        (fun g ->
          Printf.printf "group %d:     w=%d C=%d\n" g
            (Migration.Instance.weight inst g)
            completions.(g))
        (O.priority_order inst);
      Printf.printf "weighted sum: %d\n" (O.weighted_sum inst sched);
      let p50, p99 = O.completion_percentiles inst sched in
      Printf.printf "completion:  p50=%d p99=%d rounds\n" p50 p99;
      O.observe inst sched;
      (* audit our own claim with the independent certifier, exactly
         as the fuzz loop would *)
      let claim =
        O.claim ~solver:(solver_name alg) ~reordered:true inst sched
      in
      let v = Migration.Certify.check_sla inst sched claim in
      Format.printf "%a@." Migration.Certify.pp_sla v;
      if not (Migration.Certify.sla_ok v) then exit 1);
  (match save with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Migration.Schedule.to_string sched);
      close_out oc;
      Printf.printf "saved to %s\n" path);
  if not quiet then Format.printf "%a@." Migration.Schedule.pp sched;
  report_metrics ~metrics ~metrics_json

let objective_arg =
  let doc =
    "Planning objective: $(b,makespan) (the paper's rounds-to-finish) or \
     $(b,group-ct) (SLA view: apply the priority reordering post-pass, \
     report per-group completion rounds, the weighted sum w_g*C_g and \
     p50/p99, and audit the claim with the independent SLA certifier)."
  in
  Arg.(
    value
    & opt (enum [ ("makespan", `Makespan); ("group-ct", `Group_ct) ]) `Makespan
    & info [ "objective" ] ~docv:"OBJ" ~doc)

let plan_cmd =
  let quiet =
    let doc = "Suppress the round-by-round listing." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let save =
    let doc = "Write the schedule to a file (see the 'check' command)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let doc = "Compute a migration schedule for an instance." in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(
      const plan $ instance_arg $ algorithm_arg $ objective_arg $ seed_arg
      $ jobs_arg $ quiet $ save $ metrics_arg $ metrics_json_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_algs path seed metrics metrics_json =
  let inst = read_instance path in
  let rng () = rng_of_seed seed in
  Migration.Instr.reset ();
  let lb = Migration.Lower_bounds.lower_bound ~rng:(rng ()) inst in
  Printf.printf "%d disks, %d items, lower bound %d\n\n"
    (Migration.Instance.n_disks inst)
    (Migration.Instance.n_items inst)
    lb;
  Printf.printf "%-10s %8s %8s %12s\n" "algorithm" "rounds" "vs LB" "utilization";
  List.iter
    (fun (s : Migration.Solver.t) ->
      if not (s.can_solve inst) then Printf.printf "%-10s %8s\n" s.name "n/a"
      else
        let sched = Migration.Solver.solve ~rng:(rng ()) s inst in
        let r = Migration.Schedule.n_rounds sched in
        Printf.printf "%-10s %8d %7.2fx %12.2f\n" s.name r
          (if lb = 0 then 1.0 else float_of_int r /. float_of_int lb)
          (Migration.Schedule.utilization inst sched))
    Migration.Solver.[ even_opt; hetero; saia; greedy ];
  (* the pipeline run: decompose, pick a solver per component, merge *)
  let sched, report =
    Migration.Pipeline.solve ~rng:(rng ())
      ~choose:Migration.Pipeline.auto_choose inst
  in
  Printf.printf "\npipeline auto: %d rounds over %d component(s)\n"
    (Migration.Schedule.n_rounds sched)
    report.Migration.Pipeline.components;
  List.iter
    (fun s ->
      Printf.printf "  component %d: %d disks, %d items -> %s (%d rounds)\n"
        s.Migration.Pipeline.component s.Migration.Pipeline.n_disks
        s.Migration.Pipeline.n_items s.Migration.Pipeline.solver
        s.Migration.Pipeline.rounds)
    report.Migration.Pipeline.selections;
  report_metrics ~metrics ~metrics_json

let compare_cmd =
  let doc = "Run every algorithm on an instance and tabulate the results." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const compare_algs $ instance_arg $ seed_arg $ metrics_arg
      $ metrics_json_arg)

(* ------------------------------------------------------------------ *)
(* simulate *)

(* --inject-tamper: corrupt the flight recorder before certification
   (drop the first completed transfer), so the test suite can prove
   the certifier rejects a doctored log and the exit code goes
   non-zero. *)
let tamper_execution (x : Migration.Certify.execution) =
  let rec drop_first = function
    | ({ Migration.Certify.completed = _ :: rest; _ } as r) :: tl ->
        { r with Migration.Certify.completed = rest } :: tl
    | r :: tl -> r :: drop_first tl
    | [] -> []
  in
  { x with Migration.Certify.log = drop_first x.Migration.Certify.log }

(* in-process mode: drive the reconfiguration through the closed-loop
   execution engine under the seeded fault policy (rate 0 and no
   events is fault-free), then certify the executed rounds
   independently; the exit code is the certifier's verdict *)
let simulate_engine sc ~alg ~fault_rate ~crashes ~slows ~seed ~jobs ~trace
    ~inject_tamper ~metrics ~metrics_json =
  let cluster = sc.Workloads.Scenarios.cluster in
  let target = sc.Workloads.Scenarios.target in
  let job = Storsim.Cluster.plan_reconfiguration cluster ~target in
  let inst = job.Storsim.Cluster.instance in
  (* calamities land inside the fault-free horizon so they actually
     bite; LB1 is a cheap deterministic proxy for it *)
  let horizon = max 1 (Migration.Lower_bounds.lb1 inst) in
  let crash_events, slow_events =
    Storsim.Fault.random_calamities
      (rng_of_seed (seed + 0x0ca1))
      ~n_disks:(Migration.Instance.n_disks inst)
      ~horizon ~crashes ~slowdowns:slows
  in
  require_can_solve alg inst ~what:"this scenario";
  (* the engine replans a slowed disk with its constraint halved *)
  if slow_events <> [] then begin
    let caps = Migration.Instance.caps inst in
    List.iter (fun (_, d) -> caps.(d) <- max 1 (caps.(d) / 2)) slow_events;
    require_can_solve alg
      (Migration.Instance.create (Migration.Instance.graph inst) ~caps)
      ~what:"this scenario once its --slow disks' constraints are halved"
  end;
  let policy =
    Storsim.Fault.engine_policy ~fault_rate ~crashes:crash_events
      ~slowdowns:slow_events ~seed ()
  in
  Migration.Instr.reset ();
  match
    Storsim.Simulator.run ~rng:(rng_of_seed seed) ~jobs
      ~choose:(Migration.Pipeline.choose_of alg) ~policy cluster ~target
  with
  | exception Migration.Engine.Plan_rejected msg ->
      Printf.eprintf "error: replan rejected mid-flight: %s\n" msg;
      exit 1
  | o, report ->
      let x = o.Migration.Engine.execution in
      if trace then
        print_string
          (Storsim.Trace.render
             (Storsim.Trace.capture_execution
                ~disks:(Storsim.Cluster.disks cluster) job x));
      Printf.printf "scenario:  %s\n" sc.Workloads.Scenarios.name;
      (* a faulty run reports what the engine did about the faults; a
         fault-free one what the migration cost *)
      if fault_rate > 0.0 || crashes > 0 || slows > 0 || inject_tamper then begin
        Printf.printf "policy:    %s\n" policy.Migration.Engine.policy_name;
        Format.printf "%a@." Migration.Engine.pp_outcome o
      end
      else begin
        Printf.printf "algorithm: %s\n" (solver_name alg);
        Format.printf "%a@." Storsim.Simulator.pp_report report
      end;
      let v =
        Migration.Certify.certify_execution
          (if inject_tamper then tamper_execution x else x)
      in
      Format.printf "%a@." Migration.Certify.pp_exec v;
      report_metrics ~metrics ~metrics_json;
      if not (Migration.Certify.exec_ok v) then exit 1

(* distributed mode: fork a coordinator and N worker processes, drive
   the certified plan round by round over the protocol with a durable
   journal in --state-dir, then certify the reconstructed flight log
   AND require it byte-identical to the in-process engine's *)
let parse_kill_spec s =
  let open Distproto.Runner in
  match String.split_on_char ':' s with
  | [ role; point; round ] -> (
      match int_of_string_opt round with
      | None -> None
      | Some kill_round -> (
          let mk kill_role kill_point =
            Some { kill_role; kill_point; kill_round }
          in
          match (role, point) with
          | "coord", "pre-commit" -> mk `Coordinator Coord_pre_commit
          | "coord", "post-commit" -> mk `Coordinator Coord_post_commit
          | w, _ when String.length w > 6 && String.sub w 0 6 = "worker" -> (
              match
                int_of_string_opt (String.sub w 6 (String.length w - 6))
              with
              | Some i when i >= 0 -> (
                  match point with
                  | "pre-round" -> mk (`Worker i) Worker_pre_round
                  | "mid-round" -> mk (`Worker i) Worker_mid_round
                  | "post-report" -> mk (`Worker i) Worker_post_report
                  | _ -> None)
              | Some _ | None -> None)
          | _ -> None))
  | _ -> None

let simulate_distributed sc ~workers ~seed ~state_dir ~kill ~metrics
    ~metrics_json =
  let job =
    Storsim.Cluster.plan_reconfiguration sc.Workloads.Scenarios.cluster
      ~target:sc.Workloads.Scenarios.target
  in
  let inst = job.Storsim.Cluster.instance in
  Migration.Instr.reset ();
  Printf.printf "scenario:  %s\n" sc.Workloads.Scenarios.name;
  Printf.printf "mode:      distributed, %d workers\n" workers;
  match Distproto.Runner.run ?kill ~workers ~seed ~state_dir inst with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | Ok (Distproto.Runner.Interrupted { phase; signal }) ->
      Printf.printf "interrupted: coordinator killed (%s)\n"
        (if signal = Sys.sigkill then "SIGKILL"
         else Printf.sprintf "signal %d" signal);
      Printf.printf "journal:   %s\n" (Distproto.Journal.phase_to_string phase);
      Printf.printf "resume:    re-run the same command to continue\n";
      exit 137
  | Ok (Distproto.Runner.Completed o) ->
      Printf.printf "rounds:    %d committed, %d skipped (already durable)%s\n"
        o.Distproto.Runner.rounds o.Distproto.Runner.skipped
        (if o.Distproto.Runner.resumed then ", resumed from journal" else "");
      Printf.printf "workers:   %d, respawns: %d\n" o.Distproto.Runner.workers
        o.Distproto.Runner.respawns;
      let v =
        Migration.Certify.certify_execution o.Distproto.Runner.execution
      in
      Format.printf "%a@." Migration.Certify.pp_exec v;
      let reference =
        Migration.Engine.run
          ~rng:(Distproto.Runner.plan_rng seed)
          ~policy:Migration.Engine.no_faults inst
      in
      let identical =
        Migration.Certify.execution_to_string o.Distproto.Runner.execution
        = Migration.Certify.execution_to_string
            reference.Migration.Engine.execution
      in
      Printf.printf "flight log identical to in-process engine: %s\n"
        (if identical then "yes" else "NO");
      report_metrics ~metrics ~metrics_json;
      if (not (Migration.Certify.exec_ok v)) || not identical then exit 1

let simulate scenario n_disks n_items alg seed jobs verbose trace fault_rate
    crashes slows inject_tamper distributed state_dir kill_at metrics
    metrics_json =
  setup_logs verbose;
  if fault_rate < 0.0 || fault_rate >= 1.0 then begin
    Printf.eprintf "error: --fault-rate must be in [0, 1)\n";
    exit 2
  end;
  if crashes < 0 || slows < 0 then begin
    Printf.eprintf "error: --crash/--slow counts must be >= 0\n";
    exit 2
  end;
  if distributed = None && (state_dir <> None || kill_at <> None) then begin
    Printf.eprintf
      "error: --state-dir/--kill-at only make sense with --distributed\n";
    exit 2
  end;
  (match distributed with
  | Some n when n < 1 ->
      Printf.eprintf "error: --distributed needs at least 1 worker\n";
      exit 2
  | Some _
    when fault_rate > 0.0 || crashes > 0 || slows > 0 || inject_tamper ->
      Printf.eprintf
        "error: --distributed executes fault-free; fault options are not \
         supported\n";
      exit 2
  | Some _ when alg != Migration.Pipeline.auto ->
      Printf.eprintf
        "error: --distributed plans with auto; --algorithm %s is not \
         supported\n"
        (solver_name alg);
      exit 2
  | Some _ | None -> ());
  let rng = rng_of_seed seed in
  let sc =
    match scenario with
    | "rebalance" -> Workloads.Scenarios.rebalance rng ~n_disks ~n_items ()
    | "add" ->
        Workloads.Scenarios.disk_addition rng ~n_old:(max 1 (n_disks * 3 / 4))
          ~n_new:(max 1 (n_disks / 4)) ~n_items ()
    | "remove" ->
        Workloads.Scenarios.disk_removal rng ~n_disks
          ~n_remove:(max 1 (n_disks / 4)) ~n_items ()
    | "failure" ->
        Workloads.Scenarios.failure_recovery rng ~n_disks ~failed:0 ~n_items ()
    | other ->
        Printf.eprintf "unknown scenario %S (rebalance|add|remove|failure)\n" other;
        exit 2
  in
  match distributed with
  | Some workers ->
      let state_dir =
        match state_dir with
        | Some d -> d
        | None ->
            Printf.eprintf "error: --distributed requires --state-dir\n";
            exit 2
      in
      let kill =
        match kill_at with
        | None -> None
        | Some spec -> (
            match parse_kill_spec spec with
            | Some k -> Some k
            | None ->
                Printf.eprintf
                  "error: bad --kill-at %S (want \
                   coord:pre-commit|post-commit:K or \
                   worker<i>:pre-round|mid-round|post-report:K)\n"
                  spec;
                exit 2)
      in
      simulate_distributed sc ~workers ~seed ~state_dir ~kill ~metrics
        ~metrics_json
  | None ->
      simulate_engine sc ~alg ~fault_rate ~crashes ~slows ~seed ~jobs ~trace
        ~inject_tamper ~metrics ~metrics_json

let simulate_cmd =
  let scenario =
    let doc = "Scenario: rebalance, add, remove or failure." in
    Arg.(value & pos 0 string "rebalance" & info [] ~docv:"SCENARIO" ~doc)
  in
  let n_disks =
    let doc = "Number of disks." in
    Arg.(value & opt int 12 & info [ "disks" ] ~docv:"N" ~doc)
  in
  let n_items =
    let doc = "Number of items." in
    Arg.(value & opt int 400 & info [ "items" ] ~docv:"M" ~doc)
  in
  let trace =
    let doc =
      "Print a per-disk Gantt trace of the executed rounds first."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let fault_rate =
    let doc =
      "Per-transfer failure probability in [0, 1).  Every in-process run \
       goes through the closed-loop simulate/detect/re-plan engine and \
       has every executed round independently certified (non-zero exit \
       when certification fails); any fault option switches the report \
       from the cost summary to the engine's fault outcome."
    in
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let crashes =
    let doc = "Disks to crash permanently at seeded random rounds." in
    Arg.(value & opt int 0 & info [ "crash" ] ~docv:"N" ~doc)
  in
  let slows =
    let doc = "Disks to degrade (transfer constraint halved) at seeded rounds." in
    Arg.(value & opt int 0 & info [ "slow" ] ~docv:"N" ~doc)
  in
  let inject_tamper =
    let doc =
      "Corrupt the execution log before certification (testing hook: proves \
       the certifier catches a doctored log and exits non-zero)."
    in
    Arg.(value & flag & info [ "inject-tamper" ] ~doc)
  in
  let distributed =
    let doc =
      "Execute the certified plan across $(docv) worker processes under a \
       durable coordinator: rounds are sharded by disk range, committed to \
       an fsync'd journal in $(b,--state-dir), and the run survives \
       $(b,kill -9) of any worker (respawned in-flight) or of the \
       coordinator (re-run the command to resume).  The reconstructed \
       flight log must certify and byte-match the in-process engine's."
    in
    Arg.(
      value & opt (some int) None & info [ "distributed" ] ~docv:"N" ~doc)
  in
  let state_dir =
    let doc =
      "Directory holding the distributed run's journal and metrics \
       (created if missing; required with $(b,--distributed))."
    in
    Arg.(
      value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let kill_at =
    let doc =
      "Crash-injection script (testing hook): SIGKILL the named process at \
       a phase transition of round K.  Formats: \
       $(b,coord:pre-commit:K), $(b,coord:post-commit:K), \
       $(b,worker<i>:pre-round:K), $(b,worker<i>:mid-round:K), \
       $(b,worker<i>:post-report:K).  One-shot: respawns and resumes do \
       not re-arm it."
    in
    Arg.(
      value & opt (some string) None & info [ "kill-at" ] ~docv:"SPEC" ~doc)
  in
  let doc =
    "Run a cluster scenario end-to-end through the fault-tolerant \
     execution engine, injecting faults with \
     $(b,--fault-rate)/$(b,--crash)/$(b,--slow), or with \
     $(b,--distributed) across real coordinator and worker processes with \
     durable, resumable state."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ scenario $ n_disks $ n_items $ algorithm_arg $ seed_arg
      $ jobs_arg $ verbose_arg $ trace $ fault_rate $ crashes $ slows
      $ inject_tamper $ distributed $ state_dir $ kill_at $ metrics_arg
      $ metrics_json_arg)

(* ------------------------------------------------------------------ *)
(* exact *)

let exact path budget =
  let inst = read_instance path in
  match Migration.Exact.solve ~node_budget:budget inst with
  | Migration.Exact.Optimal sched ->
      Printf.printf "optimal rounds: %d\n" (Migration.Schedule.n_rounds sched);
      Format.printf "%a@." Migration.Schedule.pp sched
  | Migration.Exact.Gave_up ->
      Printf.printf "gave up (raise --budget, or shrink the instance)\n";
      exit 1

let exact_cmd =
  let budget =
    let doc = "Branch-and-bound node budget." in
    Arg.(value & opt int 2_000_000 & info [ "budget" ] ~docv:"NODES" ~doc)
  in
  let doc = "Prove the optimal round count of a small instance." in
  Cmd.v (Cmd.info "exact" ~doc) Term.(const exact $ instance_arg $ budget)

(* ------------------------------------------------------------------ *)
(* forward *)

let forward path seed =
  let inst = read_instance path in
  let rng = rng_of_seed seed in
  let plan, stats = Migration.Forwarding.plan_with_helpers ~rng inst in
  (match Migration.Forwarding.validate inst plan with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "internal error: invalid plan: %s\n" msg;
      exit 1);
  Printf.printf "direct rounds:    %d\n" stats.Migration.Forwarding.direct_rounds;
  Printf.printf "forwarded rounds: %d\n" stats.Migration.Forwarding.rounds;
  Printf.printf "items relayed:    %d\n" stats.Migration.Forwarding.relayed;
  Printf.printf "direct bound:     %d\n" stats.Migration.Forwarding.bound_before

let forward_cmd =
  let doc =
    "Plan with forwarding through helper disks (beats the direct-transfer \
     Γ bound when idle disks exist)."
  in
  Cmd.v (Cmd.info "forward" ~doc) Term.(const forward $ instance_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd_impl inst_path sched_path =
  let inst = read_instance inst_path in
  let sched =
    try Migration.Schedule.of_string (read_file sched_path)
    with Failure msg | Invalid_argument msg ->
      Printf.eprintf "error: not a valid schedule: %s\n" msg;
      exit 2
  in
  match Migration.Schedule.validate inst sched with
  | Ok () ->
      Printf.printf "valid: %d rounds, %d items\n"
        (Migration.Schedule.n_rounds sched)
        (Migration.Schedule.n_items sched)
  | Error msg ->
      Printf.printf "INVALID: %s\n" msg;
      exit 1

let check_cmd =
  let sched_path =
    let doc = "Schedule file (as produced by 'plan --save')." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SCHEDULE" ~doc)
  in
  let doc = "Validate a schedule file against an instance." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const check_cmd_impl $ instance_arg $ sched_path)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze path seed =
  let inst = read_instance path in
  let rng = rng_of_seed seed in
  Format.printf "%a@." Migration.Diagnostics.pp
    (Migration.Diagnostics.analyze ~rng inst)

let analyze_cmd =
  let doc = "Summarize an instance: structure, bounds, suggested planner." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze $ instance_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* fuzz *)

(* --inject-broken: a deliberately invalid planner (rounds 0 and 1
   collapsed), used by the test suite to prove the fuzz loop's exit
   code stays non-zero when the violating cell runs on a worker
   domain. *)
let broken_solver =
  {
    Migration.Solver.name = "broken";
    doc = "hetero with rounds 0 and 1 collapsed (deliberately invalid)";
    can_solve = (fun _ -> true);
    solve =
      (fun ctx inst ->
        let sched = Migration.Solver.hetero.Migration.Solver.solve ctx inst in
        let rounds = Migration.Schedule.rounds sched in
        if Array.length rounds < 2 then sched
        else
          Migration.Schedule.of_rounds
            (Array.append
               [| rounds.(0) @ rounds.(1) |]
               (Array.sub rounds 2 (Array.length rounds - 2))));
  }

(* A fuzz table: a header row, then one row of cells per entry.  A
   column is [(name, width)]; a negative width left-aligns it. *)
let print_table columns rows =
  let line cells =
    List.map2
      (fun (_, w) cell ->
        if w < 0 then Printf.sprintf "%-*s" (-w) cell
        else Printf.sprintf "%*s" w cell)
      columns cells
    |> String.concat " " |> print_endline
  in
  line (List.map fst columns);
  List.iter line rows

(* A fuzz failure: its violations, the command that regenerates the
   instance, and the shrunk reproducer, also written into the
   regressions corpus.  test_corpus.ml replays every .inst there
   through the planners and a fault-free service soak, and every
   *_dist.inst through the distributed runner, so the reproducer
   becomes a pinned test. *)
let print_failure ~regress_dir ~replay (f : Gen.Fuzz.failure) =
  Printf.printf "\nFAILURE family=%s seed=%d size=%d solver=%s\n"
    f.Gen.Fuzz.family f.Gen.Fuzz.seed f.Gen.Fuzz.size f.Gen.Fuzz.solver;
  List.iter (Printf.printf "  - %s\n") f.Gen.Fuzz.messages;
  Printf.printf
    "  reproduce: migrate generate --family %s --seed %d --size %d %s\n"
    f.Gen.Fuzz.family f.Gen.Fuzz.seed f.Gen.Fuzz.size
    (replay f.Gen.Fuzz.solver);
  let shrunk = f.Gen.Fuzz.shrunk in
  Printf.printf "  shrunk reproducer (%d disks, %d items):\n"
    (Migration.Instance.n_disks shrunk)
    (Migration.Instance.n_items shrunk);
  String.split_on_char '\n' (Migration.Instance.to_string shrunk)
  |> List.iter (fun line -> if line <> "" then Printf.printf "    %s\n" line);
  Option.iter
    (fun dir ->
      let path =
        Filename.concat dir
          (Printf.sprintf "%s_s%d_%s.inst" f.Gen.Fuzz.family f.Gen.Fuzz.seed
             f.Gen.Fuzz.solver)
      in
      let oc = open_out path in
      output_string oc (Migration.Instance.to_string shrunk);
      close_out oc;
      Printf.printf "  written to %s\n" path)
    regress_dir

(* the differential mode: every applicable planner on every instance *)
let fuzz_differential ~families ~count ~seed ~size ~jobs ~inject_broken =
  let solvers =
    Migration.Pipeline.solvers @ if inject_broken then [ broken_solver ] else []
  in
  let report = Gen.Fuzz.run ~size ~solvers ~jobs ~families ~count ~seed () in
  Printf.printf "fuzz: %d families x %d instances, size %d, seed %d\n\n"
    (List.length families) count size seed;
  (* the gap histogram sits two spaces out *)
  print_table
    [
      ("family", -12);
      ("solver", -12);
      ("runs", 5);
      ("ok", 5);
      ("max-gap", 8);
      (" gap histogram", 0);
    ]
    (List.concat_map
       (fun (fr : Gen.Fuzz.family_report) ->
         List.map
           (fun (s : Gen.Fuzz.solver_stats) ->
             [
               fr.Gen.Fuzz.family;
               s.Gen.Fuzz.solver;
               string_of_int s.Gen.Fuzz.runs;
               string_of_int s.Gen.Fuzz.certified;
               string_of_int s.Gen.Fuzz.max_gap;
               String.concat ""
                 (List.map
                    (fun (g, c) -> Printf.sprintf " %d:%d" g c)
                    s.Gen.Fuzz.gaps);
             ])
           fr.Gen.Fuzz.per_solver)
       report.Gen.Fuzz.family_reports);
  Printf.printf "\ntotal: %d instances, %d solver runs, %d failures\n"
    report.Gen.Fuzz.total_instances report.Gen.Fuzz.total_runs
    (List.length report.Gen.Fuzz.failures);
  report.Gen.Fuzz.failures

(* a soak mode: one drive per instance, its rows summed per family
   into a table whose columns are [max 5 (String.length name)] wide *)
let fuzz_soak ~title ~noun ~verdict ~label ~columns ~drive ~jobs ~families
    ~count ~seed ~size =
  let r =
    Gen.Fuzz.soak ~size ~jobs ~label ~columns ~drive ~families ~count ~seed ()
  in
  print_string title;
  print_table
    (("family", -12)
    :: List.map (fun c -> (c, max 5 (String.length c))) columns)
    (List.map
       (fun (name, row) -> name :: List.map string_of_int row)
       r.Gen.Fuzz.per_family);
  let failures = r.Gen.Fuzz.soak_failures in
  Printf.printf "\ntotal: %d %s, %s: %s, %d failures\n" r.Gen.Fuzz.soaks noun
    verdict
    (if failures = [] then "yes" else "NO")
    (List.length failures);
  failures

(* the service soak drive: the whole streaming daemon on one instance,
   its concatenated flight log certified *)
let service_columns =
  [ "epochs"; "rounds"; "transfers"; "completed"; "abandoned"; "rejected" ]

let service_drive ~fault_rate ~inst ~seed =
  Service.soak ~epoch_rounds:4 ~fault_rate ~inst ~seed ()
  |> Result.map (fun (s : Service.soak_stats) ->
         [
           s.Service.soak_epochs;
           s.Service.soak_rounds;
           s.Service.soak_transfers;
           s.Service.soak_completed;
           s.Service.soak_abandoned;
           s.Service.soak_rejected;
         ])

let temp_state_dir () =
  let f = Filename.temp_file "migrate_dist_" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* the distributed soak drive: the coordinator/worker runner with a
   random scripted kill, resumed until converged; the flight log must
   certify AND byte-match the in-process engine's *)
let dist_columns = [ "runs"; "rounds"; "transfers"; "kills"; "resumes" ]

let dist_drive ~inst ~seed:iseed =
  let rng = rng_of_seed (iseed lxor 0x0d15) in
  let workers = 1 + Random.State.int rng 3 in
  let kill =
    let open Distproto.Runner in
    let kill_round = Random.State.int rng 4 in
    match Random.State.int rng 5 with
    | 0 ->
        {
          kill_role = `Worker (Random.State.int rng workers);
          kill_point = Worker_pre_round;
          kill_round;
        }
    | 1 ->
        {
          kill_role = `Worker (Random.State.int rng workers);
          kill_point = Worker_mid_round;
          kill_round;
        }
    | 2 ->
        {
          kill_role = `Worker (Random.State.int rng workers);
          kill_point = Worker_post_report;
          kill_round;
        }
    | 3 ->
        { kill_role = `Coordinator; kill_point = Coord_pre_commit; kill_round }
    | _ ->
        { kill_role = `Coordinator; kill_point = Coord_post_commit; kill_round }
  in
  let reference =
    Migration.Engine.run
      ~rng:(Distproto.Runner.plan_rng iseed)
      ~policy:Migration.Engine.no_faults inst
  in
  let ref_str =
    Migration.Certify.execution_to_string
      reference.Migration.Engine.execution
  in
  let state_dir = temp_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf state_dir) @@ fun () ->
  let rec converge attempts kill =
    if attempts > 8 then
      Error [ "distributed run did not converge within 8 resumes" ]
    else
      match
        Distproto.Runner.run ?kill ~workers ~seed:iseed ~state_dir inst
      with
      | Error msg -> Error [ msg ]
      | Ok (Distproto.Runner.Interrupted _) ->
          (* kill specs are one-shot: resume without it *)
          converge (attempts + 1) None
      | Ok (Distproto.Runner.Completed o) ->
          let v =
            Migration.Certify.certify_execution o.Distproto.Runner.execution
          in
          let msgs =
            List.map Migration.Certify.exec_violation_to_string
              v.Migration.Certify.exec_violations
          in
          let msgs =
            if
              Migration.Certify.execution_to_string
                o.Distproto.Runner.execution
              = ref_str
            then msgs
            else msgs @ [ "flight log differs from the in-process engine" ]
          in
          if msgs <> [] then Error msgs
          else
            Ok
              [
                attempts + 1;
                o.Distproto.Runner.rounds;
                Migration.Instance.n_items inst;
                1;
                attempts;
              ]
  in
  converge 0 (Some kill)

let fuzz families count seed size jobs fault_rate service distributed
    inject_broken regress_dir metrics metrics_json =
  if fault_rate < 0.0 || fault_rate >= 1.0 then begin
    Printf.eprintf "error: --fault-rate must be in [0, 1)\n";
    exit 2
  end;
  if count < 0 then begin
    Printf.eprintf "error: --count must be non-negative\n";
    exit 2
  end;
  if distributed && service then begin
    Printf.eprintf "error: --distributed and --service are exclusive\n";
    exit 2
  end;
  if distributed && fault_rate > 0.0 then begin
    Printf.eprintf
      "error: --distributed executes fault-free; --fault-rate is not \
       supported\n";
    exit 2
  end;
  if inject_broken && (service || distributed || fault_rate > 0.0) then begin
    Printf.eprintf
      "error: --inject-broken is for the differential mode only (not with \
       --service, --distributed or --fault-rate)\n";
    exit 2
  end;
  (* a family named twice is fuzzed once, where it first appears *)
  let families =
    List.fold_left
      (fun acc f ->
        if List.exists (fun g -> g.Gen.name = f.Gen.name) acc then acc
        else f :: acc)
      [] families
    |> List.rev
  in
  let families = match families with [] -> Gen.all | fams -> fams in
  let nf = List.length families in
  let regress_dir =
    let dir = Option.value regress_dir ~default:"data/regressions" in
    if Sys.file_exists dir then Some dir else None
  in
  Migration.Instr.reset ();
  let soak = fuzz_soak ~families ~count ~seed ~size in
  let soak_replay _ = "> bad.inst" in
  let failures, replay =
    if distributed then
      (* sequential: the drive forks *)
      ( soak ~jobs:1 ~label:"dist" ~columns:dist_columns ~drive:dist_drive
          ~title:
            (Printf.sprintf
               "distributed fuzz: %d families x %d instances, size %d, seed \
                %d\n\n"
               nf count size seed)
          ~noun:"soaks" ~verdict:"all converged & identical",
        soak_replay )
    else if service then
      ( soak ~jobs ~label:"service" ~columns:service_columns
          ~drive:(service_drive ~fault_rate)
          ~title:
            (Printf.sprintf
               "service fuzz: %d families x %d instances, size %d, fault rate \
                %g, seed %d\n\n"
               nf count size fault_rate seed)
          ~noun:"soaks" ~verdict:"all certified",
        soak_replay )
    else if fault_rate > 0.0 then
      let policy ~inst:_ ~seed =
        Storsim.Fault.engine_policy ~fault_rate ~seed ()
      in
      ( soak ~jobs ~label:"engine" ~columns:Gen.Fuzz.engine_columns
          ~drive:(Gen.Fuzz.engine_drive ~policy)
          ~title:
            (Printf.sprintf
               "engine fuzz: %d families x %d instances, size %d, fault rate \
                %g, seed %d\n\n"
               nf count size fault_rate seed)
          ~noun:"executions" ~verdict:"all certified",
        soak_replay )
    else
      ( fuzz_differential ~families ~count ~seed ~size ~jobs ~inject_broken,
        Printf.sprintf "| migrate plan -a %s -" )
  in
  List.iter (print_failure ~regress_dir ~replay) failures;
  report_metrics ~metrics ~metrics_json;
  if failures <> [] then exit 1

let fuzz_cmd =
  let families =
    let doc =
      Printf.sprintf
        "Comma-separated families to fuzz (default: all of %s).  An unknown \
         name is a parse error listing the valid families; a name given \
         twice is fuzzed once."
        (String.concat ", " Gen.names)
    in
    Arg.(
      value
      & opt (list family_conv) []
      & info [ "families" ] ~docv:"F1,F2,..." ~doc)
  in
  let count =
    let doc = "Instances per family (non-negative)." in
    Arg.(value & opt int 20 & info [ "count" ] ~docv:"N" ~doc)
  in
  let regress =
    let doc =
      "Directory for shrunk failing reproducers (default: data/regressions \
       when it exists; the regression corpus test_corpus.ml replays it)."
    in
    Arg.(value & opt (some string) None & info [ "regress-dir" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "Differential fuzz loop: generate seeded instances per family, run every \
     applicable planner through the pipeline, certify each schedule \
     independently, cross-check against the exact solver, and shrink any \
     failure to a minimal reproducer."
  in
  let inject_broken =
    let doc =
      "Differential mode only: also run a deliberately broken \
       planner (testing hook: exercises failure reporting and the non-zero \
       exit code)."
    in
    Arg.(value & flag & info [ "inject-broken" ] ~doc)
  in
  let fault_rate =
    let doc =
      "Switch to fault-injection fuzzing: drive the execution engine over \
       every generated instance with this per-transfer failure probability, \
       certify each execution end to end, and shrink failures to minimal \
       reproducers."
    in
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let service =
    let doc =
      "Switch to service soak fuzzing: drive the full streaming service \
       (admission, epoching, warm re-planning, faulted execution) over every \
       generated instance, certify each concatenated flight log with the \
       service certifier, and shrink failures to minimal reproducers.  \
       Combines with $(b,--fault-rate)."
    in
    Arg.(value & flag & info [ "service" ] ~doc)
  in
  let distributed =
    let doc =
      "Switch to distributed crash-recovery fuzzing: run the \
       coordinator/worker runner over every generated instance with a \
       seeded random kill -9 (role x phase x round), resume until \
       converged, certify the flight log, and require it byte-identical \
       to the in-process engine's.  Failures are shrunk into \
       data/regressions/<family>_s<seed>_dist.inst reproducers."
    in
    Arg.(value & flag & info [ "distributed" ] ~doc)
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ families $ count $ seed_arg $ size_arg $ jobs_arg
      $ fault_rate $ service $ distributed $ inject_broken $ regress
      $ metrics_arg $ metrics_json_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

(* --inject-tamper: corrupt the concatenated flight log before
   certification (testing hook, mirrors --inject-broken above): the
   first completed transfer is duplicated in its round, breaking
   exactly-once; a run with no transfers gets its reported final
   placement flipped instead.  Either way certify_service must reject
   and the exit code goes non-zero. *)
let tamper_execution (x : Migration.Certify.service_execution) =
  let open Migration.Certify in
  let tampered = ref false in
  let epochs =
    List.map
      (fun ep ->
        if !tampered then ep
        else
          let log =
            List.map
              (fun (r : exec_round) ->
                if (not !tampered) && r.completed <> [] then begin
                  tampered := true;
                  { r with completed = List.hd r.completed :: r.completed }
                end
                else r)
              ep.se_log
          in
          { ep with se_log = log })
      x.svc_epochs
  in
  if !tampered then { x with svc_epochs = epochs }
  else { x with svc_final = Array.map (fun d -> d + 1) x.svc_final }

let serve trace_path epoch_rounds fault_rate seed jobs inject_tamper metrics
    metrics_json =
  if epoch_rounds < 1 then begin
    Printf.eprintf "error: --epoch-rounds must be >= 1\n";
    exit 2
  end;
  if fault_rate < 0.0 || fault_rate >= 1.0 then begin
    Printf.eprintf "error: --fault-rate must be in [0, 1)\n";
    exit 2
  end;
  let contents =
    try read_file trace_path
    with Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  let lines = String.split_on_char '\n' contents in
  match Service.parse_trace lines with
  | Error msg ->
      Printf.eprintf "error: bad trace: %s\n" msg;
      exit 2
  | Ok (cluster, requests) ->
      Migration.Instr.reset ();
      let policy ~epoch =
        Storsim.Fault.engine_policy ~fault_rate ~seed:((seed * 31) + epoch) ()
      in
      let report =
        Service.run ~jobs ~epoch_rounds ~rng_seed:seed ~policy cluster
          ~requests ()
      in
      Format.printf "%a@.%a@." Service.pp_report report Service.pp_statuses
        report;
      let execution =
        if inject_tamper then tamper_execution report.Service.execution
        else report.Service.execution
      in
      let v = Migration.Certify.certify_service execution in
      Format.printf "%a@." Migration.Certify.pp_service v;
      report_metrics ~metrics ~metrics_json;
      if report.Service.truncated then begin
        Printf.eprintf "error: run truncated with work left\n";
        exit 1
      end;
      if not (Migration.Certify.service_ok v) then exit 1

let serve_cmd =
  let trace =
    let doc =
      "Trace file: an 'init ...' line followed by 'at R ...' trigger lines \
       (see the Service library docs for the format)."
    in
    Arg.(
      required & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let epoch_rounds =
    let doc = "Executed rounds per epoch before re-admitting arrivals." in
    Arg.(value & opt int 16 & info [ "epoch-rounds" ] ~docv:"N" ~doc)
  in
  let fault_rate =
    let doc =
      "Per-transfer failure probability injected into every epoch's \
       execution."
    in
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let inject_tamper =
    let doc =
      "Corrupt the flight log before certification (testing hook: proves \
       the certifier rejects a tampered log with a non-zero exit)."
    in
    Arg.(value & flag & info [ "inject-tamper" ] ~doc)
  in
  let doc =
    "Run the streaming migration service over a trigger trace: \
     admission-control each trigger, batch arrivals into bounded epochs, \
     warm-replan only dirtied components, execute under the fault policy, \
     and certify the concatenated flight log end to end."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ trace $ epoch_rounds $ fault_rate $ seed_arg $ jobs_arg
      $ inject_tamper $ metrics_arg $ metrics_json_arg)

(* ------------------------------------------------------------------ *)
(* dot *)

let dot path =
  let inst = read_instance path in
  print_string (Mgraph.Graph_io.to_dot (Migration.Instance.graph inst))

let dot_cmd =
  let doc = "Export the transfer graph as GraphViz dot." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const dot $ instance_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "heterogeneous data migration planner (ICDCS 2011 reproduction)" in
  let info = Cmd.info "migrate" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; bounds_cmd; plan_cmd; compare_cmd; simulate_cmd;
            exact_cmd; forward_cmd; check_cmd; dot_cmd; analyze_cmd; fuzz_cmd;
            serve_cmd;
          ]))
