(* The four workloads: how each builds its inputs from the seed, what
   one timed repetition calls, how its output is certified, and which
   per-layer numbers it reads off a traced repetition. *)

module M = Migration

(* The planner's worker-domain budget: the CLI's default, capped at 2
   so the benchmark never asks for more domains than a 2-core machine
   has. *)
let jobs = min 2 (Exec.default_jobs ())

(* The streaming workload's requests. *)
type requests = {
  p50 : int;  (** latency in rounds, over completed requests *)
  p99 : int;
  completed : int;
  submitted : int;
  refused : int;  (** rejected or abandoned *)
}

type rep = {
  wall_s : float;  (** the workload's timed operation *)
  transfers : int;  (** transfers in the certified output *)
  rounds : int;  (** makespan of the certified output *)
  floor : int;  (** rounds no schedule of this input can beat *)
  requests : requests option;
  calls : (string * float) list;  (** seconds in each public call *)
  errors : string list;  (** empty iff every output certified *)
}

type prepared = {
  rep : unit -> rep;
  layers : rep -> M.Instr.snapshot -> (string * float) list;
      (** per-layer numbers of one traced repetition *)
  after : call_s:(string -> float) -> (string * float) list * string list;
      (** once every repetition of a traced run is done: the isolated
          calls and cross-[jobs] checks, given the median seconds per
          call; returns per-layer numbers and errors *)
}

type t = {
  name : string;
  why : string;
  salt : int;
  setup : int -> prepared;  (** from the salted seed *)
}

let failed ~wall_s msg =
  {
    wall_s;
    transfers = 0;
    rounds = 0;
    floor = 1;
    requests = None;
    calls = [];
    errors = [ msg ];
  }

let rng_of seed = Random.State.make [| seed; 0x9e7f |]

let timer (s : M.Instr.snapshot) name =
  match List.assoc_opt name s.timers with
  | Some t -> (t.total_s, t.count)
  | None -> (0.0, 0)

let timer_s s name = fst (timer s name)

let count (s : M.Instr.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name s.counters))

let call_s rep name = Option.value ~default:0.0 (List.assoc_opt name rep.calls)

let phase_timers =
  [
    "hetero.phase1"; "hetero.phase2"; "hetero.refine"; "even_opt.pad_orient";
    "even_opt.decompose"; "saia.split"; "saia.shannon"; "orbits.engine";
  ]

(* The planner's layers, read off the Instr cells: the same names on
   every workload that plans.  What [pipeline.solve] spends outside
   every solver phase is mostly the lower-bound search hetero starts
   with. *)
let planner_layers s =
  let solve = timer_s s "pipeline.solve" in
  [
    ("pipeline.solve_s", solve);
    ("pipeline.decompose_s", timer_s s "pipeline.decompose");
    ("pipeline.components", count s "pipeline.components");
    ("even_optimal.pad_orient_s", timer_s s "even_opt.pad_orient");
    ("even_optimal.decompose_s", timer_s s "even_opt.decompose");
    ("flow.augmenting_paths", count s "flow.augmenting_paths");
    ("bmatch.components", count s "bmatch.components");
    ("exec.tasks", count s "exec.tasks");
    ("hetero_coloring.phase1_s", timer_s s "hetero.phase1");
    ("hetero_coloring.phase2_s", timer_s s "hetero.phase2");
    ("hetero_coloring.refine_s", timer_s s "hetero.refine");
    ( "hetero_coloring.unattributed_s",
      List.fold_left (fun acc t -> acc -. timer_s s t) solve phase_timers );
    ("recolor.kempe_walks", count s "recolor.kempe_walks");
  ]

(* The lower bounds on their own, summed over [insts]. *)
let lower_bound_layers ~seed insts =
  let lb1s, lb1_s =
    Trace.call "Lower_bounds.lb1" (fun () -> List.map M.Lower_bounds.lb1 insts)
  in
  let lbs, lb_s =
    Trace.call "Lower_bounds.lower_bound" (fun () ->
        List.map (M.Lower_bounds.lower_bound ~rng:(rng_of seed)) insts)
  in
  [
    ("lower_bounds.lb1_s", lb1_s);
    ("lower_bounds.lower_bound_s", lb_s);
    ( "lower_bounds.gamma_gain",
      float_of_int (List.fold_left2 (fun acc lb l1 -> acc + lb - l1) 0 lbs lb1s)
    );
  ]

(* ---- plan-even, plan-mixed: one cold plan of a large instance ---- *)

let plan_job ~seed inst =
  let lb = M.Lower_bounds.lb1 inst in
  let solve ~jobs =
    M.Pipeline.solve ~rng:(rng_of seed) ~jobs ~choose:M.Pipeline.auto_choose
      inst
  in
  let last = ref None in
  let rep () =
    let (sched, report), solve_s =
      Trace.call "Pipeline.solve" (fun () -> solve ~jobs)
    in
    (* name the solver when every component used the same one, so its
       own guarantee (even-opt: exactly LB1) is what gets audited *)
    let solver =
      match
        List.sort_uniq compare
          (List.map (fun s -> s.M.Pipeline.solver) report.selections)
      with
      | [ one ] -> one
      | _ -> "auto"
    in
    let verdict, check_s =
      Trace.call "Certify.check" (fun () ->
          M.Certify.check ~lb ~solver inst sched)
    in
    last := Some sched;
    {
      wall_s = solve_s +. check_s;
      transfers = M.Schedule.n_items sched;
      rounds = M.Schedule.n_rounds sched;
      floor = lb;
      requests = None;
      calls = [ ("Pipeline.solve", solve_s); ("Certify.check", check_s) ];
      errors = List.map M.Certify.violation_to_string verdict.violations;
    }
  in
  let layers rep s =
    let check = call_s rep "Certify.check" in
    planner_layers s
    @ [ ("certify.check_s", check); ("certify.share", check /. rep.wall_s) ]
  in
  let after ~call_s =
    (* jobs 1 on its own: the parallel gain, the allocation per item
       (one domain, so Gc sees all of it) and the determinism check *)
    let a0 = Gc.allocated_bytes () in
    let (sched1, _), t1 =
      Trace.call "Pipeline.solve" (fun () -> solve ~jobs:1)
    in
    let alloc = Gc.allocated_bytes () -. a0 in
    let same =
      match !last with
      | Some s -> M.Schedule.to_string s = M.Schedule.to_string sched1
      | None -> false
    in
    ( lower_bound_layers ~seed [ inst ]
      @ [
          ("exec.parallel_gain", t1 /. call_s "Pipeline.solve");
          ( "alloc_bytes_per_item",
            alloc /. float_of_int (M.Instance.n_items inst) );
        ],
      if same then []
      else [ Printf.sprintf "schedule at jobs 1 differs from jobs %d" jobs ] )
  in
  { rep; layers; after }

let plan_even =
  {
    name = "plan-even";
    why =
      "all-even caps: even-opt's per-round flow decomposition fans out over \
       Exec; the lower-bound search is never called";
    salt = 11;
    setup =
      (fun seed ->
        (* a 32-regular multigraph, the union of random perfect
           matchings: with caps from {2, 4}, LB1 (the round count
           even-opt must hit) is 16 on every seed, where a G(n, m)
           graph's maximum degree moved it, and the plan time with it,
           from seed to seed *)
        let n = 6272 and degree = 32 in
        let rng = rng_of seed in
        let g = Mgraph.Multigraph.create ~n () in
        let perm = Array.init n Fun.id in
        for _ = 1 to degree do
          for i = n - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- t
          done;
          for i = 0 to (n / 2) - 1 do
            ignore
              (Mgraph.Multigraph.add_edge g perm.(2 * i) perm.((2 * i) + 1))
          done
        done;
        plan_job ~seed (M.Instance.random_caps rng g ~choices:[ 2; 4 ]));
  }

let plan_mixed =
  {
    name = "plan-mixed";
    why =
      "Zipf rebalance on mixed caps: one component, so hetero and its \
       lower-bound search run while even-opt and the Exec pool stay idle";
    salt = 12;
    setup =
      (fun seed ->
        let sc =
          Workloads.Scenarios.rebalance (rng_of seed) ~n_disks:256
            ~n_items:120_000 ~caps:[ 1; 2; 3; 5 ] ()
        in
        plan_job ~seed
          (Storsim.Cluster.plan_reconfiguration sc.cluster ~target:sc.target)
            .instance);
  }

(* ---- serve-stream: many small warm replans under faults ---- *)

let serve_disks = 48
let serve_items = 6_000
let serve_requests = 1_200
let per_round = 2

let serve_stream =
  let setup seed =
    (* The cluster (Zipf demand ranks and their balanced layout) and the
       service's own seed, which draws the demand shift, are the same
       on every seed; the seed draws the request stream and the faults.
       The skew is 0.5 so that no item outweighs a disk's share of the
       layout: at 1.1 the hottest of 6,000 items carries 15% of all
       demand, and how many items each re-layout moved around it, a
       single draw, swung the run time more than the 1,200 requests
       together did. *)
    let rng = rng_of seed in
    let caps = Array.init serve_disks (fun i -> 1 + (i mod 5)) in
    let demands = Workloads.Demand.zipf_weights ~n:serve_items ~s:0.5 in
    let placement, balance_s =
      Trace.call "Layout.balance" (fun () ->
          Workloads.Layout.balance ~demands
            ~weights:(Array.map float_of_int caps))
    in
    let cluster =
      {
        Service.caps;
        placement = Storsim.Placement.to_array placement;
        demands;
      }
    in
    (* items are drawn uniformly, so some are retargeted again before
       their earlier move lands; a disk is drawn as a target in
       proportion to its cap, as the layout weighs it, so retargets
       leave the layout about as balanced as they found it; targets
       avoid the disks the stream drains and fails, so no request names
       a dead disk *)
    let drained = 1 and failed = 2 in
    let slots =
      Array.concat
        (List.init serve_disks (fun d ->
             if d = drained || d = failed then [||] else Array.make caps.(d) d))
    in
    let pick_target () = slots.(Random.State.int rng (Array.length slots)) in
    let retargets =
      List.init serve_requests (fun i ->
          {
            Service.at = i / per_round;
            tenant = i mod 4;
            trigger =
              Service.Retarget
                (List.init
                   (1 + Random.State.int rng 16)
                   (fun _ ->
                     (Random.State.int rng serve_items, pick_target ())));
          })
    in
    let horizon = serve_requests / per_round in
    let at k trigger = { Service.at = k * horizon / 5; tenant = 0; trigger } in
    let requests =
      retargets
      @ [
          at 1 (Service.Demand_shift { fraction = 0.02 });
          at 2 (Service.Add_disk { cap = 3 });
          at 3 (Service.Remove_disk { disk = drained });
          at 4 (Service.Fail_disk { disk = failed });
        ]
    in
    let policy ~epoch =
      Storsim.Fault.engine_policy ~fault_rate:0.01
        ~seed:(Hashtbl.hash (seed, epoch))
        ()
    in
    let serve ~jobs =
      Service.run ~jobs ~epoch_rounds:16 ~rng_seed:1 ~policy cluster
        ~requests ()
    in
    let last = ref None in
    let rep () =
      let report, run_s = Trace.call "Service.run" (fun () -> serve ~jobs) in
      let verdict, certify_s =
        Trace.call "Certify.certify_service" (fun () ->
            M.Certify.certify_service report.execution)
      in
      last := Some report;
      let refused =
        Array.fold_left
          (fun acc s ->
            match s with
            | M.Certify.Sreq_completed _ -> acc
            | Sreq_rejected _ | Sreq_abandoned _ -> acc + 1)
          0 report.statuses
      in
      {
        wall_s = run_s +. certify_s;
        transfers = report.transfers;
        rounds = report.total_rounds;
        (* no request can complete before it arrives *)
        floor = horizon;
        requests =
          Some
            {
              p50 = report.p50;
              p99 = report.p99;
              completed = List.length report.latencies;
              submitted = Array.length report.statuses;
              refused;
            };
        calls =
          [ ("Service.run", run_s); ("Certify.certify_service", certify_s) ];
        errors =
          (if report.truncated then [ "service run truncated" ] else [])
          @ List.map M.Certify.service_violation_to_string
              verdict.svc_violations;
      }
    in
    let layers rep s =
      let cert = call_s rep "Certify.certify_service" in
      let engine_run = timer_s s "engine.run"
      and engine_plan = timer_s s "engine.plan" in
      planner_layers s
      @ [
          ("certify.service_s", cert);
          ("certify.share", cert /. rep.wall_s);
          ("engine.run_s", engine_run);
          ("engine.plan_s", engine_plan);
          ("engine.exec_s", engine_run -. engine_plan);
          ("engine.replans", count s "engine.replans");
          ("engine.retried_edges", count s "engine.retried_edges");
          ("service.run_s", call_s rep "Service.run");
          ("service.self_s", timer_s s "service.epoch" -. engine_run);
          ("service.epochs", count s "service.epochs");
          ("service.absorbed", count s "service.absorbed");
          ("service.rejected", count s "service.rejected");
          ("service.repairs", count s "service.repairs");
        ]
    in
    let after ~call_s =
      let render r = Format.asprintf "%a" Service.pp_report r in
      let r1, t1 = Trace.call "Service.run" (fun () -> serve ~jobs:1) in
      let same =
        match !last with Some r -> render r = render r1 | None -> false
      in
      (* the lower bounds on each epoch's planned instance *)
      let epochs =
        List.map (fun e -> e.M.Certify.se_instance) r1.execution.svc_epochs
      in
      ( lower_bound_layers ~seed epochs
        @ [
            ("layout.balance_s", balance_s);
            ("exec.parallel_gain", t1 /. call_s "Service.run");
          ],
        if same then []
        else
          [ Printf.sprintf "service report at jobs 1 differs from jobs %d" jobs ]
      )
    in
    { rep; layers; after }
  in
  {
    name = "serve-stream";
    why =
      "1,200 retargets plus a demand shift, add, drain and fail under 1% \
       faults: 100+ small warm replans, engine retries, replay certification";
    salt = 13;
    setup;
  }

(* ---- dist-exec: the forked coordinator/worker runtime ---- *)

(* Each repetition's journal goes to a fresh directory under dune's
   build directory: inside the checkout, where the benchmark does all
   its writing, and already ignored by git. *)
let state_root = "_build"

let rec rm_rf path =
  if not (Sys.file_exists path) then ()
  else if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let dist_exec =
  let setup seed =
    (* five cap-1 disks hand 5,000 items to five new cap-1 disks: the
       transfer graph is bipartite, so hetero plans it in a few
       milliseconds on every seed and the 1,000 rounds, each a journal
       commit, are what the run measures *)
    let sc =
      Workloads.Scenarios.disk_addition (rng_of seed) ~n_old:5 ~n_new:5
        ~n_items:10_000 ~old_cap:1 ~new_cap:1 ()
    in
    let inst =
      (Storsim.Cluster.plan_reconfiguration sc.cluster ~target:sc.target)
        .instance
    in
    let lb = M.Lower_bounds.lb1 inst in
    let run_engine () =
      M.Engine.run ~rng:(Distproto.Runner.plan_rng seed) ~jobs:1
        ~policy:M.Engine.no_faults inst
    in
    (* the flight log every distributed run must reproduce byte for
       byte, computed once, outside any timed call *)
    let expected =
      lazy (M.Certify.execution_to_string (run_engine ()).execution)
    in
    let rep () =
      (* fresh, so no earlier journal makes the run resume *)
      let state_dir = Filename.temp_dir ~temp_dir:state_root "perf-state" "" in
      let result, run_s =
        Fun.protect
          ~finally:(fun () -> rm_rf state_dir)
          (fun () ->
            Trace.call "Runner.run" (fun () ->
                Distproto.Runner.run ~workers:2 ~seed ~state_dir inst))
      in
      match result with
      | Error msg -> failed ~wall_s:run_s msg
      | Ok (Interrupted { signal; _ }) ->
          failed ~wall_s:run_s
            (Printf.sprintf "coordinator interrupted by signal %d" signal)
      | Ok (Completed o) ->
          let verdict, certify_s =
            Trace.call "Certify.certify_execution" (fun () ->
                M.Certify.certify_execution o.execution)
          in
          let same =
            M.Certify.execution_to_string o.execution = Lazy.force expected
          in
          {
            wall_s = run_s;
            transfers = verdict.completed_items;
            rounds = o.rounds;
            floor = lb;
            requests = None;
            calls =
              [
                ("Runner.run", run_s); ("Certify.certify_execution", certify_s);
              ];
            errors =
              (if same then []
               else [ "flight log differs from the in-process engine's" ])
              @ List.map M.Certify.exec_violation_to_string
                  verdict.exec_violations;
          }
    in
    let layers rep s =
      let run = call_s rep "Runner.run"
      and cert = call_s rep "Certify.certify_execution" in
      let plan = timer_s s "pipeline.solve" in
      let round_s, round_n = timer s "dist.round" in
      planner_layers s
      @ [
          ("certify.execution_s", cert);
          ("certify.share", cert /. (run +. cert));
          ("dist.plan_s", plan);
          ("dist.round_s", round_s);
          ("dist.round_ms", 1000.0 *. round_s /. float_of_int (max 1 round_n));
          ("dist.other_s", run -. plan -. round_s);
          ("dist.messages", count s "dist.messages");
          ("dist.commits", count s "dist.commits");
        ]
    in
    let after ~call_s =
      M.Instr.reset ();
      let _, inprocess_s = Trace.call "Engine.run" run_engine in
      let s = M.Instr.snapshot () in
      let run = timer_s s "engine.run" and plan = timer_s s "engine.plan" in
      ( lower_bound_layers ~seed [ inst ]
        @ [
            ("engine.inprocess_s", inprocess_s);
            ("engine.run_s", run);
            ("engine.plan_s", plan);
            ("engine.exec_s", run -. plan);
            ("dist.overhead", call_s "Runner.run" /. inprocess_s);
          ],
        [] )
    in
    { rep; layers; after }
  in
  {
    name = "dist-exec";
    why =
      "1,000-round bipartite plan over 2 forked workers, each round an \
       fsync'd journal commit; 10 disks keep the lower bound exact";
    salt = 14;
    setup;
  }

let all = [ plan_even; plan_mixed; serve_stream; dist_exec ]
