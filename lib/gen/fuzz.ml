module M = Migration

type failure = {
  family : string;
  seed : int;
  size : int;
  solver : string;
  messages : string list;
  instance : M.Instance.t;
  shrunk : M.Instance.t;
}

type solver_stats = {
  solver : string;
  runs : int;
  certified : int;
  max_gap : int;
  gaps : (int * int) list;
}

type family_report = {
  family : string;
  instances : int;
  per_solver : solver_stats list;
}

type report = {
  family_reports : family_report list;
  total_instances : int;
  total_runs : int;
  failures : failure list;
}

let derived_seed ~base ~index = (base * 1000) + index

(* instrumentation cells; per-solver cells register on first use *)
let c_instances = M.Instr.counter "fuzz.instances"
let c_runs = M.Instr.counter "fuzz.runs"
let c_violations = M.Instr.counter "fuzz.violations"
let solve_timer name =
  (M.Instr.timer ("fuzz.solve." ^ name)
  [@lint.allow "probes: per-solver cells are parameterized by solver name"])

let gap_counter name =
  (M.Instr.counter ("fuzz.gap." ^ name)
  [@lint.allow "probes: per-solver cells are parameterized by solver name"])

let run_rng seed name = Random.State.make [| seed; Hashtbl.hash name; 0xf0 |]

(* Deterministic solver run through the pipeline; [None] when the
   solver cannot solve this instance. *)
let run_solver s ~seed inst =
  if not (s.M.Solver.can_solve inst) then None
  else
    let rng = run_rng seed s.M.Solver.name in
    Some (fst (M.Pipeline.solve ~rng ~choose:(M.Pipeline.choose_of s) inst))

let lb_of ~seed inst =
  M.Lower_bounds.lower_bound ~rng:(run_rng seed "lb") inst

(* the ground-truth search: at most 300,000 branch-and-bound nodes, on
   instances of at most 10 items and 10 disks *)
let exact_opt inst =
  if M.Instance.n_items inst > 10 || M.Instance.n_disks inst > 10 then None
  else
    match M.Exact.solve ~node_budget:300_000 inst with
    | M.Exact.Optimal sched -> Some sched
    | M.Exact.Gave_up -> None

(* The deterministic re-checks shrinking minimizes against.  Each
   returns true when the instance still exhibits the failure. *)
let fails_certification s ~seed inst' =
  match run_solver s ~seed inst' with
  | None -> false
  | Some sched ->
      let lb = lb_of ~seed inst' in
      not
        (M.Certify.ok
           (M.Certify.check ~lb ~solver:s.M.Solver.name inst' sched))

let fails_beating_exact s ~seed inst' =
  match run_solver s ~seed inst' with
  | None -> false
  | Some sched -> (
      match exact_opt inst' with
      | None -> false
      | Some opt -> M.Schedule.n_rounds sched < M.Schedule.n_rounds opt)

let fails_forwarding ~seed inst' =
  let rng = run_rng seed "forwarding" in
  match M.Forwarding.plan_with_helpers ~rng inst' with
  | exception _ -> true
  | plan, stats ->
      M.Forwarding.validate inst' plan <> Ok ()
      || stats.M.Forwarding.rounds > stats.M.Forwarding.direct_rounds
[@@lint.allow
  "exception: any raise at all is the failure this shrinking oracle \
   reproduces, so the catch-all maps it to true rather than swallowing it"]

(* The SLA reorder differential: the priority post-pass must keep the
   makespan (it only permutes rounds), the permuted schedule must
   still certify on tagged instances, and its own completion claim
   must survive [Certify.check_sla] — including the no-inversion
   invariant the reordering promises. *)
let reorder_messages ~lb inst sched =
  let reordered = M.Objective.reorder inst sched in
  let bad_makespan =
    if M.Schedule.n_rounds reordered <> M.Schedule.n_rounds sched then
      [
        Printf.sprintf "reorder changed makespan: %d -> %d rounds"
          (M.Schedule.n_rounds sched)
          (M.Schedule.n_rounds reordered);
      ]
    else []
  in
  let bad_cert =
    if M.Instance.tagged inst then begin
      let v = M.Certify.check ~lb inst reordered in
      if M.Certify.ok v then []
      else
        List.map
          (fun x -> "reordered: " ^ M.Certify.violation_to_string x)
          v.M.Certify.violations
    end
    else []
  in
  let bad_sla =
    let claim = M.Objective.claim ~reordered:true inst reordered in
    let v = M.Certify.check_sla inst reordered claim in
    if M.Certify.sla_ok v then []
    else
      List.map
        (fun x -> "sla: " ^ M.Certify.sla_violation_to_string x)
        v.M.Certify.sla_violations
  in
  bad_makespan @ bad_cert @ bad_sla

let fails_reorder s ~seed inst' =
  match run_solver s ~seed inst' with
  | None -> false
  | Some sched -> reorder_messages ~lb:(lb_of ~seed inst') inst' sched <> []

let shrink ~fails inst =
  if fails inst then M.Shrink.minimize ~fails inst else inst

(* ------------------------------------------------------------------ *)

type tally = {
  mutable t_runs : int;
  mutable t_certified : int;
  mutable t_gaps : (int, int) Hashtbl.t;
}

let tally_gap t gap =
  t.t_runs <- t.t_runs + 1;
  let h = t.t_gaps in
  Hashtbl.replace h gap (1 + Option.value ~default:0 (Hashtbl.find_opt h gap))

let stats_of_tally solver t =
  let gaps =
    Hashtbl.fold (fun g c acc -> (g, c) :: acc) t.t_gaps []
    |> List.sort compare
  in
  {
    solver;
    runs = t.t_runs;
    certified = t.t_certified;
    max_gap = List.fold_left (fun acc (g, _) -> max acc g) 0 gaps;
    gaps;
  }

(* ------------------------------------------------------------------ *)
(* Parallel evaluation plan.

   The loop splits into three stages so that the expensive work — the
   solver runs — parallelizes at (instance x solver) granularity while
   the report stays byte-identical for every [jobs] value:

   1. per instance (parallel): generate, lower-bound, exact ground
      truth;
   2. per (instance x solver) cell (parallel): run the solver, certify,
      cross-check — pure w.r.t. shared state, all RNGs derived from
      the cell's own seed;
   3. merge (sequential, submission order): tallies, failure list, and
      Instr accounting — then shrink each failure, also sequentially,
      so delta-debugging replays identically run to run. *)

(* a differential cell runs one planner, or the forwarding planner
   that follows the planners on every instance *)
type target = Planner of M.Solver.t | Forwarding

let target_name = function
  | Planner s -> s.M.Solver.name
  | Forwarding -> "forwarding"

type cell_outcome = {
  co_solver : string;
  co_ran : bool;  (* false: solver inapplicable — no tally *)
  co_gap : int;   (* meaningful when co_ran *)
  co_elapsed : float;  (* solve seconds, recorded under fuzz.solve.* *)
  co_messages : string list;  (* nonempty iff the cell failed *)
  co_fails : (M.Instance.t -> bool) option;
      (* the deterministic re-check the (sequential) shrinker replays *)
}

type inst_eval = {
  ie_seed : int;
  ie_inst : M.Instance.t;
  ie_lb : int;
  ie_opt : M.Schedule.t option;
  ie_exact_messages : string list;  (* the optimum itself under audit *)
}

let cell ~solver messages =
  {
    co_solver = solver;
    co_ran = true;
    co_gap = 0;
    co_elapsed = 0.0;
    co_messages = messages;
    co_fails = None;
  }

let eval_instance ~family ~size ~iseed =
  let inst = Families.instance family ~seed:iseed ~size in
  let lb = lb_of ~seed:iseed inst in
  let opt = exact_opt inst in
  let exact_messages =
    match opt with
    | None -> []
    | Some sched ->
        let v = M.Certify.check ~lb inst sched in
        if M.Certify.ok v then []
        else List.map M.Certify.violation_to_string v.M.Certify.violations
  in
  { ie_seed = iseed; ie_inst = inst; ie_lb = lb; ie_opt = opt;
    ie_exact_messages = exact_messages }

let eval_cell target ie =
  let inst = ie.ie_inst and lb = ie.ie_lb and iseed = ie.ie_seed in
  match target with
  | Forwarding -> (
      let rng = run_rng iseed "forwarding" in
      match M.Forwarding.plan_with_helpers ~rng inst with
      | exception e ->
          {
            (cell ~solver:"forwarding"
               [ "raised " ^ Printexc.to_string e ])
            with
            co_ran = false;
            co_fails = Some (fails_forwarding ~seed:iseed);
          }
      | plan, stats ->
          let rounds = stats.M.Forwarding.rounds in
          let bad_validate =
            match M.Forwarding.validate inst plan with
            | Ok () -> None
            | Error msg -> Some ("plan invalid: " ^ msg)
          in
          let bad_rounds =
            if rounds > stats.M.Forwarding.direct_rounds then
              Some
                (Printf.sprintf "forwarding used %d rounds > %d direct" rounds
                   stats.M.Forwarding.direct_rounds)
            else None
          in
          let messages = List.filter_map Fun.id [ bad_validate; bad_rounds ] in
          {
            (cell ~solver:"forwarding" messages) with
            co_gap = max 0 (rounds - lb);
            co_fails =
              (if messages = [] then None
               else Some (fails_forwarding ~seed:iseed));
          })
  | Planner s -> (
      let sname = s.M.Solver.name in
      let t0 = M.Instr.now_s () in
      match run_solver s ~seed:iseed inst with
      | None -> { (cell ~solver:sname []) with co_ran = false }
      | Some sched ->
          let elapsed = M.Instr.now_s () -. t0 in
          let rounds = M.Schedule.n_rounds sched in
          let gap = max 0 (rounds - lb) in
          let v = M.Certify.check ~lb ~solver:sname inst sched in
          if not (M.Certify.ok v) then
            {
              (cell ~solver:sname
                 (List.map M.Certify.violation_to_string
                    v.M.Certify.violations))
              with
              co_gap = gap;
              co_elapsed = elapsed;
              co_fails = Some (fails_certification s ~seed:iseed);
            }
          else
            let beats =
              match ie.ie_opt with
              | Some o when rounds < M.Schedule.n_rounds o ->
                  Some
                    (Printf.sprintf
                       "beat the proven optimum: %d rounds < OPT = %d" rounds
                       (M.Schedule.n_rounds o))
              | _ -> None
            in
            let reorder_msgs = reorder_messages ~lb inst sched in
            {
              (cell ~solver:sname (Option.to_list beats @ reorder_msgs)) with
              co_gap = gap;
              co_elapsed = elapsed;
              co_fails =
                (if beats <> None then Some (fails_beating_exact s ~seed:iseed)
                 else if reorder_msgs <> [] then
                   Some (fails_reorder s ~seed:iseed)
                 else None);
            })

let run ?(size = 12) ?(solvers = M.Pipeline.solvers) ?(jobs = 1) ~families
    ~count ~seed () =
  let targets = List.map (fun s -> Planner s) solvers @ [ Forwarding ] in
  let pool = if jobs > 1 then Some (Exec.create ~jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Exec.shutdown pool)
  @@ fun () ->
  (* stage 1: instances (parallel, submission order preserved) *)
  let inst_specs =
    List.concat_map
      (fun fam -> List.init count (fun index -> (fam, index)))
      families
  in
  let evals =
    Exec.map ?pool
      (fun (fam, index) ->
        eval_instance ~family:fam ~size ~iseed:(derived_seed ~base:seed ~index))
      inst_specs
  in
  let eval_tbl = Hashtbl.create 64 in
  List.iter2
    (fun (fam, index) ie -> Hashtbl.add eval_tbl (fam.Families.name, index) ie)
    inst_specs evals;
  (* stage 2: (instance x solver) cells (parallel) *)
  let cell_specs =
    List.concat_map
      (fun (fam, index) -> List.map (fun t -> (fam, index, t)) targets)
      inst_specs
  in
  let cells =
    Exec.map ?pool
      (fun (fam, index, t) ->
        eval_cell t (Hashtbl.find eval_tbl (fam.Families.name, index)))
      cell_specs
  in
  let cell_tbl = Hashtbl.create 256 in
  List.iter2
    (fun (fam, index, t) co ->
      Hashtbl.add cell_tbl (fam.Families.name, index, target_name t) co)
    cell_specs cells;
  (* stage 3: sequential merge in (family, index, solver) order — the
     exact traversal the all-sequential loop used, so reports are
     byte-identical at every [jobs]; shrinking stays sequential too *)
  let failures = ref [] in
  let total_instances = ref 0 and total_runs = ref 0 in
  let fail ~family ~iseed ~solver ~messages ~instance ~shrunk =
    M.Instr.bump c_violations;
    failures :=
      { family; seed = iseed; size; solver; messages; instance; shrunk }
      :: !failures
  in
  let family_reports =
    List.map
      (fun fam ->
        let name = fam.Families.name in
        let tallies = Hashtbl.create 8 in
        let tally s =
          match Hashtbl.find_opt tallies s with
          | Some t -> t
          | None ->
              let t =
                { t_runs = 0; t_certified = 0; t_gaps = Hashtbl.create 8 }
              in
              Hashtbl.add tallies s t;
              t
        in
        for index = 0 to count - 1 do
          let ie = Hashtbl.find eval_tbl (name, index) in
          let iseed = ie.ie_seed and inst = ie.ie_inst in
          M.Instr.bump c_instances;
          incr total_instances;
          if ie.ie_exact_messages <> [] then
            fail ~family:name ~iseed ~solver:"exact"
              ~messages:ie.ie_exact_messages ~instance:inst ~shrunk:inst;
          List.iter
            (fun target ->
              let sname = target_name target in
              let co = Hashtbl.find cell_tbl (name, index, sname) in
              if co.co_ran then begin
                M.Instr.bump c_runs;
                incr total_runs;
                let t = tally sname in
                tally_gap t co.co_gap;
                (match target with
                | Planner _ ->
                    M.Instr.bump ~by:co.co_gap (gap_counter sname);
                    M.Instr.record (solve_timer sname) co.co_elapsed
                | Forwarding -> ());
                if co.co_messages = [] then
                  t.t_certified <- t.t_certified + 1
              end;
              if co.co_messages <> [] then
                fail ~family:name ~iseed ~solver:sname
                  ~messages:co.co_messages ~instance:inst
                  ~shrunk:
                    (match co.co_fails with
                    | None -> inst
                    | Some fails -> shrink ~fails inst))
            targets
        done;
        let per_solver =
          List.filter_map
            (fun t ->
              let s = target_name t in
              Option.map (stats_of_tally s) (Hashtbl.find_opt tallies s))
            targets
        in
        { family = name; instances = count; per_solver })
      families
  in
  {
    family_reports;
    total_instances = !total_instances;
    total_runs = !total_runs;
    failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Soak fuzzing: one drive per generated instance — the engine under
   injected faults, the streaming service, the distributed runner —
   summed per family, every failure shrunk against the same drive.
   Drives above this library in the layering DAG come in as closures. *)

type soak_report = {
  per_family : (string * int list) list;
  soaks : int;
  soak_failures : failure list;
}

let c_soaks = M.Instr.counter "fuzz.soaks"
let c_soak_violations = M.Instr.counter "fuzz.soak_violations"

let soak ?(size = 12) ?(jobs = 1) ~label ~columns ~drive ~families ~count ~seed
    () =
  let pool = if jobs > 1 then Some (Exec.create ~jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Exec.shutdown pool)
  @@ fun () ->
  (* parallel stage: each cell generates its instance and drives it
     (any parallelism inside the drive is the closure's business); the
     merge and the shrinker stay sequential in submission order, so the
     report is byte-identical at every [jobs] *)
  let cells =
    Exec.map ?pool
      (fun (fam, index) ->
        let iseed = derived_seed ~base:seed ~index in
        let inst = Families.instance fam ~seed:iseed ~size in
        (fam.Families.name, iseed, inst, drive ~inst ~seed:iseed))
      (List.concat_map
         (fun fam -> List.init count (fun index -> (fam, index)))
         families)
  in
  let sum family =
    List.fold_left
      (fun acc (name, _, _, outcome) ->
        match outcome with
        | Ok row when name = family -> List.map2 ( + ) acc row
        | _ -> acc)
      (List.map (fun _ -> 0) columns)
      cells
  in
  let soak_failures =
    List.filter_map
      (fun (family, iseed, inst, outcome) ->
        match outcome with
        | Ok _ -> None
        | Error messages ->
            let fails i = Result.is_error (drive ~inst:i ~seed:iseed) in
            Some
              {
                family;
                seed = iseed;
                size;
                solver = label;
                messages;
                instance = inst;
                shrunk = shrink ~fails inst;
              })
      cells
  in
  M.Instr.bump ~by:(List.length cells) c_soaks;
  M.Instr.bump ~by:(List.length soak_failures) c_soak_violations;
  {
    per_family =
      List.map (fun fam -> (fam.Families.name, sum fam.Families.name)) families;
    soaks = List.length cells;
    soak_failures;
  }

let engine_columns =
  [ "runs"; "completed"; "quarantined"; "replans"; "retries"; "rounds"; "idle" ]

(* one engine run: the engine RNG and the policy both derive from the
   cell's own seed, so the drive is pure w.r.t. shared state *)
let engine_drive ~policy ~inst ~seed =
  let n_items = M.Instance.n_items inst in
  match
    M.Engine.run ~rng:(run_rng seed "engine") ~policy:(policy ~inst ~seed) inst
  with
  | exception M.Engine.Plan_rejected msg ->
      Error [ "replan rejected mid-flight: " ^ msg ]
  | (o : M.Engine.outcome) -> (
      let v = M.Certify.certify_execution o.M.Engine.execution in
      let messages =
        List.map M.Certify.exec_violation_to_string v.M.Certify.exec_violations
      in
      let q = List.length o.M.Engine.quarantined in
      let accounting =
        if o.M.Engine.completed + q <> n_items then
          [
            Printf.sprintf
              "accounting broken: %d completed + %d quarantined <> %d items"
              o.M.Engine.completed q n_items;
          ]
        else []
      in
      match messages @ accounting with
      | [] ->
          Ok
            [
              1;
              o.M.Engine.completed;
              q;
              o.M.Engine.replans;
              o.M.Engine.retries;
              o.M.Engine.total_rounds;
              o.M.Engine.idle_rounds;
            ]
      | msgs -> Error msgs)
