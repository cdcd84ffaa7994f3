type selection = {
  component : int;
  n_disks : int;
  n_items : int;
  solver : string;
  rounds : int;
}

type report = { components : int; selections : selection list }

let t_decompose = Instr.timer "pipeline.decompose"
let t_solve = Instr.timer "pipeline.solve"
let t_merge = Instr.timer "pipeline.merge"
let c_components = Instr.counter "pipeline.components"

(* components whose solver differed from at least one sibling's — the
   pipeline's reason to exist, so make it observable *)
let c_mixed = Instr.counter "pipeline.mixed_selection"

let selection_of ~component ~solver inst sched =
  {
    component;
    n_disks = Instance.n_disks inst;
    n_items = Instance.n_items inst;
    solver;
    rounds = Schedule.n_rounds sched;
  }

let solve ?rng ?(jobs = 1) ~choose inst =
  let comps = Instr.time t_decompose (fun () -> Instance.decompose inst) in
  Instr.bump ~by:(List.length comps) c_components;
  let active =
    List.mapi (fun i c -> (i, c)) comps
    |> List.filter (fun (_, c) -> Instance.n_items c.Instance.instance > 0)
  in
  match active with
  | [] ->
      (Schedule.of_rounds [||], { components = List.length comps; selections = [] })
  | [ (i, _) ] ->
      (* one real component: solve the original instance monolithically
         so behavior (including RNG consumption) is identical to
         calling the solver directly.  [jobs] passes through for a
         solver that parallelizes inside one component; no built-in
         one does. *)
      let s = choose inst in
      let sched = Instr.time t_solve (fun () -> Solver.solve ?rng ~jobs s inst) in
      ( sched,
        {
          components = List.length comps;
          selections = [ selection_of ~component:i ~solver:s.Solver.name inst sched ];
        } )
  | _ ->
      (* Determinism contract: every component gets an independent RNG
         whose seed is drawn from the caller's [rng] in component
         order, before any solving.  Component solves then share no
         mutable state, so the result is bit-identical whatever [jobs]
         is and however the domains interleave. *)
      let tagged =
        List.map
          (fun (i, c) ->
            let comp_rng =
              Option.map
                (fun r -> Random.State.make [| Random.State.bits r; i; 0xc09e |])
                rng
            in
            (i, c, comp_rng))
          active
      in
      let solve_one (i, c, comp_rng) =
        let ci = c.Instance.instance in
        let s = choose ci in
        let sched = Solver.solve ?rng:comp_rng s ci in
        ( (sched, c.Instance.edges),
          selection_of ~component:i ~solver:s.Solver.name ci sched )
      in
      let parts =
        Instr.time t_solve (fun () ->
            if jobs <= 1 then List.map solve_one tagged
            else Exec.with_pool ~jobs (fun pool -> Exec.map ~pool solve_one tagged))
      in
      let selections = List.map snd parts in
      (match selections with
      | { solver = first; _ } :: rest ->
          if List.exists (fun sel -> sel.solver <> first) rest then
            Instr.bump c_mixed
      | [] -> ());
      let merged =
        Instr.time t_merge (fun () -> Schedule.merge (List.map fst parts))
      in
      (merged, { components = List.length comps; selections })

let auto_choose inst =
  if Instance.all_caps_even inst then Solver.even_opt else Solver.hetero

let auto =
  {
    Solver.name = "auto";
    doc =
      "per-component pipeline: even-opt on all-even components, hetero \
       elsewhere";
    can_solve = (fun _ -> true);
    solve =
      (fun ctx inst ->
        fst
          (solve ?rng:ctx.Solver.rng ~jobs:ctx.Solver.jobs ~choose:auto_choose
             inst));
  }

let solvers =
  Solver.[ even_opt; hetero; saia; greedy; orbits ]
  @ [ auto; Objective.sla_greedy ]

let find name = List.find_opt (fun s -> s.Solver.name = name) solvers
let choose_of s = if s == auto then auto_choose else fun _ -> s
