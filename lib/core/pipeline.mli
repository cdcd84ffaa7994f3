(** The planning pipeline: decompose → solve → merge.

    Connected components of the transfer graph are independent
    scheduling problems — no edge crosses components, so per-component
    schedules merged round-wise ({!Schedule.merge}) stay feasible and
    the merged round count is the maximum over components.  Solving
    per component lets the selector pick a {e different} algorithm for
    each one: on a mixed instance whose all-even components sit apart
    from its odd-cap components, ["auto"] runs the provably-optimal
    even solver where it applies and the general algorithm elsewhere,
    which can strictly reduce total rounds versus any single
    monolithic planner.

    Every stage records spans and counters in {!Instr}
    (["pipeline.decompose"], ["pipeline.solve"], ["pipeline.merge"],
    ["pipeline.components"], ["pipeline.mixed_selection"]). *)

(** What the pipeline did for one component. *)
type selection = {
  component : int;   (** component index, as in {!Instance.decompose} *)
  n_disks : int;
  n_items : int;
  solver : string;   (** name of the solver that ran *)
  rounds : int;
}

type report = {
  components : int;      (** total components, including isolated disks *)
  selections : selection list;
      (** one entry per component with at least one item *)
}

(** [solve ?rng ?jobs ~choose inst] runs the full pipeline, picking
    [choose component_instance] for every non-empty component.  A
    connected instance (single non-empty component) is solved
    monolithically on [inst] itself — bit-for-bit the same behavior
    (and RNG consumption) as calling the chosen solver directly.

    [jobs] (default [1]) is the worker-domain budget: with [jobs > 1]
    a multi-component instance solves its components on an {!Exec}
    pool.  {b Determinism contract}: the schedule and report are
    bit-identical for every [jobs] value, because each component's
    RNG seed is drawn from [rng] in component order before any
    solving, component solves share no state, and the merge consumes
    results in submission order.  [jobs <= 1] never touches the pool
    (no domains are spawned).  [choose] may run on worker domains
    when [jobs > 1], so it should be a pure function of the component
    instance. *)
val solve :
  ?rng:Random.State.t ->
  ?jobs:int ->
  choose:(Instance.t -> Solver.t) ->
  Instance.t ->
  Schedule.t * report

(** The ["auto"] selection rule: {!Solver.even_opt} when the
    (component) instance has all-even constraints, {!Solver.hetero}
    otherwise. *)
val auto_choose : Instance.t -> Solver.t

(** The ["auto"] solver: the pipeline with {!auto_choose}. *)
val auto : Solver.t

(** Every planner, in the order listings and the fuzz loop present
    them: the {!Solver} built-ins, {!auto} and
    {!Objective.sla_greedy}.  The one place that knows which planners
    exist. *)
val solvers : Solver.t list

(** [find name] is the planner of {!solvers} called [name]. *)
val find : string -> Solver.t option

(** [choose_of s] is the per-component selection rule that plans
    with [s]: {!auto_choose} for {!auto}, [s] itself on every
    component otherwise.  [solve ~choose:(choose_of s)] gives the
    per-component report of a run of [s]. *)
val choose_of : Solver.t -> Instance.t -> Solver.t
