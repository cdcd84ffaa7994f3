(** Heterogeneous data migration — the paper's primary contribution.

    Umbrella module re-exporting the library and providing the
    top-level planner API: build an {!Instance}, pick an algorithm,
    get a validated {!Schedule}. *)

module Instance = Instance
module Schedule = Schedule
module Lower_bounds = Lower_bounds
module Even_optimal = Even_optimal
module Split_graph = Split_graph
module Hetero_coloring = Hetero_coloring
module Saia = Saia
module Exact = Exact
module Halving = Halving
module Completion_time = Completion_time
module Forwarding = Forwarding
module Space = Space
module Cloning = Cloning
module Refine = Refine
module Orbits = Orbits
module Diagnostics = Diagnostics
module Deadline = Deadline
module Solver = Solver
module Objective = Objective
module Pipeline = Pipeline
module Instr = Instr
module Certify = Certify
module Shrink = Shrink
module Engine = Engine
module Golden = Golden

(** Planner selection. *)
type algorithm =
  | Auto
      (** {!Even_opt} when every constraint is even (optimal,
          Theorem 4.1), {!Hetero} otherwise. *)
  | Even_opt  (** Section IV; requires all-even constraints. *)
  | Hetero    (** Section V general algorithm. *)
  | Saia_split  (** 1.5-approximation baseline. *)
  | Greedy    (** first-fit baseline. *)
  | Orbit_driven
      (** Section V-C1 realized through the explicit orbit/witness
          structures ({!Orbits.color_via_orbits}); structurally
          faithful, slower than {!Hetero}. *)
  | Sla_greedy
      (** first-fit in weighted-group priority order — the
          [sum w_g * C_g] heuristic of {!Objective}. *)

let algorithm_to_string = function
  | Auto -> "auto"
  | Even_opt -> "even-opt"
  | Hetero -> "hetero"
  | Saia_split -> "saia"
  | Greedy -> "greedy"
  | Orbit_driven -> "orbits"
  | Sla_greedy -> "sla-greedy"

let algorithm_of_string = function
  | "auto" -> Some Auto
  | "even-opt" -> Some Even_opt
  | "hetero" -> Some Hetero
  | "saia" -> Some Saia_split
  | "greedy" -> Some Greedy
  | "orbits" -> Some Orbit_driven
  | "sla-greedy" -> Some Sla_greedy
  | _ -> None

let all_algorithms =
  [ Auto; Even_opt; Hetero; Saia_split; Greedy; Orbit_driven; Sla_greedy ]

(** The {!Solver.t} behind each legacy variant.  [Auto] is the
    decompose/solve/merge pipeline ({!Pipeline.auto}); the others are
    the registered built-ins. *)
let solver_of_algorithm = function
  | Auto -> Pipeline.auto
  | Even_opt -> Solver.even_opt
  | Hetero -> Solver.hetero
  | Saia_split -> Solver.saia
  | Greedy -> Solver.greedy
  | Orbit_driven -> Solver.orbits
  | Sla_greedy -> Objective.sla_greedy

(** The per-component selection rule {!Engine.run} plans [alg] with:
    [Auto] is {!Pipeline.auto_choose}, any other algorithm its solver
    on every component. *)
let choose_of_algorithm = function
  | Auto -> Pipeline.auto_choose
  | alg ->
      let solver = solver_of_algorithm alg in
      fun _ -> solver

(** [plan ?rng alg inst] computes a feasible schedule.  Every algorithm
    returns a schedule that passes {!Schedule.validate}; they differ
    in how close to the optimum round count they land (see
    EXPERIMENTS.md).

    Thin compatibility shim over the {!Solver} registry: new code
    should resolve a {!Solver.t} (or call {!Pipeline.solve}) directly. *)
let plan ?rng ?jobs alg inst =
  Solver.solve ?rng ?jobs (solver_of_algorithm alg) inst
