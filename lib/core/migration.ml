(** Heterogeneous data migration — the paper's primary contribution.

    Umbrella module re-exporting the library: build an {!Instance},
    pick a planner from {!Pipeline.solvers}, and {!Solver.solve} it
    into a validated {!Schedule}. *)

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
