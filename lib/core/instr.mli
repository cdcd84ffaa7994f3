(** Structured instrumentation for the planner pipeline.

    Process-wide counters and timers recorded by every stage of the
    planning stack — Kempe flips in {!Coloring.Recolor}
    (["recolor.kempe_flips"]), augmenting paths in Dinic max-flow
    (["flow.augmenting_paths"]), phase timings in
    {!Hetero_coloring} / {!Even_optimal} / {!Saia} / {!Orbits}, and
    the decompose/solve/merge spans of {!Pipeline}.

    Typical per-run use:
    {[
      Migration.Instr.reset ();
      let sched = Migration.Solver.solve ~rng Migration.Pipeline.auto inst in
      let snap = Migration.Instr.snapshot () in
      print_string (Migration.Instr.to_json snap)
    ]}

    This is {!Probes} re-exported; see that interface for the cell
    semantics (cheap, always-on, schema stable across {!reset}). *)

include module type of Probes
