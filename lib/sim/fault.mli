(** Fault injection for the execution engine.

    The paper motivates heterogeneous constraints partly by disks whose
    available migration bandwidth changes with client traffic
    (Section I).  This module packages the operational fault model —
    transient transfer failures, disk crashes, and slowdowns that halve
    a disk's [c_v] mid-migration — as deterministic
    {!Migration.Engine.policy} values.  The engine consults the policy
    every executed round, retries failed transfers, quarantines the
    edges of crashed disks and re-plans the affected components under
    the degraded constraints; {!Simulator.run} drives a cluster through
    it. *)

(** [engine_policy ~seed ()] builds the stochastic policy the CLI and
    the fuzz harness inject: every attempted transfer independently
    fails with probability [fault_rate] (default [0.]), and the
    scheduled [(round, disk)] events crash or slow disks when the
    engine's round clock reaches them.  Decisions are drawn from a
    private RNG derived from [seed] only, so a [(seed, fault_rate,
    events)] tuple is a complete reproducer.  Each call returns a
    fresh policy with fresh RNG state — reuse a policy value across
    runs and the second run sees different draws.
    @raise Invalid_argument on a rate outside [0, 1) or a negative
    round. *)
val engine_policy :
  ?fault_rate:float ->
  ?crashes:(int * int) list ->
  ?slowdowns:(int * int) list ->
  seed:int ->
  unit ->
  Migration.Engine.policy

(** [random_calamities rng ~n_disks ~horizon ~crashes ~slowdowns]
    draws scheduled crash and slowdown events on distinct disks, at
    rounds uniform in [\[0, horizon)] — the helper behind the CLI's
    [--crash]/[--slow] counts.
    @raise Invalid_argument when more events than disks are asked. *)
val random_calamities :
  Random.State.t ->
  n_disks:int ->
  horizon:int ->
  crashes:int ->
  slowdowns:int ->
  (int * int) list * (int * int) list
