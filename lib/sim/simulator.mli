(** Cluster migrations through the execution engine.

    Diffs the cluster's placement against a target, executes the
    resulting migration with {!Migration.Engine.run} (which certifies
    every plan before a transfer runs), moves each {e completed}
    transfer of the flight log onto the cluster, and costs the executed
    rounds under the bandwidth-splitting model.  The engine's flight
    log is the only execution record: this module adds a cost fold,
    not a second executor. *)

type report = {
  rounds : int;               (** executed rounds (idle rounds excluded) *)
  wall_time : float;          (** sum of round durations *)
  per_round : float array;
  items_moved : int;          (** completed transfers *)
  max_streams : int;          (** busiest disk-round stream count *)
  mean_utilization : float;   (** used streams / Σc_v, averaged *)
}

(** [of_execution ~disks job x] costs a flight log.  Every round
    counts its {e attempted} transfers — a failed attempt held its
    streams for the whole round — so rounds, [per_round], [wall_time]
    and [max_streams] agree with {!Trace.capture_execution}'s chart;
    [items_moved] counts completed transfers only.  Utilization is
    relative to the disks' nominal constraints. *)
val of_execution :
  disks:Disk.t array -> Cluster.job -> Migration.Certify.execution -> report

(** [run ~policy cluster ~target] plans the placement diff and executes
    it through {!Migration.Engine.run} under [policy]; [rng], [jobs]
    and [choose] are passed through to the engine ([choose] defaults to
    {!Migration.Pipeline.auto_choose}; {!Migration.Pipeline.choose_of}
    plans with one solver).  The cluster moves by exactly
    the completed transfers, so it reaches [target] unless the policy
    quarantined something.  Replay the outcome's execution through
    {!Migration.Certify.certify_execution} to audit the run.
    @raise Migration.Engine.Plan_rejected when a plan fails its
    certification (an infeasible schedule never touches the cluster). *)
val run :
  ?rng:Random.State.t ->
  ?jobs:int ->
  ?choose:(Migration.Instance.t -> Migration.Solver.t) ->
  policy:Migration.Engine.policy ->
  Cluster.t ->
  target:Placement.t ->
  Migration.Engine.outcome * report

val pp_report : Format.formatter -> report -> unit
