(** Work-conserving (round-free) execution of migrations.

    The paper's model — and {!Migration.Engine} — executes schedules in
    lock-step rounds: a round ends only when its slowest transfer
    finishes.  Real data paths are work-conserving: a transfer starts
    the moment both endpoints have a free stream slot.  This module is
    a fluid-flow discrete-event engine for that regime, used to
    quantify what the round abstraction costs (benchmark E15):

    - every disk [v] runs at most [c_v] concurrent streams and divides
      its bandwidth evenly among them;
    - a transfer's instantaneous rate is the minimum of its endpoints'
      per-stream rates; rates are recomputed whenever any transfer
      starts or finishes;
    - admission is greedy in a caller-chosen priority order
      (work-conserving: a blocked transfer never blocks a later one
      that could run).

    Executing a planner's schedule with {!By_schedule} keeps the
    planner's intent (earlier rounds first) but drops the barriers;
    comparing it against {!Bandwidth.schedule_duration} isolates the barrier
    cost, while {!Fifo} shows what no planning at all achieves. *)

type policy =
  | Fifo  (** admit in edge-id order *)
  | Ordered of int array
      (** explicit priority per edge id; smaller runs earlier *)
  | By_schedule of Migration.Schedule.t
      (** priority = round index in the given schedule *)

type event = { item : int; start : float; finish : float }

type report = {
  makespan : float;
  events : event array;      (** indexed by edge id *)
  mean_active : float;       (** time-averaged concurrent transfers *)
  max_active : int;
}

(** [run ~disks ?sizes ?network job policy] simulates until every item
    is transferred.  [sizes] maps edge ids to item sizes (default 1.0);
    [network] defaults to the paper's full-bisection fabric.
    @raise Invalid_argument if a schedule policy does not cover the
    job's edges, or a size is non-positive. *)
val run :
  disks:Disk.t array -> ?sizes:float array -> ?network:Network.t ->
  Cluster.job -> policy -> report
