(** Execution traces and ASCII Gantt rendering.

    Records which disk runs how many streams in every round of a
    schedule, and renders the matrix as a terminal chart — one row per
    disk, one column per round, glyph by how much of the disk's
    transfer constraint the round uses.  Used by the examples and
    handy when eyeballing why a schedule has the length it has (the
    busiest row is the [LB1] bottleneck; a column of saturated rows is
    a [Γ]-tight round). *)

type t

(** [capture ~disks job sched] — per-round stream counts and durations
    under the bandwidth-splitting model. *)
val capture :
  disks:Disk.t array -> ?sizes:float array -> Cluster.job ->
  Migration.Schedule.t -> t

(** [capture_execution ~disks job x] charts an {e executed} migration
    ({!Migration.Engine.run}'s flight log) instead of a plan: one
    column per executed round, counting every {e attempted} transfer —
    failed attempts held their streams for the whole round, which is
    exactly the congestion the chart should show.  Retried transfers
    appear in every round they were attempted. *)
val capture_execution :
  disks:Disk.t array -> ?sizes:float array -> Cluster.job ->
  Migration.Certify.execution -> t

val n_rounds : t -> int
val n_disks : t -> int

(** Per-round durations under the bandwidth-splitting model. *)
val durations : t -> float array

(** [streams t ~round ~disk]. *)
val streams : t -> round:int -> disk:int -> int

(** Fraction of disk [d]'s total stream-slots the schedule uses. *)
val utilization_by_disk : t -> float array

(** ASCII chart.  Glyphs per cell: ['#'] saturated ([streams = c_v]),
    ['+'] more than half, ['.'] active, [' '] idle.  At most
    [max_columns] (default 72) round columns are shown; longer
    schedules are re-binned. *)
val render : ?max_columns:int -> t -> string
