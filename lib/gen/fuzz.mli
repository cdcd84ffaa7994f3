(** The differential fuzz loop.

    For every generated instance, run each applicable planner
    through {!Migration.Pipeline}, certify the result with
    {!Migration.Certify} (independent re-check plus the solver's
    stated guarantee), and cross-check solvers against each other:

    - on small instances, {!Migration.Exact} provides ground truth —
      no solver may use fewer rounds than the proven optimum, and the
      optimum itself must certify;
    - ["even-opt"] must tie [LB1] exactly on all-even instances (part
      of its certified guarantee);
    - the forwarding planner must validate and never use more rounds
      than the direct schedule it starts from.

    A failing case is shrunk with {!Migration.Shrink} against the same
    deterministic check, so the reported reproducer is locally minimal
    and regenerable from its [(family, seed, size)] triple.

    Instrumentation ({!Migration.Instr}): per-solver wall time under
    ["fuzz.solve.<solver>"], instance/run/violation counters under
    ["fuzz.*"], and the per-solver certified-gap totals under
    ["fuzz.gap.<solver>"]. *)

type failure = {
  family : string;
  seed : int;  (** derived per-instance seed: regenerate with
                   [Families.instance ~seed ~size] *)
  size : int;
  solver : string;
  messages : string list;  (** rendered violations, first one primary *)
  instance : Migration.Instance.t;
  shrunk : Migration.Instance.t;
}

(** Gap histogram of one solver over one family; [gap] is
    [rounds - lb], the certified optimality gap. *)
type solver_stats = {
  solver : string;
  runs : int;
  certified : int;
  max_gap : int;
  gaps : (int * int) list;  (** (gap, occurrences), ascending by gap *)
}

type family_report = {
  family : string;
  instances : int;
  per_solver : solver_stats list;
      (** the planners' order, then forwarding; applicable only *)
}

type report = {
  family_reports : family_report list;
  total_instances : int;
  total_runs : int;
  failures : failure list;
}

(** [derived_seed ~base ~index] is the per-instance seed the loop uses
    — exposed so a printed reproducer can also be regenerated through
    the CLI's [generate --family]. *)
val derived_seed : base:int -> index:int -> int

(** [run ~families ~count ~seed ()] fuzzes [count] instances per
    family.  [size] (default 12) scales the instances; [solvers]
    (default {!Migration.Pipeline.solvers}) is the differential set,
    and the forwarding planner follows it on every instance.  The
    ground-truth search runs on instances with at most 10 items and
    10 disks, within 300,000 branch-and-bound nodes.

    [jobs] (default [1]) sets the {!Exec} worker-domain budget:
    instance generation and the (instance x solver) cells run on the
    pool, while the failure merge and the shrinker stay sequential.
    {b Determinism contract}: the report is byte-identical for every
    [jobs] value — every cell derives its RNGs from its own
    [(seed, solver name)] pair, cells share no mutable state, and
    tallies, failure ordering, and {!Migration.Instr} accounting happen
    in the sequential merge in the same (family, index, solver) order the
    all-sequential loop used.  Deterministic for fixed arguments. *)
val run :
  ?size:int ->
  ?solvers:Migration.Solver.t list ->
  ?jobs:int ->
  families:Families.family list ->
  count:int ->
  seed:int ->
  unit ->
  report

(** {1 Soak fuzzing}

    Instead of certifying {e plans}, execute them: drive one generated
    instance per cell through an executor and check what it did.  One
    loop serves every executor; each comes in as a drive:

    - {!engine_drive}: {!Migration.Engine.run} under an injected fault
      policy, every execution certified by
      {!Migration.Certify.certify_execution} (exactly-once modulo the
      quarantine, per-round loads under the degraded capacities in
      force, no traffic through crashed disks, executed rounds within
      the certified replan budget);
    - the streaming service (build it from [Service.soak]), its
      concatenated flight log certified by
      {!Migration.Certify.certify_service};
    - the distributed runner (build it from [Distproto.Runner.run])
      under scripted kills, resumed to convergence, its flight log
      certified and byte-compared to the in-process engine's.

    The service and the distributed runner sit above this library in
    the layering DAG, so their drives are built by the caller.

    Instrumentation: drive calls and failing drive calls are counted
    under ["fuzz.soaks"] and ["fuzz.soak_violations"]. *)

(** Per-family sums of the drives' rows. *)
type soak_report = {
  per_family : (string * int list) list;
      (** input order; a failing cell adds nothing *)
  soaks : int;  (** drive calls, failing ones included *)
  soak_failures : failure list;  (** [solver] is the loop's [label] *)
}

(** [soak ~label ~columns ~drive ~families ~count ~seed ()] drives
    [count] instances per family ([size] defaults to 12).
    [drive ~inst ~seed] returns one row of counts, one per column, or
    the violation messages; it must be deterministic in
    [(inst, seed)].  A failing instance is shrunk with
    {!Migration.Shrink} against [Result.is_error (drive ...)], so the
    reproducer in [shrunk] is locally minimal; [instance] regenerates
    from the failure's [(family, seed, size)] triple.

    [jobs] (default [1]) runs the cells on an {!Exec} pool; the merge
    and the shrinker stay sequential in (family, index) submission
    order, so the report is byte-identical for every [jobs] value.  A
    drive that forks must run with [jobs = 1]: forking with live
    worker domains is unsafe. *)
val soak :
  ?size:int ->
  ?jobs:int ->
  label:string ->
  columns:string list ->
  drive:
    (inst:Migration.Instance.t -> seed:int -> (int list, string list) result) ->
  families:Families.family list ->
  count:int ->
  seed:int ->
  unit ->
  soak_report

(** The columns of an {!engine_drive} row. *)
val engine_columns : string list

(** [engine_drive ~policy ~inst ~seed] runs the engine once on [inst]
    and certifies the execution, including the exactly-once
    accounting (completed + quarantined = items).  Its row is one run,
    then the items completed and quarantined, the replans, the
    retries, and the executed and idle rounds.  [policy ~inst ~seed]
    builds the
    fault policy for the cell — pass [Storsim.Fault.engine_policy]-based
    closures from callers that link the simulation layer (this library
    deliberately does not); it must be deterministic in
    [(inst, seed)]. *)
val engine_drive :
  policy:(inst:Migration.Instance.t -> seed:int -> Migration.Engine.policy) ->
  inst:Migration.Instance.t ->
  seed:int ->
  (int list, string list) result
