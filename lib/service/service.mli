(** The online migration service: a closed-loop streaming daemon.

    Every other entry point in this repository is batch — one instance
    in, one schedule out.  [Service.run] is the production shape: a
    stream of migration {e triggers} (explicit retargets, Zipf demand
    shifts re-laid out through {!Workloads.Layout}, disk
    addition/drain/failure) arrives over a round clock while transfers
    from earlier triggers are still in flight.  The service
    admission-controls each trigger, batches arrivals into {e epochs}
    of at most [epoch_rounds] executed rounds, plans the outstanding
    placement diff as a migration instance, and drives it through
    {!Migration.Engine.run} under a per-epoch fault policy — warm: the
    previous epoch's unexecuted plan suffix seeds the planner, so
    components untouched by new arrivals or faults keep their rounds
    verbatim and only dirtied components re-solve.

    Requests are tracked move by move with supersession: a newer
    retarget of the same item absorbs the older one, and the older
    request's move counts as settled the moment it is superseded.  A
    request completes at the global round when its last owed move is
    in effect or superseded; [completed - arrival] is its
    request-to-completion latency ([p50]/[p99] are first-class report
    metrics).  Quarantined transfers and dead-target moves abandon
    their owning request, stickily.  Items resident on a disk that
    fails are re-replicated ("patched") onto the next active disk in
    ring order at the following epoch boundary.

    The whole run is recorded as a {!Migration.Certify.service_execution}
    — the concatenated flight log — and is replayable through
    {!Migration.Certify.certify_service}, which shares no state with
    the service.

    {b Determinism}: for fixed arguments the report (and its printed
    form) is bit-identical at every [jobs] value; no wall-clock time
    is read anywhere in the loop.

    Instrumentation ({!Migration.Instr}): ["service.epochs"],
    ["service.absorbed"], ["service.rejected"], ["service.transfers"],
    ["service.repairs"], and timer ["service.epoch"]. *)

type trigger =
  | Retarget of (int * int) list
      (** explicit [(item, target)] moves; within one request the last
          retarget of an item wins *)
  | Demand_shift of { fraction : float }
      (** permute this fraction of the demand weights
          ({!Workloads.Demand.shift}) and re-layout incrementally over
          the active disks *)
  | Add_disk of { cap : int }
      (** grow the cluster; triggers an incremental re-layout onto the
          new disk *)
  | Remove_disk of { disk : int }
      (** drain: the disk stops being a target and its resident data
          evacuates to the demand-least-loaded active disks *)
  | Fail_disk of { disk : int }
      (** the disk dies at the epoch boundary: resident items are
          patched to the ring-successor, in-flight moves toward it are
          abandoned *)

(** [tenant] tags the request for per-tenant accounting ([>= 0]; use
    [0] when tenancy does not matter — single-tenant reports omit the
    per-tenant breakdown). *)
type request = { at : int; tenant : int; trigger : trigger }

(** Initial cluster state.  [caps] are per-disk transfer constraints
    ([c_v >= 1], also used as layout weights), [placement] maps item ->
    disk, [demands] the per-item demand weights driving re-layouts. *)
type cluster = {
  caps : int array;
  placement : int array;
  demands : float array;
}

type report = {
  epochs : int;
  total_rounds : int;    (** global rounds, idle and fast-forward included *)
  replans : int;         (** engine re-solve events across all epochs *)
  transfers : int;       (** completed transfers (superseded work included) *)
  repairs : int;         (** re-replication patches applied *)
  quarantined : int;     (** transfers dropped by the engine *)
  engine_retries : int;
  statuses : Migration.Certify.service_request_status array;
      (** per input request, in the caller's order *)
  latencies : (int * int) list;
      (** [(input index, completion - arrival)] for completed requests *)
  p50 : int;  (** request-to-completion latency percentiles, rounds *)
  p99 : int;
  tenants : (int * int * int * int) list;
      (** per-tenant [(tenant, completed, p50, p99)] over the same
          latencies, ascending tenant id — the SLA view of the stream *)
  truncated : bool;  (** [max_epochs] exhausted with work left *)
  execution : Migration.Certify.service_execution;
      (** the concatenated flight log {!Migration.Certify.certify_service}
          audits *)
}

(** [run cluster ~requests ()] serves the stream to completion (or
    [max_epochs] truncation, default [100_000]).  Requests need not be
    sorted; arrival order is [at] with ties in list order.  Invalid
    triggers are {e rejected} with a reason, never raised.
    [epoch_rounds] (default [16]) bounds each epoch's executed rounds;
    [policy ~epoch] builds the fault policy injected into that epoch's
    engine run (default: fault-free); [rng_seed] derives the
    demand-shift RNG and each epoch's planner RNG
    ([Random.State.make [| rng_seed; epoch; 0xe19 |]]); [tolerance]
    (default [0.05]) is the re-layout imbalance tolerance; [jobs] is
    the planner's worker-domain budget.
    @raise Invalid_argument on a malformed [cluster] or non-positive
    [epoch_rounds]/[max_epochs].
    @raise Migration.Engine.Plan_rejected if a planner produces an
    uncertifiable plan mid-flight (a library bug, never a fault or
    stream outcome). *)
val run :
  ?jobs:int ->
  ?epoch_rounds:int ->
  ?max_epochs:int ->
  ?rng_seed:int ->
  ?policy:(epoch:int -> Migration.Engine.policy) ->
  ?tolerance:float ->
  cluster ->
  requests:request list ->
  unit ->
  report

val pp_report : Format.formatter -> report -> unit

(** One line per input request: its terminal status. *)
val pp_statuses : Format.formatter -> report -> unit

(** {1 Trace files}

    The CLI's line format:
    {v
    # comment
    init disks=4 items=64 caps=3,3,2,2 zipf=1.1 seed=42
    at 0 retarget 0:1 5:2
    at 6 shift 0.3
    at 9 add cap=3
    at 12 remove 1
    at 15 fail 0
    v}
    [init] builds the cluster: seeded Zipf demands over [items] items
    ([zipf] is the skew [s], default [1.1]; [seed] defaults [0]), the
    initial placement balanced with {!Workloads.Layout.balance} under
    [caps] as weights ([caps] defaults to [2] everywhere).  Each cap must
    be [>= 1] and [zipf] a finite number [>= 0]; a key that is present
    but does not parse is an error, not the default. *)
val parse_trace : string list -> (cluster * request list, string) result

(** {1 Soak driver}

    The fuzz harness's cell: convert a generated migration instance
    into a service stream (each edge [(u, v)] becomes item [e] placed
    on [u] and retargeted to [v], split into staggered batches, with
    demand-shift / disk-failure / disk-addition triggers mixed in from
    the same seed), run the full loop under
    {!Storsim.Fault.engine_policy} at [fault_rate], and certify the
    concatenated flight log.  [(inst, seed)] is a complete
    reproducer. *)

type soak_stats = {
  soak_epochs : int;
  soak_rounds : int;
  soak_transfers : int;
  soak_completed : int;   (** requests completed *)
  soak_abandoned : int;
  soak_rejected : int;
}

(** [soak ~inst ~seed ()] returns [Error messages] when the certifier
    rejects the flight log, the accounting disagrees, or the run
    truncates — the shape the soak loop {!Gen.Fuzz.soak} shrinks
    against. *)
val soak :
  ?jobs:int ->
  ?epoch_rounds:int ->
  ?fault_rate:float ->
  inst:Migration.Instance.t ->
  seed:int ->
  unit ->
  (soak_stats, string list) result
