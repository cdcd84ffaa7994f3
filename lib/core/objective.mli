(** SLA-aware objectives: weighted group completion times.

    Rounds-to-finish (the paper's makespan) treats all items alike;
    when edges carry tenant/group tags ({!Instance.create}[ ?groups]),
    what each tenant observes is its own {e completion round}
    [C_g] — the 1-based index of the last round moving one of its
    items.  Following the graph-scheduling-with-group-completion-times
    line, this module evaluates and optimizes the weighted sum
    [sum_g w_g * C_g]:

    - {!reorder} is a post-pass on {e any} feasible schedule: it
      permutes whole rounds (feasibility and makespan are untouched)
      so groups complete in priority order — weight descending, group
      id ascending — each group's rounds appended earliest-first.
      The result satisfies the no-inversion invariant
      {!Certify.check_sla} audits: every round before [C_g] serves at
      least one group of equal-or-higher priority.
    - {!sla_greedy} plans first-fit over edges sorted by group
      priority — a [sum w_g * C_g] heuristic that may pay extra
      rounds (the price of fairness the bench quantifies).

    Untagged instances behave as one group of weight one: every
    function below degrades to the makespan view. *)

(** [completion_rounds inst sched] is [C_g] per group id (1-based
    round index; [0] for a group with no items). *)
val completion_rounds : Instance.t -> Schedule.t -> int array

(** [sum_g w_g * C_g] — the SLA objective. *)
val weighted_sum : Instance.t -> Schedule.t -> int

(** [percentile sorted q] is the nearest-rank [q]-th percentile
    ([q] in [0, 100]) of an ascending array; [0] when it is empty.
    {!Service} reports its request latencies with it too, so the two
    metric families compare directly. *)
val percentile : int array -> float -> int

(** Nearest-rank (p50, p99) over the non-empty groups' completion
    rounds. *)
val completion_percentiles : Instance.t -> Schedule.t -> int * int

(** Group ids sorted by priority: weight descending, id ascending. *)
val priority_order : Instance.t -> int array

(** Priority reordering post-pass.  Pure round permutation: the edge
    multiset of every round and the round count are preserved, so a
    feasible input stays feasible with the {e same makespan} — the
    post-pass can never pay rounds for fairness.  The highest-priority
    group always completes as early as any round permutation allows;
    lower-priority groups inherit whatever the nesting leaves. *)
val reorder : Instance.t -> Schedule.t -> Schedule.t

(** [claim ?solver ~reordered inst sched] packages the planner's SLA
    assertions for {!Certify.check_sla} to audit independently. *)
val claim :
  ?solver:string -> reordered:bool -> Instance.t -> Schedule.t ->
  Certify.sla_claim

(** Record the SLA metrics of a planned schedule on the [sla.*]
    instrumentation cells ([sla.groups], [sla.weighted_sum],
    [sla.p50_completion], [sla.p99_completion]) so they surface in
    [--metrics-json]. *)
val observe : Instance.t -> Schedule.t -> unit

(** The ["sla-greedy"] planner, listed in {!Pipeline.solvers}. *)
val sla_greedy : Solver.t
