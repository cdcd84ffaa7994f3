(** Multiplicity halving (the closing remark of the paper's Section V).

    "A graph with even edge multiplicities can be colored by coloring a
    graph with halved edge multiplicities and then using each color
    twice" — which turns any coloring algorithm that is polynomial in
    [|E|] into one polynomial in [|V|] and the {e bits} of the edge
    multiplicities.  Transfer graphs with huge parallel classes (many
    items moving between the same disk pair, the common case in bulk
    migration) plan exponentially faster this way.

    Given an instance, this wrapper:
    + pairs up parallel edges, leaving at most one {e odd leftover}
      edge per disk pair;
    + recursively schedules the half instance (one edge per pair);
    + expands each half-round into two real rounds (one edge of every
      pair each — same per-disk footprint, hence feasible);
    + places each odd leftover, first-fit, into the first doubled
      round with spare capacity on both its disks;
    + schedules the leftovers that fit nowhere directly and appends
      their rounds.

    The recursion bottoms out at {!Hetero_coloring} (or
    {!Even_optimal} when all constraints are even) once the maximum
    multiplicity is small.

    Rounds used: at most [2 * R(G/2) + R(unplaced leftovers)].  No
    bound relative to the direct planner is proven; the test suite
    checks [2 * direct + 2] as a property on random fat instances. *)

type stats = {
  rounds : int;
  levels : int;        (** recursion depth taken *)
  base_edges : int;    (** edges scheduled by the base algorithm *)
}

(** [schedule ?rng ?threshold inst] — feasible schedule for any
    instance.  Recursion applies while the maximum multiplicity
    exceeds [threshold] (default 4). *)
val schedule :
  ?rng:Random.State.t -> ?threshold:int -> Instance.t -> Schedule.t

val schedule_stats :
  ?rng:Random.State.t -> ?threshold:int -> Instance.t -> Schedule.t * stats
