(** Greedy instance minimization for failing fuzz cases.

    Given an instance on which a property fails (the fuzz harness
    passes "this solver's schedule does not certify"), {!minimize}
    searches for a smaller instance that still fails, so the printed
    reproducer is readable: delta-debugging-style edge-chunk removal
    (halving window sizes down to single edges), then capacity halving
    (whole instance, then disk by disk), iterated to a local minimum.
    Nodes isolated by edge removal are dropped and ids compacted, so a
    shrunk reproducer round-trips through {!Instance.to_string}.

    The predicate must be deterministic (re-seed any solver run inside
    it): shrinking re-evaluates it on every candidate. *)

(** [minimize ~fails inst] is a locally-minimal instance on which
    [fails] still holds.  Each accepted reduction counts as one step;
    at most 400 steps bound the total work.
    @raise Invalid_argument if [fails inst] is already false. *)
val minimize : fails:(Instance.t -> bool) -> Instance.t -> Instance.t
