(** Optimal migration scheduling for even transfer constraints
    (the paper's Section IV, Theorem 4.1).

    When every [c_v] is even, a schedule using exactly
    [Δ̄ = max_v ceil(d_v / c_v)] rounds — the first lower bound, hence
    optimal — always exists and is computable in polynomial time:

    + pad the transfer graph with self-loops and dummy edges until
      every node has degree exactly [c_v * Δ̄] (even);
    + orient all edges along Euler circuits;
    + form the bipartite graph [H] on [v_out]/[v_in] copies, where both
      copies of [v] have degree [c_v * Δ̄ / 2];
    + decompose [H] into [Δ̄] spanning sub-graphs in which [v] appears
      exactly [c_v] times — each is one feasible round.

    Two decompositions of [H] are implemented:

    - [`Flows] — the paper's Step 4 verbatim: extract [Δ̄] successive
      exact [c_v/2]-degree subgraphs by max-flow (the Figure 3
      network).  Feasibility at every iteration is the paper's
      Lemma 4.1/4.2, asserted at runtime.
    - [`Konig] — split each [H]-copy into [c_v/2] unit nodes (evenly,
      so each split node has degree exactly [Δ̄]) and König-color the
      resulting [Δ̄]-regular bipartite multigraph with [Δ̄] colors.

    Both produce exactly [Δ̄] rounds; the test
    [even_konig_matches_flows] in [test/test_migration.ml] checks
    [`Konig] against LB1, the count [`Flows] meets.  Both extract
    their matchings with {!Netflow.Bmatching.peel}. *)

(** [schedule ?method_ inst] is an optimal schedule:
    [n_rounds <= lb1 inst], with equality whenever the instance has
    items (trailing padding-only rounds are dropped).
    Default method: [`Flows].  Each round is one max-flow run on the
    calling domain, over one network allocated once per plan.
    @raise Invalid_argument if some [c_v] is odd. *)
val schedule : ?method_:[ `Flows | `Konig ] -> Instance.t -> Schedule.t
