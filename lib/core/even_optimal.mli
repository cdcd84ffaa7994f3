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

    Step 4 is the paper's verbatim: extract [Δ̄] successive exact
    [c_v/2]-degree subgraphs by max-flow over the Figure 3 network,
    with {!Netflow.Bmatching.peel}.  Feasibility at every iteration is
    the paper's Lemma 4.1/4.2, asserted at runtime. *)

(** [schedule inst] is an optimal schedule: [n_rounds <= lb1 inst],
    with equality whenever the instance has items (trailing
    padding-only rounds are dropped).  Each round is one max-flow run
    on the calling domain, over one network allocated once per plan.
    @raise Invalid_argument if some [c_v] is odd. *)
val schedule : Instance.t -> Schedule.t
