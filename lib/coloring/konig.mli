(** Optimal edge coloring of bipartite multigraphs (König's theorem).

    Every bipartite multigraph can be edge-colored with exactly [Δ]
    colors.  This is the combinatorial heart of the paper's Section IV:
    the Euler-oriented graph [H] on [v_out]/[v_in] copies is bipartite,
    and the repeated [c_v/2]-matchings are König color classes in
    disguise.  The implementation makes the connection concrete:

    + pad the graph to a [Δ]-regular bipartite multigraph (equalize
      side sizes with virtual nodes, then join under-full nodes with
      dummy edges);
    + extract a perfect matching by max-flow ([Δ] times) — each
      matching drops every degree by one, so regularity is preserved
      and Hall's condition keeps the next matching feasible;
    + color the real edges of the [i]-th matching with color [i].

    Compare {!Vizing} ([Δ+1] on simple graphs) and {!Shannon}
    ([3Δ/2] on general multigraphs): bipartiteness buys exactness. *)

(** [sides g] is [Some side] with a 2-coloring of the nodes if [g] is
    bipartite (isolated nodes go to side [false]), [None] otherwise
    (including any self-loop). *)
val sides : Mgraph.Multigraph.t -> bool array option

(** [color g] — complete unit-capacity coloring with exactly
    [max_degree g] colors (0 colors for an edgeless graph).
    @raise Invalid_argument if [g] is not bipartite. *)
val color : Mgraph.Multigraph.t -> Edge_coloring.t
