(** Degree-constrained subgraphs of bipartite graphs via max-flow.

    This is the workhorse of the paper's Section IV, step 4: given the
    Euler-oriented bipartite graph [H] on [v_out]/[v_in] copies, extract
    a subgraph in which node [v] has degree exactly [c_v / 2] on both
    sides (a "[c_v/2]-matching").  The reduction is the flow network of
    the paper's Figure 3: source → left nodes with capacity [left_cap],
    unit-capacity arcs for edges, right nodes → sink with capacity
    [right_cap]. *)

type problem = {
  n_left : int;
  n_right : int;
  left_cap : int array;   (** length [n_left] *)
  right_cap : int array;  (** length [n_right] *)
  edges : (int * int) array;
      (** [(l, r)] pairs; parallel pairs are distinct edges *)
}

(** Largest subgraph respecting both capacity vectors.  Returns the
    selection mask (indexed like [edges]) and its size.

    One max-flow run covers the whole problem, however many connected
    components the bipartite graph has.  Augmenting paths never cross
    components, so each component's part of the selection is exactly
    what solving that component alone (edges in the same relative
    order) would select. *)
val solve_max : problem -> bool array * int

(** A subgraph in which every left node [l] has degree exactly
    [left_cap.(l)] and every right node [r] exactly [right_cap.(r)];
    [None] if no such subgraph exists (requires
    [sum left_cap = sum right_cap]). *)
val solve_exact : problem -> bool array option

(** Degrees induced by a selection mask; exposed for tests. *)
val degrees : problem -> bool array -> int array * int array
