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
  edge_left : int array;
      (** edge [i] joins left node [edge_left.(i)] ... *)
  edge_right : int array;
      (** ... to right node [edge_right.(i)]; parallel edges are
          distinct edges *)
}

(** [peel p ~rounds f] extracts [rounds] exact b-matchings in a row,
    each from the edges the earlier ones left, over one network
    allocated once.  An exact b-matching is a subgraph in which every
    left node [l] has degree exactly [left_cap.(l)] and every right
    node [r] exactly [right_cap.(r)].  Round [r] calls [f r e] for
    each edge [e] it selects, in the order of the edges it was given:
    all edges in index order for round 0, and for each later round the
    edges the round before left, in reverse order.  Returns [false],
    without reporting that round, at the first round with no exact
    b-matching (always, for [rounds > 0], when
    [sum left_cap <> sum right_cap]).

    Each round is one max-flow run over the whole problem, however many
    connected components the bipartite graph has.  Augmenting paths
    never cross components, so each component's part of a round is
    exactly what the same round on that component alone (edges in the
    same relative order) would select.
    @raise Invalid_argument on vectors of the wrong length, an
    endpoint out of range, a negative capacity, or [rounds < 0]. *)
val peel : problem -> rounds:int -> (int -> int -> unit) -> bool
