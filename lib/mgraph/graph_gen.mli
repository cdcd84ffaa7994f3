(** Deterministic random and structured multigraph generators.

    Every randomized generator takes an explicit [Random.State.t] so
    that tests and benchmarks are reproducible. *)

(** [gnm rng ~n ~m] draws [m] edges uniformly over pairs of distinct
    nodes. *)
val gnm : Random.State.t -> n:int -> m:int -> Multigraph.t

(** Configuration-model multigraph: each node gets [deg] stubs and
    stubs are paired uniformly at random.  [n * deg] must be even.
    Self-loops may occur (they keep degrees exact). *)
val regular : Random.State.t -> n:int -> deg:int -> Multigraph.t

(** Random bipartite multigraph with sides [0..n1-1] and
    [n1..n1+n2-1] and [m] edges. *)
val bipartite : Random.State.t -> n1:int -> n2:int -> m:int -> Multigraph.t

(** Preferential-attachment-flavoured multigraph: endpoints are chosen
    proportionally to [current degree + 1], giving the skewed degree
    distributions of storage hot spots. *)
val power_law : Random.State.t -> n:int -> m:int -> Multigraph.t

(** [clustered rng ~k ~size ~intra ~inter] builds [k] clusters of
    [size] nodes with [intra] random edges inside each cluster and
    [inter] random edges between clusters — the dense-subset workloads
    that make the paper's [Γ] bound bite (Lemma 3.1). *)
val clustered :
  Random.State.t -> k:int -> size:int -> intra:int -> inter:int -> Multigraph.t

(** Simple cycle on [n >= 3] nodes. *)
val cycle : int -> Multigraph.t

(** Simple path on [n >= 1] nodes. *)
val path : int -> Multigraph.t

(** Complete simple graph on [n] nodes. *)
val complete : int -> Multigraph.t

(** [triangle_stack m] is the instance of the paper's Figure 2: three
    nodes with [m] parallel edges between every pair. *)
val triangle_stack : int -> Multigraph.t

(** [star ~leaves] with one central hub — the degenerate bottleneck
    case for heterogeneous constraints. *)
val star : leaves:int -> Multigraph.t

(** A reconstruction of the worked example of the paper's Figure 1:
    a small transfer multigraph with parallel edges.  (The published
    text does not reproduce the figure's exact edge list; this is a
    representative 5-node instance with multiplicities, used by the
    quickstart example and E1.) *)
val example_fig1 : unit -> Multigraph.t
