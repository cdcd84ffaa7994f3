(** Maximum flow (Dinic's algorithm).

    Used by the even-capacity scheduler, through {!Bmatching}, to
    extract the exact [c_v/2]-matchings of the paper's Figure 3 flow
    network. *)

(** A network laid out row-major: the arcs leaving node [v] sit at
    positions [offsets.(v) .. offsets.(v+1) - 1], and the arc at
    position [p] goes to [head.(p)] with residual capacity [cap.(p)];
    its reverse arc sits at position [rev.(p)].  [offsets] has length
    [n + 1] for [n] nodes; slots past [offsets.(n)] are ignored, so a
    caller may reuse arrays sized for a larger network. *)
type rows = {
  offsets : int array;
  head : int array;
  cap : int array;
  rev : int array;
}

(** [dinic rows ~s ~t] augments [rows.cap] in place to a maximum
    [s]-[t] flow and returns its value.  Each phase scans rows
    contiguously and stops its BFS as soon as [t] is labelled; the DFS
    only extends paths towards [t], so both skip dead ends and nothing
    else.  Complexity O(V^2 E); O(E sqrt V) on unit-capacity bipartite
    networks, the case this repo exercises.  Afterwards the nodes
    residual-reachable from [s] (through arcs with [cap > 0]) form a
    minimum cut.
    @raise Invalid_argument if [s = t]. *)
val dinic : rows -> s:int -> t:int -> int
