(** Directed flow networks with integer capacities.

    Arcs are created in pairs: adding an arc also adds its residual
    reverse arc of capacity 0.  Arc [a] and its reverse [a lxor 1]
    always live at adjacent indices, the classic residual-graph
    encoding. *)

type t

val create : n:int -> t
val n_nodes : t -> int

(** Adds one more node, returns its id. *)
val add_node : t -> int

(** [add_arc net ~src ~dst ~cap] returns the id of the forward arc.
    @raise Invalid_argument on a negative capacity or bad endpoint. *)
val add_arc : t -> src:int -> dst:int -> cap:int -> int

val n_arcs : t -> int
(** Counts both forward and residual arcs (always even). *)

val src : t -> int -> int
val dst : t -> int -> int

(** Remaining capacity of an arc (forward or residual). *)
val residual : t -> int -> int

(** Flow currently pushed through a {e forward} arc: the capacity of
    its reverse arc. *)
val flow : t -> int -> int

(** [push net a x] moves [x] units along arc [a] (decreasing its
    residual, increasing the reverse arc's).
    @raise Invalid_argument if [x] exceeds the residual. *)
val push : t -> int -> int -> unit

(** Arc ids leaving a node (forward and residual alike), in increasing
    id order. *)
val out_arcs : t -> int -> int array

(** Flat adjacency: row [v] is
    [arc_ids.(offsets.(v)) .. arc_ids.(offsets.(v+1) - 1)], in the
    order {!out_arcs} returns.  [offsets] has length [n+1]. *)
type adj = { offsets : int array; arc_ids : int array }

(** The flat adjacency view, built once by a counting sort of the arcs
    by source and cached; {!add_arc} and {!add_node} drop the cache.
    The arrays must not be written. *)
val freeze : t -> adj

(** [(dsts, caps)] backing arrays for hot kernels: index by arc id,
    valid below {!n_arcs}.  [caps] is the live residual state — a
    kernel writing [caps.(a)]/[caps.(a lxor 1)] performs an unchecked
    {!push}.  Both arrays are invalidated by the next {!add_arc};
    capture them per call. *)
val raw : t -> int array * int array

(** Resets all flow to zero. *)
val reset : t -> unit
