(** Demand-driven data layouts.

    A layout assigns items to disks so that demand is balanced in
    proportion to disk service weights — the load-balancing objective
    whose reconfiguration over time is the paper's first motivating
    scenario.  The greedy LPT heuristic (heaviest item to the
    relatively least-loaded disk) is the standard practical choice. *)

(** [balance ~demands ~weights] places each item on a disk; disk [d]
    aims to carry a demand share proportional to [weights.(d)].
    @raise Invalid_argument on empty or non-positive weights. *)
val balance : demands:float array -> weights:float array -> Storsim.Placement.t

(** Demand carried per disk under a placement. *)
val disk_demand :
  demands:float array -> Storsim.Placement.t -> n_disks:int -> float array

(** Max over disks of (carried demand / weight share), a load-balance
    quality measure ([1.0] = perfect). *)
val imbalance :
  demands:float array -> weights:float array -> Storsim.Placement.t -> float

(** Striped layouts (staggered striping, Berson et al., cited as the
    multimedia-placement reference in the paper's related work):
    object [o]'s block [b] — item id [o * blocks_per_object + b] —
    lands on disk [(o + b) mod n_disks].  Sequential reads of an
    object then fan across disks, and consecutive objects start one
    disk apart.
    @raise Invalid_argument on non-positive dimensions. *)
val striped :
  n_objects:int -> blocks_per_object:int -> n_disks:int -> Storsim.Placement.t

(** Migration-aware rebalancing: starting from [current], move items
    {e only} off disks that exceed [(1 + tolerance)] times their fair
    demand share, onto the relatively least-loaded disks, until every
    disk is within tolerance (or no single move helps).  Trades a
    bounded residual imbalance for far fewer items migrated than a
    from-scratch {!balance} — the knob benchmark E17 sweeps.
    @raise Invalid_argument if [tolerance < 0]. *)
val rebalance_incremental :
  demands:float array ->
  weights:float array ->
  current:Storsim.Placement.t ->
  tolerance:float ->
  Storsim.Placement.t
