(** End-to-end migration scenarios.

    Each scenario builds a cluster in some "before" state and a target
    placement for the "after" state — the three operational stories the
    paper's introduction motivates: demand-driven rebalancing, disk
    additions, and disk removals/decommissioning.  Feed the result to
    {!Storsim.Simulator.run} with a planner and fault policy of your
    choice. *)

type t = {
  name : string;
  cluster : Storsim.Cluster.t;
  target : Storsim.Placement.t;
  demands : float array;
}

(** Demand shift between epochs forces a new balanced layout.
    [caps] is cycled over disks (heterogeneous device generations);
    [shift_fraction] of items change popularity rank. *)
val rebalance :
  Random.State.t ->
  n_disks:int ->
  n_items:int ->
  ?zipf_s:float ->
  ?shift_fraction:float ->
  ?caps:int list ->
  unit ->
  t

(** [n_new] empty disks join; enough items move onto them to even out
    item counts (minimal-movement retarget, old data mostly stays). *)
val disk_addition :
  Random.State.t ->
  n_old:int ->
  n_new:int ->
  n_items:int ->
  ?old_cap:int ->
  ?new_cap:int ->
  unit ->
  t

(** The last [n_remove] disks are decommissioned: their items evacuate
    to the survivors, which may not exceed their fair share. *)
val disk_removal :
  Random.State.t ->
  n_disks:int ->
  n_remove:int ->
  n_items:int ->
  ?caps:int list ->
  unit ->
  t

(** A disk dies outright: like removal, but the evacuating transfers
    are re-sourced from the replica disk (next disk in ring order) —
    modelling re-replication from surviving copies. *)
val failure_recovery :
  Random.State.t -> n_disks:int -> failed:int -> n_items:int ->
  ?caps:int list -> unit -> t

(** Restriping after expansion: a striped multimedia array
    ({!Layout.striped}) grows from [n_old] to [n_old + n_new] disks.
    [`Full] recomputes the stripe over the new width (the classic
    approach — it relocates almost every block); [`Minimal] moves only
    enough blocks to even out the load.  The pair quantifies what
    stripe-purity costs in migration volume. *)
val restripe :
  Random.State.t ->
  n_old:int ->
  n_new:int ->
  n_objects:int ->
  blocks_per_object:int ->
  ?cap:int ->
  mode:[ `Full | `Minimal ] ->
  unit ->
  t
