(** Instance analysis: what shape is this migration problem?

    One call summarizing everything an operator wants to know before
    planning: size, connectivity, degree and constraint distributions,
    parallel-edge structure, the two lower bounds and which one binds,
    and which algorithm the planner would pick.  Backs the CLI's
    [analyze] command. *)

type report = {
  disks : int;
  items : int;
  components : int;            (** connected components with edges count toward planning independence *)
  degrees : Mgraph.Stats.summary;
  degree_ratios : Mgraph.Stats.summary;  (** per-disk ⌈d_v/c_v⌉ *)
  cap_histogram : (int * int) list;      (** (capacity, disk count), ascending *)
  max_multiplicity : int;
  all_caps_even : bool;
  lb1 : int;
  lb2 : int;
  binding_bound : [ `Degree | `Gamma | `Tie ];
  suggested_algorithm : string;          (** planner [auto] picks *)
}

val analyze : ?rng:Random.State.t -> Instance.t -> report
val pp : Format.formatter -> report -> unit
