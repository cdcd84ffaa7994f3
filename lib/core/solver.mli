(** First-class planning algorithms.

    A solver packages one scheduling algorithm behind a uniform
    interface: a stable [name] (the CLI string), a capability
    predicate, and the solving function itself.  Solvers are plain
    immutable values; {!Pipeline.solvers} is the one list of the
    planners that exist, and a caller with a planner of its own (a
    test's deliberately broken one) passes it as a value. *)

(** Per-call context threaded through every solver.  Carries the RNG
    and the worker-domain budget today; anything else a solver may
    need later (deadlines, budgets) belongs here rather than in
    ad-hoc optional arguments. *)
type ctx = {
  rng : Random.State.t option;
  jobs : int;
      (** worker domains a composite solver (the pipeline) may use;
          [1] means fully sequential.  Monolithic solvers ignore it.
          Never changes the produced schedule — see
          {!Pipeline.solve}'s determinism contract. *)
}

type t = {
  name : string;  (** CLI spelling, e.g. ["hetero"] *)
  doc : string;   (** one-line description for listings *)
  can_solve : Instance.t -> bool;
      (** capability predicate — e.g. ["even-opt"] requires all-even
          constraints.  [solve] on an unsupported instance may raise. *)
  solve : ctx -> Instance.t -> Schedule.t;
}

(** [solve ?rng ?jobs s inst] is [s.solve { rng; jobs } inst] — the
    convenience entry point.  [jobs] defaults to [1] (sequential). *)
val solve :
  ?rng:Random.State.t -> ?jobs:int -> t -> Instance.t -> Schedule.t

(** {1 Built-ins}

    {!Pipeline} adds ["auto"] and lists them all in
    {!Pipeline.solvers}, with {!Objective.sla_greedy}. *)

val even_opt : t  (** Section IV, optimal; requires all-even caps *)

val hetero : t    (** Section V general algorithm *)

val saia : t      (** Saia split 1.5-approximation baseline *)

val greedy : t    (** first-fit baseline *)

val orbits : t    (** Section V-C1 via explicit orbit structures *)
