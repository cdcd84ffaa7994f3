(** Deterministic domain-parallel execution.

    A small fixed worker pool on stdlib [Domain] with one entry point
    that matters: {!map}, an order-preserving parallel [List.map].
    The design goal is {e determinism}, not raw throughput — callers
    (the planning pipeline, the fuzz loop, the benchmarks) must
    produce bit-identical output whether a computation ran on one
    domain or eight:

    - results are returned in submission order, whatever order the
      chunks actually ran in;
    - an exception raised by a task is captured on the worker and
      re-raised on the {e caller} domain (with its backtrace), picking
      the {b first failing element in submission order} when several
      fail — again independent of scheduling;
    - a failed {!map} poisons nothing: the pool survives and later
      submissions run normally.

    Tasks must be safe to run on another domain: no unsynchronized
    shared mutation beyond what the caller arranges.  The planners
    qualify — every solver is a pure function of the instance and an
    explicit RNG state ({!Migration.Solver.ctx}); the always-on
    metrics cells ({!Probes}) are the one shared surface, and worker
    writes to them may lose increments (they are never read for
    control flow).

    Instrumentation: ["exec.tasks"] (elements submitted),
    ["exec.chunks"] (work-queue chunks, i.e. units of stealing), and a
    per-worker ["exec.domain<i>.busy"] timer recording each worker's
    busy spans — registered at pool creation so the key set is stable
    for a given [jobs]. *)

type pool

(** The default for every [--jobs] flag in the repo: the
    [MIGRATE_JOBS] environment variable when set to a positive
    integer, else [Domain.recommended_domain_count ()].  The override
    exists because containerized CI runners routinely clamp the
    cpuset the runtime sees below the machine's real core count.

    The environment is consulted once per process and the answer
    memoized: a worker process that mutates [MIGRATE_JOBS] mid-run
    cannot make two calls observe different (torn) job counts. *)
val default_jobs : unit -> int

(** [create ~jobs] starts [jobs] worker domains ([jobs >= 1]; [1]
    starts none — every {!map} then runs inline on the caller).
    @raise Invalid_argument if [jobs < 1]. *)
val create : jobs:int -> pool

(** Stop the workers and join their domains.  Idempotent: repeated
    calls (from the owning domain) return immediately.  A {!map} on a
    shut-down pool degrades to the sequential inline path rather than
    raising. *)
val shutdown : pool -> unit

(** [with_pool ~jobs f] is [f] applied to a fresh pool, with
    {!shutdown} guaranteed on every exit path. *)
val with_pool : jobs:int -> (pool -> 'a) -> 'a

(** [map ?pool f xs] is [List.map f xs] — same order, same content,
    same (first, in submission order) exception — computed on the
    pool's workers when one with [jobs > 1] is given, inline
    otherwise.  The input is split into contiguous chunks pulled from
    a shared queue, so uneven task costs balance across workers. *)
val map : ?pool:pool -> ('a -> 'b) -> 'a list -> 'b list
