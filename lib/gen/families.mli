(** Named random-instance families for the adversarial harness.

    Each family is a seeded generator of migration instances designed
    to stress one regime of the planners:

    - ["uniform"] — G(n, m) multigraph, mixed constraints: the
      unstructured baseline.
    - ["powerlaw"] — preferential-attachment degrees, mixed
      constraints: hot-spot disks with [d_v >> c_v].
    - ["even"] — all-even constraints: Theorem 4.1 territory, where
      ["even-opt"] must tie [LB1] exactly.
    - ["unit"] — [c_v = 1] everywhere: multigraph chromatic index, the
      NP-hard core and Saia/Shannon territory.
    - ["parallel"] — few disks, heavy parallel-edge multiplicities:
      Figure 2 style, maximal stress on orbit moves.
    - ["bottleneck"] — an odd clique of [c_v = 1] disks stacked with
      parallel edges plus high-capacity satellite leaves: [Γ] strictly
      exceeds [LB1] by construction, so the combined bound and the
      {!Migration.Lower_bounds.lb2_witness} subset are load-bearing.
    - ["multipool"] — disjoint pools with clashing capacity styles
      (all-even, unit, mixed): exercises decompose/merge and
      per-component solver selection.
    - ["huge"] — perf-scale all-even [G(n, m)] with [~8*size^2] edges
      ([size] is quadratic here so fuzz-range sizes stay cheap while
      bench sizes reach [1e5..1e6] edges): the flat-core allocation
      and wall-time regime of experiment E27.
    - ["tenants"] — tenant-tagged [G(n, m)] with skewed group
      ownership and priority weights 1..8: the SLA-objective regime
      ({!Migration.Objective}), differential fuel for the reordering
      post-pass and {!Migration.Certify.check_sla}.

    All generators are deterministic functions of an explicit RNG
    state; {!instance} fixes the standard seeding so a printed
    [(family, seed, size)] triple is a complete reproducer. *)

type family = {
  name : string;
  doc : string;  (** one line, for CLI listings *)
  build : Random.State.t -> size:int -> Migration.Instance.t;
}

(** All families, in the documented order. *)
val all : family list

val names : string list

val family_of_string : string -> family option

(** [instance fam ~seed ~size] builds the family's instance for a
    reproducer triple: the RNG is derived from [seed] and [fam.name]
    only.  [size] scales disk/item counts; values in [4 .. 64] are the
    tested range, and anything below is clamped up to the family's
    minimum viable size. *)
val instance : family -> seed:int -> size:int -> Migration.Instance.t
