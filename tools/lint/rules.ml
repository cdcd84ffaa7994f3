(* The rule registry: one entry per enforced rule, the single source of
   truth for [--list-rules], the unknown-rule usage error, the allow
   attribute validator, and the doc/LINT.md drift check in CI.  Keep
   the list alphabetical — the CI drift check compares it against the
   rule-catalog headings of doc/LINT.md verbatim.

   [kind] records how a rule runs: [Syntactic] rules walk one parsed
   file at a time, [Tree] rules see the whole file list (layering,
   mli-coverage), [Interprocedural] rules need the typed ASTs (.cmt)
   and the repo-wide call graph (see cmt_loader.ml / callgraph.ml). *)

type kind = Syntactic | Tree | Interprocedural

type t = { name : string; kind : kind; summary : string }

let all =
  [
    {
      name = "determinism";
      kind = Interprocedural;
      summary =
        "no exported lib value or module initializer may transitively reach \
         ambient nondeterminism";
    };
    {
      name = "domain-safety";
      kind = Interprocedural;
      summary =
        "module-level mutable state must not escape unguarded into \
         worker-domain closures or module initializers";
    };
    {
      name = "exception";
      kind = Syntactic;
      summary = "catch-all handlers must re-raise";
    };
    {
      name = "hotpath";
      kind = Interprocedural;
      summary =
        "kernel entry points may not transitively reach allocating stdlib \
         calls";
    };
    {
      name = "layering";
      kind = Tree;
      summary = "the architecture DAG, from real ocamldep output";
    };
    {
      name = "mli-coverage";
      kind = Tree;
      summary = "every lib module declares its surface in a .mli";
    };
    {
      name = "probes";
      kind = Syntactic;
      summary = "probe registrations are literal, well-formed, unique";
    };
  ]

let names = List.map (fun r -> r.name) all
let is_known name = List.exists (fun r -> r.name = name) all

let interprocedural_requested enabled =
  List.exists (fun r -> r.kind = Interprocedural && enabled r.name) all
