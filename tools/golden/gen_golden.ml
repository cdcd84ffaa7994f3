(* gen_golden — regenerate the flat-core golden schedule fingerprints.

   Writes one line per (family, seed, size, solver):

     family seed size solver n_rounds md5-of-Schedule.to_string

   The committed output (data/golden/schedules.tsv) was produced by the
   pre-CSR list-path planners; test/test_flatcore.ml replays every row
   against the current tree and fails on any drift.  Regenerating this
   file is therefore a deliberate act: it redefines the reference
   behavior, and belongs in a PR that argues why schedules may change.

     dune exec tools/golden/gen_golden.exe > data/golden/schedules.tsv *)

module M = Migration

let solvers = [ "auto"; "hetero"; "even-opt"; "greedy"; "saia" ]
let seeds = [ 1; 2; 3 ]

(* Rows come in sections of (families, solvers, sizes), appended in
   this order so that adding a section leaves every earlier line
   byte-identical.  The seven structural families run every solver.
   The perf-scale family follows with the two solvers that reach
   even-opt: at size 26 its later per-round b-matchings fall apart
   into hundreds of small bipartite components, the regime where a
   joint flow and per-component flows would first disagree if they
   ever did.  Size 60 (28,800 items) pins even-opt where its first
   Figure 3 network has ~180k half-arcs, against ~31k at size 26.
   The tenant family postdates the corpus; test/test_sla.ml exercises
   it. *)
let sections =
  let family name = Option.get (Gen.family_of_string name) in
  let huge_solvers = [ "auto"; "even-opt" ] in
  [
    ( List.filter
        (fun f -> f.Gen.name <> "huge" && f.Gen.name <> "tenants")
        Gen.all,
      solvers,
      [ 10; 26 ] );
    ([ family "huge" ], huge_solvers, [ 10; 26 ]);
    ([ family "huge" ], huge_solvers, [ 60 ]);
  ]

let () =
  print_string M.Golden.header;
  List.iter
    (fun (families, solvers, sizes) ->
      List.iter
        (fun fam ->
          List.iter
            (fun seed ->
              List.iter
                (fun size ->
                  let inst = Gen.instance fam ~seed ~size in
                  List.iter
                    (fun solver ->
                      match M.Golden.fingerprint inst ~solver ~seed with
                      | None -> ()
                      | Some fp ->
                          Printf.printf "%s\t%d\t%d\t%s\t%d\t%s\n" fam.Gen.name
                            seed size solver fp.M.Golden.rounds
                            fp.M.Golden.digest)
                    solvers)
                sizes)
            seeds)
        families)
    sections
