(* Golden schedule fingerprints.

   One fingerprint pins one planner run: the solver is looked up in
   [Pipeline.solvers], seeded with an RNG derived from [seed] alone,
   and the resulting schedule is hashed through its canonical wire form
   ([Schedule.to_string]).  Anything that changes the schedule — edge
   iteration order, RNG consumption, matching extraction order —
   changes the digest, which is exactly what the flat-core refactor
   must not do (doc/ALGORITHMS.md, "Flat core & memory discipline"). *)

type fp = { rounds : int; digest : string }

let header = "# family\tseed\tsize\tsolver\trounds\tmd5\n"

let rng_for seed = Random.State.make [| 0x601d; seed; 0x5eed |]

let fingerprint inst ~solver ~seed =
  match Pipeline.find solver with
  | None -> invalid_arg ("Golden.fingerprint: unknown solver " ^ solver)
  | Some s ->
      if not (s.Solver.can_solve inst) then None
      else
        let rng = rng_for seed in
        let sched = Solver.solve ~rng s inst in
        let wire = Schedule.to_string sched in
        Some
          {
            rounds = Schedule.n_rounds sched;
            digest = Digest.to_hex (Digest.string wire);
          }

type row = {
  family : string;
  seed : int;
  size : int;
  solver : string;
  rounds : int;
  digest : string;
}

let parse_rows text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char '\t' line with
           | [ family; seed; size; solver; rounds; digest ] ->
               Some
                 {
                   family;
                   seed = int_of_string seed;
                   size = int_of_string size;
                   solver;
                   rounds = int_of_string rounds;
                   digest;
                 }
           | _ -> failwith ("Golden.parse_rows: malformed line: " ^ line))
