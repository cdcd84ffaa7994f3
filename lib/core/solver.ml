type ctx = { rng : Random.State.t option; jobs : int }

type t = {
  name : string;
  doc : string;
  can_solve : Instance.t -> bool;
  solve : ctx -> Instance.t -> Schedule.t;
}

let solve ?rng ?(jobs = 1) s inst = s.solve { rng; jobs } inst

(* ------------------------------------------------------------------ *)
(* built-ins *)

let any _ = true

let even_opt =
  {
    name = "even-opt";
    doc = "optimal for all-even transfer constraints (Theorem 4.1)";
    can_solve = Instance.all_caps_even;
    solve = (fun _ctx inst -> Even_optimal.schedule inst);
  }

let hetero =
  {
    name = "hetero";
    doc = "the paper's general (1+o(1))-approximation (Section V)";
    can_solve = any;
    solve = (fun ctx inst -> Hetero_coloring.schedule ?rng:ctx.rng inst);
  }

let saia =
  {
    name = "saia";
    doc = "Saia split-graph 1.5-approximation baseline";
    can_solve = any;
    solve = (fun ctx inst -> Saia.schedule ?rng:ctx.rng inst);
  }

let greedy =
  {
    name = "greedy";
    doc = "first-fit capacitated coloring baseline";
    can_solve = any;
    solve =
      (fun _ctx inst ->
        let ec =
          Coloring.Greedy_coloring.color (Instance.graph inst)
            ~cap:(Instance.cap inst)
        in
        Schedule.of_coloring ec);
  }

let orbits =
  {
    name = "orbits";
    doc = "orbit/witness realization of Phase 1 (Section V-C1)";
    can_solve = any;
    solve =
      (fun ctx inst ->
        let ec, _ = Orbits.color_via_orbits ?rng:ctx.rng inst in
        Schedule.of_coloring ec);
  }
