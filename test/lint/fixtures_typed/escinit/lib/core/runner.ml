(* The pool runs whatever closure the registry hands out: no reference
   from here names Objective, only the initializer that filled it. *)
let run name xs = Exec.map (fun x -> (Solver.find name).solve x) xs
