(* Hands its [drive] parameter to the pool: the drives its callers
   pass run on worker domains, though no sink argument names them. *)
let soak ~drive xs = Exec.map (fun x -> drive x) xs
