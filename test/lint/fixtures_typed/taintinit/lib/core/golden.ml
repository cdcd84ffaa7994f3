(* An unnamed top-level binding runs in every program that links the
   library: seeding the global RNG here makes every later draw ambient. *)
let () = Random.self_init ()
