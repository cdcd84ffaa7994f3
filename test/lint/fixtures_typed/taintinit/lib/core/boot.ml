(* A top-level expression is a module initializer too. *)
;;
ignore (Random.bits ())
