(* The interface hides [roll]: the ambient draw sits one private call
   below the exported entry point, where no file-local view connects
   them. *)
let roll n = Random.int n
let jitter n = n + roll n
