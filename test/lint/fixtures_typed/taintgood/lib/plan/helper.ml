(* The interface does not export [roll], and nothing reachable calls
   it: no exported entry point can observe the bare Random.int, so the
   module is accepted.  [jitter] takes its state explicitly, which is
   fine wherever it is called from. *)
let roll n = Random.int n
let jitter st n = n + Random.State.int st n
