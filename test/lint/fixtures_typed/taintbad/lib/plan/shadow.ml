(* [pick] is bound twice, and only the second binding calls the
   private [roll]: one node carries the edges of both. *)
let roll n = Random.int n
let pick n = n
let pick n = roll (pick n)
