(* Edge cases of the suppression machinery itself: each malformed
   allow is a "suppression" finding, and scoping is exact. *)

[@@@lint.allow "phantom-rule: suppressing a rule that does not exist"]

(* reasonless: still suppresses, but is itself flagged *)
let a f = (try f () with _ -> ()) [@lint.allow "exception"]

(* unknown rule on an expression: flagged, and does not suppress *)
let b f = (try f () with _ -> ()) [@lint.allow "no-such-rule: definitely"]

(* a binding-level allow covers the whole body... *)
let c f = 1 + try f () with _ -> 0 [@@lint.allow "exception: reviewed — fixture"]

(* ...but does not leak to the next binding *)
let d f = try f () with _ -> ()

(* an inner expression allow scopes tighter than its binding *)
let e f =
  let x = (try f () with _ -> 0) [@lint.allow "exception: inner scope only"] in
  x + try f () with _ -> 0
