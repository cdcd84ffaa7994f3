(* Order statistics for the benchmark's reports. *)

(* [quartiles xs] is [(q1, median, q3)] by the "exclusive" method of
   Python's [statistics.quantiles (xs, n=4)], so the spreads printed
   here are the ones a reader recomputes from the JSON values.  One
   sample reads as all three. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
