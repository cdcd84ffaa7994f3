(* Not a kernel file itself, but Vizing.color calls into it, putting
   this List.map on the kernel's path. *)

let grow xs = List.map succ xs
