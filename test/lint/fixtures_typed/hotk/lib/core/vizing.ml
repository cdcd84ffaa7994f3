(* Kernel file.  [slow_lookup] puts boxed containers on the per-edge
   path itself; the reasoned suppression on [cold_api] produces no
   finding; [color] mentions no List or Hashtbl, but its allocation
   happens one call away, in Widen.grow. *)
let slow_lookup tbl xs = List.map (fun x -> Hashtbl.find tbl x) xs

let cold_api xs =
  (List.length [@lint.allow "hotpath: fixture exercising suppression"]) xs

let color xs = Widen.grow xs
