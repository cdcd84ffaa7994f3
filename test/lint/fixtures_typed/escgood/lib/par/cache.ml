(* Module-level mutable state used only from sequential code: no
   closure carrying it ever reaches a pool, so it needs no annotation. *)

let table : (int, int) Hashtbl.t = Hashtbl.create 16

let memo f x =
  try Hashtbl.find table x
  with Not_found ->
    let y = f x in
    Hashtbl.add table x y;
    y
