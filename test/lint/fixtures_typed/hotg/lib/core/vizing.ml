(* The interface exports only [color]; [scratch] is a dead private
   helper.  Its List.map sits in a kernel file, but no exported kernel
   entry point reaches the allocation, so it is accepted — reachability,
   not file membership, decides. *)
let scratch xs = List.map succ xs
let color x = x + 1
