(* A registry: callers look planners up by name and run the stored
   closure wherever they are, worker domains included. *)
type t = { name : string; solve : int -> int }

let registry : t list ref = ref []
[@@lint.domain_safe "filled by module initializers before any domain starts"]

let register s = registry := s :: !registry
let find name = List.find (fun s -> s.name = name) !registry
