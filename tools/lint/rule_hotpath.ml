(* Rule "hotpath": the flat-core contract for the seven hot kernels
   (Euler orientation, graph traversal, König and Vizing coloring,
   recoloring walks, max-flow, degree-constrained b-matching).  Their
   steady-state loops run once per edge per round over ~1e6-edge
   instances, so they must iterate the CSR adjacency with arena
   scratch — no boxed [List] chains, no [Hashtbl] probes — or the
   allocation budget the perf gate enforces (bench/gate.ml) is blown.

   Any [List.*] or [Hashtbl.*] reference in these files is flagged.
   Cold paths through the same modules (list-returning public APIs)
   do exist; those sites carry an explicit
   [@lint.allow "hotpath: reason"] stating why the use is off the
   per-edge path.  The point is that reaching for a list in these
   files is a reviewed decision, not a default. *)

let rule = "hotpath"

(* basenames of the hot-kernel implementation files *)
let hot_files =
  [
    "euler.ml";
    "traversal.ml";
    "konig.ml";
    "vizing.ml";
    "recolor.ml";
    "max_flow.ml";
    "bmatching.ml";
  ]

let banned_head = function
  | "List" | "Hashtbl" -> true
  | _ -> false

let check (file : Source.file) (emit : Walk.emit) =
  let hot =
    match file.scope with
    | Source.Lib _ -> List.mem (Filename.basename file.path) hot_files
    | _ -> false
  in
  if not hot then Walk.no_check
  else
    let on_expr (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match Util.flatten txt with
          | head :: (_ :: _ as rest) when banned_head head ->
              emit ~rule ~loc
                (Printf.sprintf
                   "%s.%s in a hot kernel — steady-state loops iterate the \
                    CSR view with arena scratch; if this site is genuinely \
                    off the per-edge path, annotate it with [@lint.allow \
                    \"hotpath: reason\"]"
                   head
                   (String.concat "." rest))
          | "Stdlib" :: head :: (_ :: _ as rest) when banned_head head ->
              emit ~rule ~loc
                (Printf.sprintf
                   "Stdlib.%s.%s in a hot kernel — steady-state loops \
                    iterate the CSR view with arena scratch"
                   head (String.concat "." rest))
          | _ -> ())
      | _ -> ()
    in
    { Walk.no_check with on_expr }
