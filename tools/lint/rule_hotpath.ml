(* Rule "hotpath": the flat-core contract for the six hot kernels
   (Euler orientation, graph traversal, Vizing coloring, recoloring
   walks, max-flow, degree-constrained b-matching),
   enforced over whole call chains.  Their steady-state loops run once
   per edge per round over ~1e6-edge instances, so they must iterate
   the CSR adjacency with arena scratch — no boxed [List] chains, no
   [Hashtbl] probes — or the allocation budget bench experiment E27
   asserts (bench/main.ml) is blown.

   Starting from the exported values of the kernel units, every
   transitively reachable lib/ def is scanned for List/Hashtbl
   references, and each unreviewed one is a finding carrying the chain
   from the kernel entry to the allocation site — a kernel calling a
   helper in another module that builds a list per edge is caught
   like a list built in the kernel itself.  Cold paths through the same
   modules (list-returning public APIs) do exist; those sites carry an
   explicit [@lint.allow "hotpath: reason"] stating why the use is off
   the per-edge path.  The probes library (instrumentation, compiled
   out of the measured configuration) is not traversed, and a private
   List helper in a kernel file that no exported entry reaches is
   accepted — depth and reachability, not file membership, decide. *)

let rule = "hotpath"

(* basenames of the hot-kernel implementation files *)
let hot_files =
  [
    "euler.ml";
    "traversal.ml";
    "vizing.ml";
    "recolor.ml";
    "max_flow.ml";
    "bmatching.ml";
  ]

let alloc_name = function
  | "Stdlib" :: (("List" | "Hashtbl") as m) :: (_ :: _ as rest) ->
      Some (String.concat "." (m :: rest))
  | _ -> None

let run (g : Callgraph.t) emit =
  let entries = ref [] in
  Callgraph.iter_defs g (fun d ->
      if
        Callgraph.lib_def d && d.exported
        && List.mem (Filename.basename d.file) hot_files
      then entries := d :: !entries);
  let parents = Callgraph.bfs g ~sources:!entries ~skip:Callgraph.in_probes in
  Callgraph.iter_defs g (fun d ->
      if Callgraph.lib_def d && Callgraph.reachable parents d then
        List.iter
          (fun (r : Callgraph.reference) ->
            match alloc_name r.target with
            | Some alloc when not (List.mem rule r.r_allows) ->
                let path = Callgraph.chain_defs g parents d in
                let chain = List.map Callgraph.display_def path @ [ alloc ] in
                emit ~file:d.file ~line:r.r_line ~rule ~chain
                  (Printf.sprintf
                     "%s allocates on a kernel path — a hot entry point \
                      reaches this site; keep per-edge loops on the CSR \
                      view, or mark a reviewed cold path with [@lint.allow \
                      \"hotpath: reason\"]"
                     alloc)
            | _ -> ())
          d.refs)
