(* Rule "hotpath-deep": the flat-core allocation contract, enforced
   over whole call chains.

   The syntactic "hotpath" rule bans List/Hashtbl references written
   directly in the seven kernel files.  That stops at the file
   boundary: a kernel calling a helper in another module that builds a
   list per edge passes the syntactic rule and still blows the
   allocation budget bench E27 asserts.  This rule follows the
   calls: starting from the exported values of the kernel units, every
   transitively reachable lib/ def is scanned for List/Hashtbl
   references, and each unreviewed one is a finding carrying the
   chain from the kernel entry to the allocation site.

   Review markers are shared with the syntactic rule: a site under
   [@lint.allow "hotpath: reason"] is already a reviewed cold-path
   decision and is not re-flagged here; [@lint.allow "hotpath-deep:
   reason"] marks sites that are only cold in their interprocedural
   context.  The probes library (instrumentation, compiled out of the
   measured configuration) is not traversed.  Conversely, a private
   List helper in a kernel file that no exported entry reaches is
   accepted here even though the syntactic rule flags it — depth and
   reachability, not file membership, decide. *)

let rule = "hotpath-deep"

let alloc_name = function
  | "Stdlib" :: (("List" | "Hashtbl") as m) :: (_ :: _ as rest) ->
      Some (String.concat "." (m :: rest))
  | _ -> None

let in_probes (d : Callgraph.def) =
  match d.scope with Source.Lib "probes" -> true | _ -> false

let lib_def (d : Callgraph.def) =
  match d.scope with Source.Lib _ -> not (in_probes d) | _ -> false

let run (g : Callgraph.t) emit =
  let entries = ref [] in
  Callgraph.iter_defs g (fun d ->
      if
        lib_def d && d.exported
        && List.mem d.basename Rule_hotpath.hot_files
      then entries := d :: !entries);
  let parents = Callgraph.bfs g ~sources:!entries ~skip:in_probes in
  Callgraph.iter_defs g (fun d ->
      if lib_def d && Callgraph.reachable parents d then
        List.iter
          (fun (r : Callgraph.reference) ->
            match alloc_name r.target with
            | Some alloc
              when (not (List.mem "hotpath" r.r_allows))
                   && not (List.mem rule r.r_allows) ->
                let chain = Callgraph.chain g parents d @ [ alloc ] in
                emit ~file:d.file ~line:r.r_line ~rule ~chain
                  (Printf.sprintf
                     "%s allocates on a kernel path — a hot entry point \
                      reaches this site; keep per-edge loops on the CSR \
                      view, or mark a reviewed cold path with [@lint.allow \
                      \"hotpath-deep: reason\"]"
                     alloc)
            | _ -> ())
          d.refs)
