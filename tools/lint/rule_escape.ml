(* Rule "domain-escape": a static race detector for the parallel
   execution paths.

   The syntactic "domain-safety" rule flags every module-level mutable
   binding, shared or not.  This rule is the precise replacement: a
   module-level mutable is only a race candidate when it *escapes*
   into code that actually runs on worker domains — a closure passed
   to [Exec.map] or [Exec.with_pool].

   Concretely: every application of a parallel sink is located in the
   call graph; the value references inside its argument expressions
   are the escape roots (the closures and the helpers they name).
   Everything reachable from a root may execute on a worker domain.
   A module-level mutable binding referenced from that region is
   flagged at its definition site, with the chain from escape root to
   the access — unless its constructor is a safe cell (Atomic, Mutex,
   Domain.DLS), it carries [@@lint.domain_safe "reason"], or every def
   that touches it also references [Mutex.lock]/[Mutex.protect] (the
   lock discipline is visible, so the sharing is a reviewed decision).

   A mutable used only from sequential code no longer needs an
   annotation under this rule — that is the precision the
   over-approximating syntactic rule could not offer. *)

let rule = "domain-escape"

let sink_name = function
  | [ "Exec"; "map" ] -> Some "Exec.map"
  | [ "Exec"; "with_pool" ] -> Some "Exec.with_pool"
  | _ -> None

let guard_ref (r : Callgraph.reference) =
  match r.target with
  | [ "Stdlib"; "Mutex"; ("lock" | "protect") ] -> true
  | _ -> false

let lib_def (d : Callgraph.def) =
  match d.scope with Source.Lib _ -> true | _ -> false

let run (g : Callgraph.t) emit =
  (* escape roots: defs named inside a parallel sink's arguments,
     remembering which sink pulled each root in (first wins, in
     deterministic def order) *)
  let root_sink : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let roots = ref [] in
  Callgraph.iter_defs g (fun d ->
      List.iter
        (fun (a : Callgraph.apply) ->
          match sink_name a.a_head with
          | Some sink ->
              List.iter
                (fun (r : Callgraph.reference) ->
                  let key = String.concat "." r.target in
                  match Callgraph.find g key with
                  | Some rd ->
                      if not (Hashtbl.mem root_sink key) then (
                        Hashtbl.replace root_sink key
                          (Printf.sprintf "%s at %s:%d" sink d.file a.a_line);
                        roots := rd :: !roots)
                  | None -> ())
                a.a_args
          | None -> ())
        d.applies);
  let parents =
    Callgraph.bfs g ~sources:!roots ~skip:(fun _ -> false)
  in
  (* lock discipline: every def that references the mutable also
     references Mutex.lock/protect *)
  let all_accessors_guarded (m : Callgraph.def) =
    let accessors = ref [] in
    Callgraph.iter_defs g (fun d ->
        if
          d.key <> m.key
          && List.exists
               (fun (r : Callgraph.reference) ->
                 String.concat "." r.target = m.key)
               d.refs
        then accessors := d :: !accessors);
    !accessors <> []
    && List.for_all
         (fun (d : Callgraph.def) -> List.exists guard_ref d.refs)
         !accessors
  in
  Callgraph.iter_defs g (fun m ->
      match m.mutability with
      | Callgraph.Mutable what
        when lib_def m
             && Callgraph.reachable parents m
             && (not m.domain_safe)
             && (not (List.mem rule m.allows))
             && not (all_accessors_guarded m) ->
          let chain_defs = Callgraph.chain_defs g parents m in
          let chain = List.map Callgraph.display_def chain_defs in
          let via =
            match chain_defs with
            | root :: _ -> (
                match Hashtbl.find_opt root_sink root.key with
                | Some s -> s
                | None -> "a parallel region")
            | [] -> "a parallel region"
          in
          emit ~file:m.file ~line:m.line ~rule ~chain
            (Printf.sprintf
               "module-level mutable state %s (%s) escapes unguarded into \
                %s — worker domains may race on it; use Atomic/Mutex, pass \
                state explicitly, or annotate [@@lint.domain_safe \
                \"reason\"]"
               (Callgraph.display_def m)
               what via)
      | _ -> ())
