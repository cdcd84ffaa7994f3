(* Rule "domain-safety": a static race detector for the parallel
   execution paths.  Pipeline.solve ?jobs, Gen.Fuzz.soak ?jobs and the
   service run library code on worker domains, but a module-level
   mutable is only a race candidate when it *escapes* into code that
   may run there.

   Escape roots are of two kinds.  Every application of a parallel
   sink is located in the call graph, and the value references inside
   its argument expressions (the closures and the helpers they name,
   directly or through a let-bound local) are roots.  The sinks are
   [Exec.map], [Exec.with_pool], and every def that forwards one of
   its own parameters into a sink argument: [Fuzz.soak ~drive] hands
   [drive] to [Exec.map], so the drives its callers pass are roots
   too.  Every lib/ module initializer is a root as well: a registry
   it fills would hand the stored closures to later callers on any
   domain, with no reference the graph could follow.  lib/ has no
   initializer today (its planners are one immutable list); the
   escinit fixture pins the case.  Everything reachable from a root
   may execute on a worker domain.

   A module-level mutable binding referenced from that region is
   flagged at its definition site, with the chain from escape root to
   the access — unless its constructor is a safe cell (Atomic, Mutex,
   Domain.DLS), it carries [@@lint.domain_safe "reason"], or every def
   that touches it also references [Mutex.lock]/[Mutex.protect] (the
   lock discipline is visible, so the sharing is a reviewed decision).

   A mutable used only from sequential code needs no annotation. *)

let rule = "domain-safety"

let guard_ref (r : Callgraph.reference) =
  match r.target with
  | [ "Stdlib"; "Mutex"; ("lock" | "protect") ] -> true
  | _ -> false

let run (g : Callgraph.t) emit =
  (* sinks, by key: the pool entry points, then every def forwarding a
     parameter into a sink argument, to a fixpoint *)
  let sinks = ref [ "Exec.map"; "Exec.with_pool" ] in
  let sink (a : Callgraph.apply) =
    List.mem (String.concat "." a.a_head) !sinks
  in
  let grown = ref true in
  while !grown do
    grown := false;
    Callgraph.iter_defs g (fun d ->
        if
          (not (List.mem d.key !sinks))
          && List.exists (fun a -> a.Callgraph.a_forwards && sink a) d.applies
        then (
          sinks := d.key :: !sinks;
          grown := true))
  done;
  (* escape roots, remembering what pulled each one in (first wins, in
     deterministic def order) *)
  let root_via : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let roots = ref [] in
  let add_root (rd : Callgraph.def) via =
    if not (Hashtbl.mem root_via rd.key) then (
      Hashtbl.replace root_via rd.key via;
      roots := rd :: !roots)
  in
  Callgraph.iter_defs g (fun d ->
      if d.init && Callgraph.in_lib d then
        add_root d
          (Printf.sprintf "the module initializer at %s:%d" d.file d.line);
      List.iter
        (fun (a : Callgraph.apply) ->
          if sink a then
            List.iter
              (fun (r : Callgraph.reference) ->
                match Callgraph.find g (String.concat "." r.target) with
                | Some rd ->
                    add_root rd
                      (Printf.sprintf "%s at %s:%d"
                         (Callgraph.display_target a.a_head)
                         d.file a.a_line)
                | None -> ())
              a.a_args)
        d.applies);
  let parents = Callgraph.bfs g ~sources:!roots ~skip:(fun _ -> false) in
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
        when Callgraph.in_lib m
             && Callgraph.reachable parents m
             && (not m.domain_safe)
             && (not (List.mem rule m.allows))
             && not (all_accessors_guarded m) ->
          let chain_defs = Callgraph.chain_defs g parents m in
          let chain = List.map Callgraph.display_def chain_defs in
          let via =
            match chain_defs with
            | root :: _ -> Hashtbl.find root_via root.key
            | [] -> assert false
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
