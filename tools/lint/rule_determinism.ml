(* Rule "determinism": reproducibility is a hard contract (bit-identical
   schedules at any --jobs, (seed, family, size) as a complete
   reproducer), so no library entry point may reach ambient
   nondeterminism, however many helpers away it sits.

   Seeds are references to the ambient-nondeterminism primitives — the
   global [Random] generator (including [Random.State.make_self_init],
   which launders ambient entropy into an explicit state) and
   wall-clock reads — anywhere in lib/ outside the probes library.
   Taint propagates backwards over the call graph from two kinds of
   entry points: exported lib values, and module initializers, which
   run in every program that links the library.  Any seed inside a
   reachable def is a finding, reported at the seed's source line with
   the witnessing call chain.

   Explicitly seeded randomness ([Random.State.int st]) is fine — the
   caller owns the state, so runs replay.  The probes library is
   instrumentation (the one sanctioned clock channel) and is neither
   traversed nor seeded; bin/ and bench/ are not entry points.  A seed
   that no entry point can reach (a dead or internal-only helper) is
   accepted: the contract is about what solver users can observe.
   Suppress at the seed site or its binding with
   [@lint.allow "determinism: reason"]. *)

let rule = "determinism"

let seed_name = function
  | [ "Stdlib"; "Random"; "State"; "make_self_init" ] ->
      Some "Random.State.make_self_init (ambient entropy)"
  | [ "Stdlib"; "Random"; "self_init" ] ->
      Some "Random.self_init (ambient entropy)"
  | [ "Stdlib"; "Random"; "State"; _ ] -> None
  | [ "Stdlib"; "Random"; fn ] -> Some ("Random." ^ fn)
  | [ "Unix"; (("gettimeofday" | "time") as fn) ] ->
      Some ("Unix." ^ fn ^ " (wall clock)")
  | [ "Stdlib"; "Sys"; "time" ] -> Some "Sys.time (wall clock)"
  | _ -> None

let run (g : Callgraph.t) emit =
  let entries = ref [] in
  Callgraph.iter_defs g (fun d ->
      if Callgraph.lib_def d && (d.exported || d.init) then
        entries := d :: !entries);
  let parents = Callgraph.bfs g ~sources:!entries ~skip:Callgraph.in_probes in
  Callgraph.iter_defs g (fun d ->
      if Callgraph.lib_def d && Callgraph.reachable parents d then
        List.iter
          (fun (r : Callgraph.reference) ->
            match seed_name r.target with
            | Some seed when not (List.mem rule r.r_allows) ->
                let path = Callgraph.chain_defs g parents d in
                let entry =
                  match path with
                  | e :: _ when e.init ->
                      "module initializer " ^ Callgraph.display_def e
                  | e :: _ -> "exported entry point " ^ Callgraph.display_def e
                  | [] -> assert false
                in
                emit ~file:d.file ~line:r.r_line ~rule
                  ~chain:(List.map Callgraph.display_def path @ [ seed ])
                  (Printf.sprintf
                     "%s is reachable from %s — solver paths must be \
                      deterministic; take explicit state or seed, or suppress \
                      with [@lint.allow \"determinism: reason\"]"
                     seed entry)
            | _ -> ())
          d.refs)
