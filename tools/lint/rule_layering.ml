(* Rule "layering": the architecture dependency DAG, enforced from
   ocamldep output rather than dune stanzas, so an over-permissive
   `libraries` field cannot smuggle in an edge the architecture
   forbids (core -> sim, gen -> sim, coloring/flow/mgraph -> core, ...).

   Every library is wrapped, so a cross-library reference necessarily
   goes through the target's interface module (Mgraph, Netflow,
   Coloring, Probes, Exec, Migration, Gen, Storsim, Workloads,
   Distproto); ocamldep -modules surfaces exactly those names.  Any
   module name outside that table is stdlib or library-internal and is
   ignored.  bin/ and bench/ sit at the top of the DAG and may use
   everything. *)

let rule = "layering"

let interface_libs =
  [
    ("Mgraph", "mgraph");
    ("Netflow", "netflow");
    ("Coloring", "coloring");
    ("Probes", "probes");
    ("Exec", "exec");
    ("Migration", "migration");
    ("Gen", "gen");
    ("Storsim", "storsim");
    ("Workloads", "workloads");
    ("Distproto", "distproto");
    ("Service", "service");
  ]

(* lib name -> libraries it may depend on.  This is the architecture
   contract, deliberately independent of the dune files. *)
let allowed =
  [
    ("probes", []);
    ("mgraph", []);
    ("exec", [ "probes" ]);
    ("netflow", [ "mgraph"; "probes" ]);
    ("coloring", [ "mgraph"; "netflow"; "probes" ]);
    ("migration", [ "mgraph"; "netflow"; "coloring"; "probes"; "exec" ]);
    ( "gen",
      [ "mgraph"; "netflow"; "coloring"; "probes"; "exec"; "migration" ] );
    ( "storsim",
      [ "mgraph"; "netflow"; "coloring"; "probes"; "exec"; "migration" ] );
    ( "workloads",
      [
        "mgraph"; "netflow"; "coloring"; "probes"; "exec"; "migration";
        "storsim";
      ] );
    (* the coordinator/worker split: the distributed control plane
       executes certified plans over real processes, so it may use the
       core planning stack and the exec substrate — and nothing under
       lib/ may use it back except the service daemon.  Keeping storsim
       and workloads out of dist keeps the worker side mechanical: it
       receives shards, it does not invent scenarios *)
    ( "distproto",
      [ "mgraph"; "netflow"; "coloring"; "probes"; "exec"; "migration" ] );
    (* the streaming daemon sits at the top of the library DAG: it may
       drive the engine, simulation faults, workload re-layouts, and
       the distributed control plane, but no library depends back on
       it — only bin/ and the tests *)
    ( "service",
      [
        "mgraph"; "netflow"; "coloring"; "probes"; "exec"; "migration";
        "storsim"; "workloads"; "distproto";
      ] );
  ]

let ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let mentions_module line m =
  let lm = String.length m and ll = String.length line in
  let rec from i =
    if i + lm > ll then false
    else
      match String.index_from_opt line i m.[0] with
      | None -> false
      | Some j ->
          if
            j + lm <= ll
            && String.sub line j lm = m
            && (j = 0 || (not (ident_char line.[j - 1])) && line.[j - 1] <> '.')
            && (j + lm = ll || not (ident_char line.[j + lm]))
          then true
          else from (j + 1)
  in
  from 0

(* First line referencing module [m], for a clickable location. *)
let dep_line path m =
  match open_in path with
  | exception Sys_error _ -> 1
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go n =
            match input_line ic with
            | line -> if mentions_module line m then n else go (n + 1)
            | exception End_of_file -> 1
          in
          go 1)

let parse_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      let path = String.sub line 0 i in
      let mods =
        String.sub line (i + 1) (String.length line - i - 1)
        |> String.split_on_char ' '
        |> List.filter (fun s -> s <> "")
      in
      Some (path, mods)

let run (files : Source.file list) ~(file_allowed : string -> string -> bool) =
  let scanned =
    List.filter
      (fun (f : Source.file) ->
        match f.scope with Source.Lib _ -> true | _ -> false)
      files
  in
  if scanned = [] then []
  else
    let cmd =
      Filename.quote_command "ocamldep"
        ("-modules" :: List.map (fun (f : Source.file) -> f.path) scanned)
    in
    let ic = Unix.open_process_in cmd in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 ->
        List.rev !lines
        |> List.concat_map (fun line ->
               match parse_line line with
               | None -> []
               | Some (path, mods) -> (
                   match (Source.classify path).scope with
                   | Source.Lib l when not (file_allowed path rule) ->
                       let deps_ok =
                         Option.value ~default:[] (List.assoc_opt l allowed)
                       in
                       List.filter_map
                         (fun m ->
                           match List.assoc_opt m interface_libs with
                           | Some t when t <> l && not (List.mem t deps_ok) ->
                               Some
                                 (Finding.v ~file:path ~line:(dep_line path m)
                                    ~rule
                                    (Printf.sprintf
                                       "library %S must not depend on %S \
                                        (via module %s) — architecture DAG \
                                        violation"
                                       l t m))
                           | _ -> None)
                         mods
                   | _ -> []))
    | _ ->
        [
          Finding.v ~file:"(ocamldep)" ~line:1 ~rule
            "ocamldep invocation failed — layering not checked";
        ]
