(* migrate-lint: repo-aware static analysis for the migration codebase.

     dune exec tools/lint/main.exe -- lib bin bench

   Walks every .ml under the given paths with the compiler-libs parser
   (plus an ocamldep pass for layering), and — for the interprocedural
   rules — loads the .cmt typed ASTs dune leaves next to the build
   artifacts, builds the repo-wide call graph, and follows calls
   across module boundaries.  Findings print as "file:line rule
   message", one per line, sorted; interprocedural findings append
   their witnessing call chain.  Exit status: 0 clean, 1 findings, 2
   usage or internal error.  See doc/LINT.md for the rule catalog and
   suppression semantics. *)

let usage =
  Printf.sprintf
    "usage: lint [options] PATH...\n\
     \  --rules r1,r2         run only the named rules\n\
     \  --list-rules          print the rule names and exit\n\
     \  --format text|json    output format (json = one object per line)\n\
     Rules: %s"
    (String.concat " " Rules.names)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("lint: " ^ msg);
      exit 2)
    fmt

type format = Text | Json

let () =
  let rules_filter = ref None in
  let paths = ref [] in
  let format = ref Text in
  let rec parse_args = function
    | [] -> ()
    | "--list-rules" :: _ ->
        List.iter print_endline Rules.names;
        exit 0
    | "--rules" :: spec :: rest ->
        let rs = String.split_on_char ',' spec |> List.map String.trim in
        List.iter
          (fun r ->
            if not (Rules.is_known r) then
              fail "unknown rule %S — known rules:\n  %s" r
                (String.concat "\n  " Rules.names))
          rs;
        rules_filter := Some rs;
        parse_args rest
    | "--format" :: f :: rest ->
        (match f with
        | "text" -> format := Text
        | "json" -> format := Json
        | other -> fail "unknown format %S (text or json)" other);
        parse_args rest
    | [ ("--rules" | "--format") ] ->
        fail "missing argument\n%s" usage
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | p :: rest ->
        if not (Sys.file_exists p) then fail "no such file or directory: %s" p;
        paths := p :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !paths = [] then fail "no paths given\n%s" usage;
  let roots = List.rev !paths in
  let enabled r =
    match !rules_filter with None -> true | Some rs -> List.mem r rs
  in
  let files = Source.discover roots in
  let ml_files =
    List.filter
      (fun (f : Source.file) -> Filename.check_suffix f.path ".ml")
      files
  in
  let file_allows : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let file_allowed path rule =
    match Hashtbl.find_opt file_allows path with
    | Some rules -> List.mem rule rules
    | None -> false
  in
  let probes_state = Rule_probes.create () in
  let ast_findings =
    List.concat_map
      (fun (file : Source.file) ->
        match Source.parse_implementation file.path with
        | exception exn ->
            [
              Finding.v ~file:file.path ~line:1 ~rule:"parse"
                (Printexc.to_string exn);
            ]
        | str ->
            let make_checks emit =
              List.filter_map
                (fun (name, check) ->
                  if enabled name then Some (check emit) else None)
                [
                  ("exception", Rule_exception.check);
                  ("probes", Rule_probes.check probes_state file);
                ]
            in
            let findings, allows = Walk.run ~file ~make_checks str in
            Hashtbl.replace file_allows file.path allows;
            findings)
      ml_files
  in
  let layering =
    if enabled "layering" then Rule_layering.run files ~file_allowed else []
  in
  let mli =
    if enabled "mli-coverage" then Rule_mli.run files ~file_allowed else []
  in
  let interproc =
    if not (Rules.interprocedural_requested enabled) then []
    else begin
      let units, missing =
        match Cmt_loader.load ~roots ~sources:files with
        | Ok loaded -> loaded
        | Error msg -> fail "%s" msg
      in
      let acc = ref [] in
      List.iter
        (fun (f : Source.file) ->
          acc :=
            Finding.v ~file:f.path ~line:1 ~rule:"cmt"
              "no typed AST (.cmt) found for this file — build the tree \
               first (dune build @check) so the interprocedural rules can \
               analyze it"
            :: !acc)
        missing;
      let g = Callgraph.build units in
      let emit ~file ~line ~rule ~chain msg =
        acc := Finding.v ~file ~line ~rule ~chain msg :: !acc
      in
      if enabled "determinism" then Rule_determinism.run g emit;
      if enabled "domain-safety" then Rule_domain_safety.run g emit;
      if enabled "hotpath" then Rule_hotpath.run g emit;
      !acc
    end
  in
  let all =
    List.sort Finding.order
      (List.concat [ ast_findings; layering; mli; interproc ])
  in
  let render =
    match !format with Text -> Finding.to_string | Json -> Finding.to_json
  in
  List.iter (fun f -> print_endline (render f)) all;
  flush stdout;
  if all <> [] then exit 1
