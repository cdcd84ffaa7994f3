(* Typed-AST input for the interprocedural rules.

   dune compiles everything with -bin-annot, so every library module
   already has a .cmt (typed implementation) and, when it has an .mli,
   a .cmti (typed interface) under the library's .objs directory.  The
   loader walks the scanned roots — descending into the dot-directories
   the source scan skips — and reads every .cmt it finds; when the tool
   runs from the workspace root (outside _build), it also looks under
   _build/default/<root>, so `dune exec tools/lint/main.exe -- lib`
   works both from a checkout and inside the @lint rule.

   Each loaded unit is matched back to the scanned source file through
   [cmt_sourcefile] (a compiler-recorded relative path): exact match
   first, then suffix match.  Units with no scanned source — e.g. the
   dune-generated alias module lib__.ml-gen — are kept anyway: their
   module aliases are what lets the call graph resolve wrapped-library
   references (Migration__.Solver -> Migration__Solver). *)

type unit_info = {
  modname : string;  (** compilation unit, e.g. "Migration__Solver" *)
  source : Source.file option;  (** matched scanned source, if any *)
  str : Typedtree.structure;
  sig_vals : string list option;
      (** value names exported by the .cmti; [None] = no interface,
          every value is public *)
  sig_mods : string list option;  (** module names exported likewise *)
}

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

let rec find_cmts acc path =
  if is_dir path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "" || name = "_build" then acc
           else find_cmts acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let discover_cmts roots =
  let roots =
    List.concat_map
      (fun r ->
        let r = if is_dir r then r else Filename.dirname r in
        let built = Filename.concat (Filename.concat "_build" "default") r in
        if is_dir built then [ r; built ] else [ r ])
      roots
  in
  List.concat_map (fun r -> List.rev (find_cmts [] r)) roots
  |> List.sort_uniq String.compare

(* Match the compiler-recorded source path against the scanned files:
   exact, then by "/"-suffix (the cmt was produced from a different
   working directory), longest scanned path winning on ties. *)
let match_source (sources : Source.file list) recorded =
  match
    List.find_opt (fun (f : Source.file) -> f.path = recorded) sources
  with
  | Some f -> Some f
  | None ->
      let suffix = "/" ^ recorded in
      List.filter
        (fun (f : Source.file) ->
          let lp = String.length f.path and ls = String.length suffix in
          lp >= ls && String.sub f.path (lp - ls) ls = suffix)
        sources
      |> List.sort (fun (a : Source.file) b ->
             compare (String.length b.path) (String.length a.path))
      |> function
      | f :: _ -> Some f
      | [] -> None

let sig_names (sg : Typedtree.signature) =
  let vals = ref [] and mods = ref [] in
  List.iter
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Typedtree.Tsig_value vd -> vals := Ident.name vd.val_id :: !vals
      | Typedtree.Tsig_module md -> (
          match md.md_id with
          | Some id -> mods := Ident.name id :: !mods
          | None -> ())
      | _ -> ())
    sg.sig_items;
  (List.rev !vals, List.rev !mods)

let read_unit sources cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | cmt -> (
      match cmt.cmt_annots with
      | Cmt_format.Implementation str ->
          let source =
            match cmt.cmt_sourcefile with
            | Some s -> match_source sources s
            | None -> None
          in
          let sig_vals, sig_mods =
            let cmti = Filename.chop_suffix cmt_path ".cmt" ^ ".cmti" in
            if Sys.file_exists cmti then
              match Cmt_format.read_cmt cmti with
              | exception _ -> (None, None)
              | icmt -> (
                  match icmt.cmt_annots with
                  | Cmt_format.Interface sg ->
                      let vals, mods = sig_names sg in
                      (Some vals, Some mods)
                  | _ -> (None, None))
            else (None, None)
          in
          let recorded = Option.value cmt.cmt_sourcefile ~default:cmt_path in
          Some
            ( recorded,
              { modname = cmt.cmt_modname; source; str; sig_vals; sig_mods } )
      | _ -> None)

(* One unit per module name, each given with the source path its cmt
   records.  The first unit of a name is kept and a later one dropped
   when it is the same source (the same cmt is discovered twice when a
   root and its _build mirror both exist) or has no scanned source
   (dune generates an alias module Dune__exe for every executable).
   Two scanned sources of one module are an error: the call graph keys
   every definition by module name and could not tell them apart. *)
let rec one_per_module seen acc = function
  | [] -> Ok (List.rev acc)
  | (recorded, u) :: rest -> (
      match Hashtbl.find_opt seen u.modname with
      | None ->
          Hashtbl.add seen u.modname (recorded, u);
          one_per_module seen (u :: acc) rest
      | Some (first, kept)
        when first <> recorded && kept.source <> None && u.source <> None ->
          Error
            (Printf.sprintf
               "module %s is defined by both %s and %s; the call graph \
                keys definitions by module name, so lint them in separate \
                runs"
               u.modname first recorded)
      | Some _ -> one_per_module seen acc rest)

(* Load every unit under [roots].  Also returns, for the enforcement
   path, the lib-scope .ml sources that have no typed AST: an
   interprocedural rule silently skipping an unbuilt file would turn
   "clean" into "unchecked", so main.ml reports those as findings. *)
let load ~roots ~(sources : Source.file list) =
  let units = List.filter_map (read_unit sources) (discover_cmts roots) in
  match one_per_module (Hashtbl.create 64) [] units with
  | Error _ as e -> e
  | Ok units ->
      let covered = Hashtbl.create 64 in
      List.iter
        (fun u ->
          match u.source with
          | Some f -> Hashtbl.replace covered f.path ()
          | None -> ())
        units;
      let missing =
        List.filter
          (fun (f : Source.file) ->
            (match f.scope with Source.Lib _ -> true | _ -> false)
            && Filename.check_suffix f.path ".ml"
            && not (Hashtbl.mem covered f.path))
          sources
      in
      Ok (units, missing)
