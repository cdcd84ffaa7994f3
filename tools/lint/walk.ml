(* Shared AST walk.

   Drives every syntactic rule over one parsed implementation in a
   single traversal while maintaining the [@lint.allow] suppression
   scope stack.  A rule plugs in as a [check], called on every
   expression. *)

type emit = rule:string -> loc:Location.t -> string -> unit
type check = Parsetree.expression -> unit

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Returns the findings plus the file-wide allow set (consulted by the
   non-AST rules: layering, mli-coverage). *)
let run ~(file : Source.file) ~(make_checks : emit -> check list)
    (str : Parsetree.structure) =
  let findings = ref [] in
  let env = Allow.make () in
  let push rules = env.frames <- rules :: env.frames in
  let pop () = env.frames <- List.tl env.frames in
  let raw ~rule ~loc msg =
    findings :=
      Finding.v ~file:file.path ~line:(line_of loc) ~rule msg :: !findings
  in
  let bad loc msg = raw ~rule:"suppression" ~loc msg in
  let emit ~rule ~loc msg =
    if not (Allow.active env rule) then raw ~rule ~loc msg
  in
  let checks = make_checks emit in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun it (e : Parsetree.expression) ->
          push (Allow.of_attributes ~bad e.pexp_attributes);
          List.iter (fun check -> check e) checks;
          default.expr it e;
          pop ());
      structure_item =
        (fun it (si : Parsetree.structure_item) ->
          match si.pstr_desc with
          | Pstr_attribute a ->
              env.file_wide <- Allow.of_attributes ~bad [ a ] @ env.file_wide
          | Pstr_value (_, vbs) ->
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  push (Allow.of_attributes ~bad vb.pvb_attributes);
                  default.value_binding it vb;
                  pop ())
                vbs
          | _ -> default.structure_item it si);
      module_binding =
        (fun it (mb : Parsetree.module_binding) ->
          push (Allow.of_attributes ~bad mb.pmb_attributes);
          default.module_binding it mb;
          pop ());
    }
  in
  iter.structure iter str;
  (List.rev !findings, env.file_wide)
