(* Rule "exception": a catch-all handler ([with _ ->], [with _e ->],
   or a [match]'s [exception _ ->] case) that does not re-raise
   swallows everything — including Out_of_memory, Stack_overflow and
   the assertion failures the certifier and fuzz loop rely on to
   surface broken planners.  Match the specific exceptions you expect,
   bind and log the exception, or re-raise. *)

let rule = "exception"

let rec catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_var { txt; _ } -> String.length txt > 0 && txt.[0] = '_'
  | Ppat_alias (p, _) -> catch_all p
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | Ppat_constraint (p, _) -> catch_all p
  | Ppat_exception p -> catch_all p
  | _ -> false

let reraises (e : Parsetree.expression) =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it (e : Parsetree.expression) ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match List.rev (Util.flatten txt) with
              | ("raise" | "raise_notrace" | "raise_with_backtrace") :: _ ->
                  found := true
              | _ -> ())
          | _ -> ());
          default.expr it e);
    }
  in
  it.expr it e;
  !found

let check (emit : Walk.emit) : Walk.check =
  let flag_cases cases =
    List.iter
      (fun (c : Parsetree.case) ->
        if catch_all c.pc_lhs && not (reraises c.pc_rhs) then
          emit ~rule ~loc:c.pc_lhs.ppat_loc
            "catch-all exception handler swallows the exception — match \
             specific exceptions, bind and report it, or re-raise")
      cases
  in
  fun (e : Parsetree.expression) ->
    match e.pexp_desc with
    | Pexp_try (_, cases) -> flag_cases cases
    | Pexp_match (_, cases) ->
        flag_cases
          (List.filter
             (fun (c : Parsetree.case) ->
               match c.pc_lhs.ppat_desc with
               | Ppat_exception _ -> true
               | _ -> false)
             cases)
    | _ -> ()
