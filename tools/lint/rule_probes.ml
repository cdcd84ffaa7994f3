(* Rule "probes": instrumentation cell names are a public, stable
   schema (they become --metrics-json keys and bench baselines), so
   every [Probes.counter] / [Probes.timer] / [Instr.counter] /
   [Instr.timer] registration must

   - pass the name as a string literal (otherwise the convention
     cannot be checked statically — annotate the rare parameterized
     registration with [@lint.allow "probes: ..."]);
   - match "<layer>.<name>": at least two lowercase [a-z0-9_]
     dot-separated segments, each starting with a letter;
   - be unique across the scanned tree: one name, one owning module,
     one cell kind.  The registration set doubles as the resolution
     table — a second registration elsewhere, or under the other kind,
     is a collision, not a new probe. *)

let rule = "probes"

type kind = Counter | Timer

type reg = { kind : kind; file : string; line : int }
type state = { tbl : (string, reg) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let kind_to_string = function Counter -> "counter" | Timer -> "timer"

let name_ok name =
  let seg_ok s =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         s
  in
  match String.split_on_char '.' name with
  | _ :: _ :: _ as segs -> List.for_all seg_ok segs
  | _ -> false

let check (st : state) (file : Source.file) (emit : Walk.emit) : Walk.check =
  let register ~loc ~kind name =
    if not (name_ok name) then
      emit ~rule ~loc
        (Printf.sprintf
           "probe name %S does not match \"<layer>.<name>\" (lowercase \
            dot-separated segments)"
           name)
    else
      match Hashtbl.find_opt st.tbl name with
      | Some prev when prev.kind <> kind ->
          emit ~rule ~loc
            (Printf.sprintf
               "probe %S registered as both %s and %s (first at %s:%d)" name
               (kind_to_string prev.kind) (kind_to_string kind) prev.file
               prev.line)
      | Some prev when prev.file <> file.path ->
          emit ~rule ~loc
            (Printf.sprintf
               "probe %S already registered at %s:%d — a probe name belongs \
                to exactly one module"
               name prev.file prev.line)
      | Some _ -> ()
      | None ->
          Hashtbl.add st.tbl name
            { kind; file = file.path; line = Walk.line_of loc }
  in
  fun (e : Parsetree.expression) ->
    match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (Nolabel, arg) :: _) -> (
        match List.rev (Util.flatten txt) with
        | fn :: owner :: _
          when (fn = "counter" || fn = "timer")
               && (owner = "Probes" || owner = "Instr") -> (
            let kind = if fn = "counter" then Counter else Timer in
            match arg.pexp_desc with
            | Pexp_constant (Pconst_string (name, sloc, _)) ->
                register ~loc:sloc ~kind name
            | _ ->
                emit ~rule ~loc:arg.pexp_loc
                  "probe name is not a string literal — the \
                   \"<layer>.<name>\" convention cannot be checked; extract \
                   a literal or annotate [@lint.allow \"probes: ...\"]")
        | _ -> ())
    | _ -> ()
