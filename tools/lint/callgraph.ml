(* Repo-wide call graph over the typed ASTs.

   Nodes are module-level value bindings ("defs"), one per bound name,
   keyed by "<Unit>.<path>" (e.g. "Migration__Solver.solve"), plus one
   per module initializer: a top-level binding that binds no name
   ([let () = ...]) or a top-level expression, keyed "<Unit>.init@<line>".
   Initializers run in every program that links the unit.  Edges
   are value references: [f] -> [g] whenever [f]'s body mentions [g] —
   a deliberate over-approximation of "may call" that also covers
   passing [g] around as a closure.

   Cross-module references are resolved through the module-alias
   table: every wrapped library compiles against a dune-generated
   alias unit (module Solver = Migration__Solver), and the umbrella
   interface modules re-alias the same units (module Solver =
   Migration__.Solver), so a reference seen as Migration__.Solver.run
   or Migration.Solver.run canonicalizes to Migration__Solver.run by
   rewriting through Tmod_ident bindings until a fixpoint.  References
   whose head is a local identifier resolve through per-unit tables of
   module-level binders (Ident.unique_name keyed, so shadowing is
   harmless).  A name reached through [include M] resolves to M's def
   when the including module defines none of its own.  Inside a body,
   a let-bound local stands for the references in its bound expression
   wherever the graph records an application (see [walk_body]); other
   locals — function parameters, pattern variables — resolve to
   nothing.

   Stdlib and other out-of-tree references stay as their raw
   canonical path (["Stdlib"; "Random"; "int"]); the rules pattern
   match on those for taint seeds and allocation sites. *)

type reference = {
  target : string list;  (** canonical path *)
  r_line : int;
  r_allows : string list;
      (** [@lint.allow] rules active at the reference site, including
          binding-level and file-wide suppressions *)
}

type apply = {
  a_head : string list;  (** canonical path of the applied function *)
  a_line : int;
  a_args : reference list;
      (** resolved value references inside the argument expressions,
          through the let-bound locals they name *)
  a_forwards : bool;
      (** an argument names a parameter of the enclosing def: a local
          bound outside the argument, and not by a [let] *)
}

type mutability =
  | Mutable of string  (** human description, e.g. "a Hashtbl.t" *)
  | Safe  (** Atomic/Mutex/DLS — a guard or safe cell *)
  | Immutable

type def = {
  unit_ : string;
  dpath : string list;
  key : string;
  file : string;  (** scanned source path, or the cmt-recorded one *)
  line : int;
  scope : Source.scope;
  exported : bool;
  init : bool;  (** a module initializer, not a named value *)
  allows : string list;  (** suppressions covering the whole binding *)
  domain_safe : bool;
  mutability : mutability;
  mutable refs : reference list;
  mutable applies : apply list;
}

type t = {
  defs : (string, def) Hashtbl.t;
  mutable ordered : def list;  (** sorted by key, for determinism *)
  adjacency : (string, string list) Hashtbl.t;
}

let key_of path = String.concat "." path

(* "Migration__Solver" -> "Solver", "Dune__exe__Migrate_cli" ->
   "Migrate_cli"; unwrapped units pass through. *)
let short_unit u =
  let rec from i =
    if i < 1 then u
    else if u.[i] = '_' && u.[i - 1] = '_' && i + 1 < String.length u then
      String.sub u (i + 1) (String.length u - i - 1)
    else from (i - 1)
  in
  from (String.length u - 1)

let display_target path =
  match path with
  | "Stdlib" :: (_ :: _ as rest) -> String.concat "." rest
  | u :: rest -> String.concat "." (short_unit u :: rest)
  | [] -> "?"

let display_def d = display_target (d.unit_ :: d.dpath)
let in_lib d = match d.scope with Source.Lib _ -> true | _ -> false

(* instrumentation: compiled out of the measured configuration, and
   the one library allowed to read the clock *)
let in_probes d = d.scope = Source.Lib "probes"
let lib_def d = in_lib d && not (in_probes d)

(* ---- path flattening and resolution ------------------------------- *)

let rec flatten_path (p : Path.t) =
  match p with
  | Path.Pident id -> Some (id, [])
  | Path.Pdot (p, s) -> (
      match flatten_path p with
      | Some (head, rest) -> Some (head, rest @ [ s ])
      | None -> None)
  | _ -> None

type unit_ctx = {
  u_name : string;
  u_values : (string, string list) Hashtbl.t;
      (** Ident.unique_name of a module-level binder -> its dpath *)
  u_modules : (string, string list) Hashtbl.t;
      (** Ident.unique_name of a module binder -> its module path *)
}

type builder = {
  aliases : (string * string, string list) Hashtbl.t;
  mutable includes : (string list * string list) list;
      (** module path -> canonical path of a module it includes *)
  keyed : (string, def) Hashtbl.t;  (** filled once all units are scanned *)
  mutable b_defs : def list;
}

let rec canon aliases fuel path =
  if fuel = 0 then path
  else
    match path with
    | u :: m :: rest -> (
        match Hashtbl.find_opt aliases (u, m) with
        | Some prefix -> canon aliases (fuel - 1) (prefix @ rest)
        | None -> path)
    | _ -> path

let rec canonical_in b fuel path =
  let path = canon b.aliases 32 path in
  let is_def p = Hashtbl.mem b.keyed (key_of p) in
  let included (prefix, target) =
    let rec drop = function
      | x :: xs, y :: ys when x = y -> drop (xs, ys)
      | [], (_ :: _ as rest) ->
          let p = canonical_in b (fuel - 1) (target @ rest) in
          if is_def p then Some p else None
      | _ -> None
    in
    drop (prefix, path)
  in
  if fuel = 0 || is_def path then path
  else Option.value ~default:path (List.find_map included b.includes)

let canonical b path = canonical_in b 8 path

(* Resolve a typedtree path to a canonical target, in the context of
   the unit being walked.  [None] for genuine locals. *)
let resolve b ctx (p : Path.t) =
  match flatten_path p with
  | None -> None
  | Some (head, rest) -> (
      let uname = Ident.unique_name head in
      match Hashtbl.find_opt ctx.u_values uname with
      | Some dpath -> Some (canonical b ((ctx.u_name :: dpath) @ rest))
      | None -> (
          match Hashtbl.find_opt ctx.u_modules uname with
          | Some mpath -> Some (canonical b ((ctx.u_name :: mpath) @ rest))
          | None ->
              if Ident.global head then
                Some (canonical b (Ident.name head :: rest))
              else None))

(* ---- structure walking -------------------------------------------- *)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let ignore_bad (_ : Location.t) (_ : string) = ()

let allows_of attrs = Allow.of_attributes ~bad:ignore_bad attrs

let file_allows (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_attribute a -> allows_of [ a ]
      | _ -> [])
    str.str_items

let rec unwrap_module (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_constraint (inner, _, _, _) -> unwrap_module inner
  | _ -> me

(* What a module-level binding's value position holds, typed: the
   constructor is resolved through the call graph's own path logic, so
   Hashtbl.create hidden behind an alias still classifies. *)
let classify_value b ctx (e : Typedtree.expression) =
  let mutable_ctor = function
    | [ "Stdlib"; "ref" ] -> Some "a ref cell"
    | [ "Stdlib"; "Hashtbl"; "create" ] -> Some "a Hashtbl.t"
    | [ "Stdlib"; "Queue"; "create" ] -> Some "a Queue.t"
    | [ "Stdlib"; "Stack"; "create" ] -> Some "a Stack.t"
    | [ "Stdlib"; "Buffer"; "create" ] -> Some "a Buffer.t"
    | [ "Stdlib"; "Bytes"; ("create" | "make" | "of_string") ] ->
        Some "mutable bytes"
    | [
        "Stdlib";
        "Array";
        ("make" | "create_float" | "init" | "of_list" | "copy" | "append");
      ] ->
        Some "a mutable array"
    | [ "Stdlib"; "Dynarray"; ("create" | "make" | "init" | "of_list") ] ->
        Some "a Dynarray.t"
    | _ -> None
  in
  let safe_ctor = function
    | [ "Stdlib"; "Atomic"; "make" ]
    | [ "Stdlib"; "Mutex"; "create" ]
    | [ "Stdlib"; "Condition"; "create" ]
    | [ "Stdlib"; "Semaphore"; _; "make" ]
    | [ "Stdlib"; "Domain"; "DLS"; "new_key" ] ->
        true
    | _ -> false
  in
  let result = ref Immutable in
  let note m = match !result with Mutable _ -> () | _ -> result := m in
  let rec tail (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_let (_, _, body) -> tail body
    | Texp_sequence (_, b) -> tail b
    | Texp_ifthenelse (_, t, f) ->
        tail t;
        Option.iter tail f
    | Texp_match (_, cases, _) ->
        List.iter (fun c -> tail c.Typedtree.c_rhs) cases
    | Texp_try (_, cases) ->
        List.iter (fun c -> tail c.Typedtree.c_rhs) cases
    | Texp_tuple es -> List.iter tail es
    | Texp_construct (_, _, args) -> List.iter tail args
    | Texp_variant (_, e) -> Option.iter tail e
    | Texp_open (_, e) | Texp_letmodule (_, _, _, _, e) -> tail e
    | Texp_array _ -> note (Mutable "an array literal")
    | Texp_record { fields; extended_expression; _ } ->
        if
          Array.exists
            (fun ((ld : Types.label_description), _) ->
              ld.lbl_mut = Asttypes.Mutable)
            fields
        then note (Mutable "a record with mutable fields");
        Array.iter
          (fun (_, (rld : Typedtree.record_label_definition)) ->
            match rld with
            | Typedtree.Overridden (_, fe) -> tail fe
            | Typedtree.Kept _ -> ())
          fields;
        Option.iter tail extended_expression
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match resolve b ctx p with
        | Some target when safe_ctor target ->
            note Safe
        | Some target -> (
            match mutable_ctor target with
            | Some what -> note (Mutable what)
            | None -> ())
        | None -> ())
    | _ -> ()
  in
  tail e;
  !result

(* The let-bound locals of one def body, by Ident.unique_name. *)
let let_locals (body : Typedtree.expression) =
  let locals = Hashtbl.create 16 in
  let default = Tast_iterator.default_iterator in
  let bind (vb : Typedtree.value_binding) =
    List.iter
      (fun id -> Hashtbl.replace locals (Ident.unique_name id) vb.vb_expr)
      (Typedtree.pat_bound_idents vb.vb_pat)
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) -> List.iter bind vbs
    | _ -> ());
    default.expr it e
  in
  let it = { default with expr } in
  it.expr it body;
  locals

(* The resolved value references inside one argument expression, and
   whether it forwards a parameter.  A let-bound local stands for its
   bound expression ([let solve_one = ... in Exec.map solve_one xs]);
   any other local bound outside the argument is a parameter. *)
let arg_references b ctx locals base_allows (e : Typedtree.expression) =
  let acc = ref [] and free = ref [] in
  let bound = Hashtbl.create 8 and expanded = Hashtbl.create 8 in
  let default = Tast_iterator.default_iterator in
  let pat it p =
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (Typedtree.pat_bound_idents p);
    default.pat it p
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match (resolve b ctx p, p) with
        | Some target, _ ->
            acc :=
              { target; r_line = line_of e.exp_loc; r_allows = base_allows }
              :: !acc
        | None, Path.Pident id -> (
            let u = Ident.unique_name id in
            match Hashtbl.find_opt locals u with
            | Some bound_expr when not (Hashtbl.mem expanded u) ->
                Hashtbl.replace expanded u ();
                it.Tast_iterator.expr it bound_expr
            | Some _ -> ()
            | None -> free := u :: !free)
        | None, _ -> ())
    | _ -> ());
    default.expr it e
  in
  let it = { default with pat; expr } in
  it.expr it e;
  (List.rev !acc, List.exists (fun u -> not (Hashtbl.mem bound u)) !free)

(* Walk one def body: references, applications, suppression frames. *)
let walk_body b ctx (d : def) (body : Typedtree.expression) =
  let refs = ref [] and applies = ref [] in
  let frames = ref [ d.allows ] in
  let active () = List.concat !frames in
  let locals = let_locals body in
  (* an applied local resolves through its partial application
     ([let soak = fuzz_soak ~seed in soak ~drive]) *)
  let rec head fuel (p : Path.t) =
    match (resolve b ctx p, p) with
    | (Some _ as h), _ -> h
    | None, Path.Pident id when fuel > 0 -> (
        match Hashtbl.find_opt locals (Ident.unique_name id) with
        | Some
            {
              exp_desc =
                ( Texp_ident (p, _, _)
                | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) );
              _;
            } ->
            head (fuel - 1) p
        | _ -> None)
    | None, _ -> None
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it (e : Typedtree.expression) ->
          frames := allows_of e.exp_attributes :: !frames;
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match resolve b ctx p with
              | Some target ->
                  refs :=
                    {
                      target;
                      r_line = line_of e.exp_loc;
                      r_allows = active ();
                    }
                    :: !refs
              | None -> ())
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
              match head 8 p with
              | Some a_head ->
                  let args, forwards =
                    List.filter_map snd args
                    |> List.map (arg_references b ctx locals (active ()))
                    |> List.split
                  in
                  applies :=
                    {
                      a_head;
                      a_line = line_of e.exp_loc;
                      a_args = List.concat args;
                      a_forwards = List.mem true forwards;
                    }
                    :: !applies
              | None -> ())
          | _ -> ());
          default.expr it e;
          frames := List.tl !frames);
    }
  in
  it.expr it body;
  d.refs <- List.rev !refs;
  d.applies <- List.rev !applies

(* ---- building ----------------------------------------------------- *)

let exported_in (u : Cmt_loader.unit_info) dpath =
  match dpath with
  | [] -> false
  | first :: rest -> (
      match (rest, u.sig_vals, u.sig_mods) with
      | [], Some vals, _ -> List.mem first vals
      | _ :: _, _, Some mods -> List.mem first mods
      | _, None, _ | _, _, None -> true)

(* First pass over a unit: record module aliases, module-level value
   and module binders, and the def skeletons (bodies walked in the
   second pass, once every unit's aliases are known). *)
let scan_unit b (u : Cmt_loader.unit_info) =
  let file, scope =
    match u.source with
    | Some (f : Source.file) -> (f.path, f.scope)
    | None -> ("(" ^ u.modname ^ ")", Source.Other)
  in
  let ctx =
    {
      u_name = u.modname;
      u_values = Hashtbl.create 64;
      u_modules = Hashtbl.create 8;
    }
  in
  let fallows = file_allows u.str in
  let bodies = ref [] in
  let rec scan_items prefix enclosing_allows
      (items : Typedtree.structure_item list) =
    let add_def ~dpath ~line ~init ~attrs (expr : Typedtree.expression) =
      let d =
        {
          unit_ = u.modname;
          dpath;
          key = key_of (u.modname :: dpath);
          file;
          line;
          scope;
          exported = (not init) && exported_in u dpath;
          init;
          allows = allows_of attrs @ enclosing_allows @ fallows;
          domain_safe = Allow.has_domain_safe attrs;
          mutability = classify_value b ctx expr;
          refs = [];
          applies = [];
        }
      in
      b.b_defs <- d :: b.b_defs;
      bodies := (d, expr) :: !bodies
    in
    let add_init ~(loc : Location.t) ~attrs expr =
      let line = line_of loc in
      add_def
        ~dpath:(prefix @ [ Printf.sprintf "init@%d" line ])
        ~line ~init:true ~attrs expr
    in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                let loc = vb.vb_pat.pat_loc and attrs = vb.vb_attributes in
                match Typedtree.pat_bound_idents vb.vb_pat with
                | [] -> add_init ~loc ~attrs vb.vb_expr
                | ids ->
                    List.iter
                      (fun id ->
                        let dpath = prefix @ [ Ident.name id ] in
                        Hashtbl.replace ctx.u_values (Ident.unique_name id)
                          dpath;
                        add_def ~dpath ~line:(line_of loc) ~init:false ~attrs
                          vb.vb_expr)
                      ids)
              vbs
        | Typedtree.Tstr_eval (e, attrs) -> add_init ~loc:item.str_loc ~attrs e
        | Typedtree.Tstr_include { incl_mod; _ } -> (
            match (unwrap_module incl_mod).mod_desc with
            | Typedtree.Tmod_ident (p, _) ->
                Option.iter
                  (fun target ->
                    b.includes <- (u.modname :: prefix, target) :: b.includes)
                  (resolve b ctx p)
            | _ -> ())
        | Typedtree.Tstr_module mb -> (
            match mb.mb_id with
            | None -> ()
            | Some id -> (
                let mpath = prefix @ [ Ident.name id ] in
                Hashtbl.replace ctx.u_modules (Ident.unique_name id) mpath;
                let inner = unwrap_module mb.mb_expr in
                match inner.mod_desc with
                | Typedtree.Tmod_ident (p, _) -> (
                    match resolve b ctx p with
                    | Some target ->
                        Hashtbl.replace b.aliases
                          (u.modname, Ident.name id)
                          target
                    | None -> ())
                | Typedtree.Tmod_structure str ->
                    scan_items mpath
                      (allows_of mb.mb_attributes @ enclosing_allows)
                      str.str_items
                | _ -> ()))
        | _ -> ())
      items
  in
  scan_items [] [] u.str.str_items;
  (ctx, !bodies)

let build (units : Cmt_loader.unit_info list) =
  let b =
    {
      aliases = Hashtbl.create 256;
      includes = [];
      keyed = Hashtbl.create 1024;
      b_defs = [];
    }
  in
  let scanned = List.map (fun u -> scan_unit b u) units in
  (* second pass: canonicalize alias targets now that every unit's
     aliases are recorded, then walk bodies *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) b.aliases [] in
  List.iter
    (fun k ->
      match Hashtbl.find_opt b.aliases k with
      | Some path -> Hashtbl.replace b.aliases k (canon b.aliases 32 path)
      | None -> ())
    keys;
  List.iter (fun d -> Hashtbl.replace b.keyed d.key d) b.b_defs;
  List.iter
    (fun (ctx, bodies) ->
      List.iter (fun (d, body) -> walk_body b ctx d body) bodies)
    scanned;
  let defs = b.keyed in
  let ordered =
    List.sort (fun a bd -> String.compare a.key bd.key) b.b_defs
  in
  (* a name bound twice at top level is one node carrying the edges
     of both bindings *)
  let adjacency = Hashtbl.create 1024 in
  List.iter
    (fun d ->
      let ns =
        List.filter_map
          (fun r ->
            let k = key_of r.target in
            if k <> d.key && Hashtbl.mem defs k then Some k else None)
          d.refs
      in
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt adjacency d.key)
      in
      Hashtbl.replace adjacency d.key
        (List.sort_uniq String.compare (ns @ prev)))
    ordered;
  { defs; ordered; adjacency }

let find t key = Hashtbl.find_opt t.defs key
let iter_defs t f = List.iter f t.ordered

(* Multi-source BFS.  Sources are visited in sorted order and
   neighbors expanded in sorted order, so the parent forest — and
   therefore every printed chain — is deterministic. *)
let bfs t ~(sources : def list) ~(skip : def -> bool) =
  let parents : (string, string option) Hashtbl.t = Hashtbl.create 256 in
  let q = Queue.create () in
  List.sort (fun a b -> String.compare a.key b.key) sources
  |> List.iter (fun d ->
         if (not (skip d)) && not (Hashtbl.mem parents d.key) then (
           Hashtbl.replace parents d.key None;
           Queue.add d.key q));
  while not (Queue.is_empty q) do
    let k = Queue.take q in
    let ns = Option.value ~default:[] (Hashtbl.find_opt t.adjacency k) in
    List.iter
      (fun n ->
        if not (Hashtbl.mem parents n) then
          match Hashtbl.find_opt t.defs n with
          | Some nd when not (skip nd) ->
              Hashtbl.replace parents n (Some k);
              Queue.add n q
          | _ -> ())
      ns
  done;
  parents

let reachable parents (d : def) = Hashtbl.mem parents d.key

(* The chain source .. target, following parent pointers. *)
let chain_defs t parents (d : def) =
  let rec up k acc =
    match Hashtbl.find_opt parents k with
    | Some (Some p) -> up p (k :: acc)
    | Some None -> k :: acc
    | None -> k :: acc
  in
  up d.key [] |> List.filter_map (fun k -> find t k)
