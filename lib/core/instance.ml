module Multigraph = Mgraph.Multigraph

(* SLA tagging: [groups.(e)] is the tenant/group id of edge [e];
   [weights.(g)] is group [g]'s priority weight.  Untagged instances
   carry no [sla] record and behave as one implicit group of weight
   one, so the common path pays nothing. *)
type sla = { groups : int array; weights : int array }
type t = { graph : Multigraph.t; caps : int array; sla : sla option }

let create ?groups ?weights g ~caps =
  if Array.length caps <> Multigraph.n_nodes g then
    invalid_arg "Instance.create: one capacity per node required";
  Array.iter
    (fun c ->
      if c < 1 then invalid_arg "Instance.create: capacities must be >= 1")
    caps;
  Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
      if u = v then
        invalid_arg "Instance.create: self-loop (item already at target)");
  let sla =
    match (groups, weights) with
    | None, None -> None
    | None, Some _ ->
        invalid_arg "Instance.create: weights require groups"
    | Some groups, weights ->
        if Array.length groups <> Multigraph.n_edges g then
          invalid_arg "Instance.create: one group per edge required";
        let k =
          match weights with
          | Some w -> Array.length w
          | None -> 1 + Array.fold_left max (-1) groups
        in
        if k < 1 then invalid_arg "Instance.create: at least one group";
        Array.iter
          (fun gid ->
            if gid < 0 || gid >= k then
              invalid_arg "Instance.create: group id out of range")
          groups;
        let weights =
          match weights with
          | Some w ->
              Array.iter
                (fun w ->
                  if w < 1 then
                    invalid_arg "Instance.create: weights must be >= 1")
                w;
              Array.copy w
          | None -> Array.make k 1
        in
        Some { groups = Array.copy groups; weights }
  in
  { graph = g; caps = Array.copy caps; sla }

let uniform g ~cap =
  create g ~caps:(Array.make (Multigraph.n_nodes g) cap)

let random_caps rng g ~choices =
  let choices = Array.of_list choices in
  if Array.length choices = 0 then invalid_arg "Instance.random_caps";
  let caps =
    Array.init (Multigraph.n_nodes g) (fun _ ->
        choices.(Random.State.int rng (Array.length choices)))
  in
  create g ~caps

let graph t = t.graph
let cap t v = t.caps.(v)
let caps t = Array.copy t.caps
let n_disks t = Multigraph.n_nodes t.graph
let n_items t = Multigraph.n_edges t.graph
let tagged t = t.sla <> None
let n_groups t = match t.sla with None -> 1 | Some s -> Array.length s.weights
let group t e = match t.sla with None -> 0 | Some s -> s.groups.(e)
let weight t g = match t.sla with None -> 1 | Some s -> s.weights.(g)

let groups t =
  match t.sla with
  | None -> Array.make (n_items t) 0
  | Some s -> Array.copy s.groups

let weights t =
  match t.sla with None -> [| 1 |] | Some s -> Array.copy s.weights

let all_caps_even t = Array.for_all (fun c -> c mod 2 = 0) t.caps

let degree_ratio t v =
  let d = Multigraph.degree t.graph v in
  (d + t.caps.(v) - 1) / t.caps.(v)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (n_disks t) (n_items t));
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int c))
    t.caps;
  Buffer.add_char buf '\n';
  (match t.sla with
  | None ->
      Multigraph.iter_edges t.graph (fun { Multigraph.u; v; _ } ->
          Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
  | Some { groups; weights } ->
      Buffer.add_string buf
        (Printf.sprintf "groups %d\n" (Array.length weights));
      Array.iteri
        (fun i w ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int w))
        weights;
      Buffer.add_char buf '\n';
      Multigraph.iter_edges t.graph (fun { Multigraph.id; u; v } ->
          Buffer.add_string buf (Printf.sprintf "%d %d %d\n" u v groups.(id))));
  Buffer.contents buf

let of_string s =
  let fail msg = failwith ("Instance.of_string: " ^ msg) in
  let toks =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun t -> t <> "")
  in
  let int_of tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> fail ("not an integer: " ^ tok)
  in
  match toks with
  | n :: m :: rest ->
      let n = int_of n and m = int_of m in
      if n < 0 || m < 0 then fail "negative header";
      let rec split_caps k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> fail "missing capacities"
        | c :: rest -> split_caps (k - 1) (int_of c :: acc) rest
      in
      let caps, rest = split_caps n [] rest in
      let g = Multigraph.create ~n () in
      (* Optional SLA block: a literal "groups k" after the capacities,
         then k weights, then 3-token "u v g" edge lines instead of
         pairs.  Legacy untagged inputs parse exactly as before. *)
      let weights, rest =
        match rest with
        | "groups" :: k :: rest ->
            let k = int_of k in
            if k < 1 then fail "at least one group required";
            let rec split_w k acc = function
              | rest when k = 0 -> (List.rev acc, rest)
              | [] -> fail "missing group weights"
              | w :: rest -> split_w (k - 1) (int_of w :: acc) rest
            in
            let ws, rest = split_w k [] rest in
            (Some (Array.of_list ws), rest)
        | rest -> (None, rest)
      in
      (match weights with
      | None ->
          let rec edges k = function
            | [] -> if k <> m then fail "fewer edges than declared"
            | u :: v :: rest ->
                if k >= m then fail "more edges than declared";
                ignore (Multigraph.add_edge g (int_of u) (int_of v));
                edges (k + 1) rest
            | [ _ ] -> fail "dangling endpoint"
          in
          edges 0 rest;
          create g ~caps:(Array.of_list caps)
      | Some weights ->
          (* m comes from the header: check it against the input before
             allocating from it *)
          if m > List.length rest / 3 then fail "fewer edges than declared";
          let groups = Array.make m 0 in
          let rec edges k = function
            | [] -> if k <> m then fail "fewer edges than declared"
            | u :: v :: gid :: rest ->
                if k >= m then fail "more edges than declared";
                ignore (Multigraph.add_edge g (int_of u) (int_of v));
                groups.(k) <- int_of gid;
                edges (k + 1) rest
            | _ -> fail "dangling tagged edge"
          in
          edges 0 rest;
          create g ~caps:(Array.of_list caps) ~groups ~weights)
  | _ -> fail "missing header"

type component = { instance : t; nodes : int array; edges : int array }

let decompose t =
  let g = t.graph in
  let n = Multigraph.n_nodes g in
  let comp, k = Mgraph.Traversal.components g in
  if k <= 1 then
    [
      {
        instance = t;
        nodes = Array.init n Fun.id;
        edges = Array.init (Multigraph.n_edges g) Fun.id;
      };
    ]
  else begin
    (* local node ids follow the original node order within each
       component, so the mapping arrays are monotone — easier to test
       and stable across runs *)
    let local = Array.make n (-1) in
    let sizes = Array.make k 0 in
    for v = 0 to n - 1 do
      local.(v) <- sizes.(comp.(v));
      sizes.(comp.(v)) <- sizes.(comp.(v)) + 1
    done;
    let graphs = Array.init k (fun c -> Multigraph.create ~n:sizes.(c) ()) in
    let nodes = Array.init k (fun c -> Array.make sizes.(c) (-1)) in
    for v = 0 to n - 1 do
      nodes.(comp.(v)).(local.(v)) <- v
    done;
    let edges = Array.make k [] in
    (* iter_edges visits in increasing id order; accumulate reversed *)
    Multigraph.iter_edges g (fun { Multigraph.id; u; v } ->
        let c = comp.(u) in
        ignore (Multigraph.add_edge graphs.(c) local.(u) local.(v));
        edges.(c) <- id :: edges.(c));
    List.init k (fun c ->
        let caps =
          Array.map (fun v -> t.caps.(v)) nodes.(c)
        in
        let edges = Array.of_list (List.rev edges.(c)) in
        let instance =
          match t.sla with
          | None -> create graphs.(c) ~caps
          | Some { groups; weights } ->
              (* group ids stay global: every component keeps the full
                 weight table so per-group claims merge trivially *)
              create graphs.(c) ~caps
                ~groups:(Array.map (fun e -> groups.(e)) edges)
                ~weights
        in
        { instance; nodes = nodes.(c); edges })
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>instance: %d disks, %d items%s@," (n_disks t)
    (n_items t)
    (match t.sla with
    | None -> ""
    | Some s -> Printf.sprintf ", %d groups" (Array.length s.weights));
  Format.fprintf ppf "caps: @[%a@]@,"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    (Array.to_list t.caps);
  Format.fprintf ppf "%a@]" Multigraph.pp t.graph
