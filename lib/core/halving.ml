module Multigraph = Mgraph.Multigraph

type stats = { rounds : int; levels : int; base_edges : int }

(* Group the edges of [g] by endpoint pair: for each pair with
   multiplicity [k], emit floor(k/2) disjoint (e, e') couples and, if
   [k] is odd, one leftover edge. *)
let pair_up g =
  let groups = Hashtbl.create 64 in
  Multigraph.iter_edges g (fun { Multigraph.id; u; v } ->
      let key = if u <= v then (u, v) else (v, u) in
      Hashtbl.replace groups key
        (id :: (try Hashtbl.find groups key with Not_found -> [])));
  let couples = ref [] and leftovers = ref [] in
  Hashtbl.iter
    (fun _ edges ->
      let rec chop = function
        | e :: e' :: rest ->
            couples := (e, e') :: !couples;
            chop rest
        | [ e ] -> leftovers := e :: !leftovers
        | [] -> ()
      in
      chop edges)
    groups;
  (!couples, !leftovers)

let base_plan ?rng inst =
  if Instance.all_caps_even inst then Even_optimal.schedule inst
  else Hetero_coloring.schedule ?rng inst

let rec plan ?rng ~threshold inst level =
  let g = Instance.graph inst in
  if Multigraph.max_multiplicity g <= threshold then
    (base_plan ?rng inst, level, Multigraph.n_edges g)
  else begin
    let couples, leftovers = pair_up g in
    (* half graph: one representative edge per couple *)
    let half = Multigraph.create ~n:(Multigraph.n_nodes g) () in
    let couple_of_half = Array.of_list couples in
    Array.iter
      (fun (e, _) ->
        let u, v = Multigraph.endpoints g e in
        ignore (Multigraph.add_edge half u v))
      couple_of_half;
    let half_inst = Instance.create half ~caps:(Instance.caps inst) in
    let half_sched, lvl, base = plan ?rng ~threshold half_inst (level + 1) in
    (* expand: each half round becomes two rounds over the couples *)
    let doubled =
      Array.concat
        (Array.to_list
           (Array.map
              (fun half_edges ->
                let firsts =
                  List.map (fun he -> fst couple_of_half.(he)) half_edges
                and seconds =
                  List.map (fun he -> snd couple_of_half.(he)) half_edges
                in
                [| firsts; seconds |])
              (Schedule.rounds half_sched)))
    in
    (* leftovers (multiplicity 1 per pair) go first-fit into the slack
       the doubled rounds leave on both their disks *)
    let n = Multigraph.n_nodes g and cap = Instance.cap inst in
    let load = Array.make (Array.length doubled * n) 0 in
    let add r e =
      let u, v = Multigraph.endpoints g e in
      load.((r * n) + u) <- load.((r * n) + u) + 1;
      load.((r * n) + v) <- load.((r * n) + v) + 1
    in
    Array.iteri (fun r edges -> List.iter (add r) edges) doubled;
    let slack e r =
      let u, v = Multigraph.endpoints g e in
      load.((r * n) + u) < cap u && load.((r * n) + v) < cap v
    in
    let rounds = Seq.init (Array.length doubled) Fun.id in
    let unplaced =
      List.filter
        (fun e ->
          match Seq.find (slack e) rounds with
          | Some r ->
              add r e;
              doubled.(r) <- e :: doubled.(r);
              false
          | None -> true)
        leftovers
    in
    (* the rest is scheduled directly, in rounds of its own *)
    let rest_rounds =
      if unplaced = [] then [||]
      else begin
        let keep = Hashtbl.create 16 in
        List.iter (fun e -> Hashtbl.add keep e ()) unplaced;
        let rest, mapping = Multigraph.sub g (Hashtbl.mem keep) in
        let rest_inst = Instance.create rest ~caps:(Instance.caps inst) in
        let rest_sched = base_plan ?rng rest_inst in
        Array.map
          (fun edges -> List.map (fun e -> mapping.(e)) edges)
          (Schedule.rounds rest_sched)
      end
    in
    (Schedule.of_rounds (Array.append doubled rest_rounds), lvl, base)
  end

let schedule_stats ?rng ?(threshold = 4) inst =
  if threshold < 1 then invalid_arg "Halving.schedule: threshold must be >= 1";
  let sched, levels, base_edges = plan ?rng ~threshold inst 0 in
  (sched, { rounds = Schedule.n_rounds sched; levels; base_edges })

let schedule ?rng ?threshold inst = fst (schedule_stats ?rng ?threshold inst)
