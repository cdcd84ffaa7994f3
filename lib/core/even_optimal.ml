module Multigraph = Mgraph.Multigraph

let t_orient = Probes.timer "even_opt.pad_orient"
let t_decompose = Probes.timer "even_opt.decompose"

(* Steps 1-3: pad to degree exactly c_v * delta and Euler-orient.
   Returns the orientation of the padded graph as parallel src/dst
   arrays; edges 0..m-1 are the real transfers. *)
let padded_orientation inst delta =
  let g = Instance.graph inst in
  let n = Multigraph.n_nodes g in
  let g' = Multigraph.create ~n () in
  Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
      ignore (Multigraph.add_edge g' u v));
  let target v = Instance.cap inst v * delta in
  for v = 0 to n - 1 do
    while Multigraph.degree g' v <= target v - 2 do
      ignore (Multigraph.add_edge g' v v)
    done
  done;
  (* nodes still one short have odd original degree; they are even in
     number (handshake) — pair them with dummy edges *)
  let deficient = ref [] in
  for v = n - 1 downto 0 do
    if Multigraph.degree g' v = target v - 1 then deficient := v :: !deficient
  done;
  let rec pair = function
    | [] -> ()
    | [ _ ] -> assert false (* impossible by parity *)
    | a :: b :: rest ->
        ignore (Multigraph.add_edge g' a b);
        pair rest
  in
  pair !deficient;
  for v = 0 to n - 1 do
    assert (Multigraph.degree g' v = target v)
  done;
  Mgraph.Euler.orient g'

(* Step 4, as the paper gives it: delta successive exact c_v/2-degree
   subgraphs of H extracted by max-flow (Figure 3), all over one
   network.  [Bmatching.peel] fixes the edge order of every round after
   the first (pinned by the golden schedules); each round's list is
   built in that order, reversed. *)
let decompose_by_flows inst delta srcs dsts m =
  let n = Instance.n_disks inst in
  let half = Array.init n (fun v -> Instance.cap inst v / 2) in
  let problem =
    {
      Netflow.Bmatching.n_left = n;
      n_right = n;
      left_cap = half;
      right_cap = half;
      edge_left = srcs;
      edge_right = dsts;
    }
  in
  let rounds = Array.make delta [] in
  let exact =
    Netflow.Bmatching.peel problem ~rounds:delta (fun r e ->
        if e < m then rounds.(r) <- e :: rounds.(r))
  in
  (* Lemma 4.1/4.2: every round has an exact c_v/2-matching; each takes
     sum_v c_v/2 edges, so delta of them use up all of H *)
  assert exact;
  rounds

let schedule inst =
  if not (Instance.all_caps_even inst) then
    invalid_arg "Even_optimal.schedule: all transfer constraints must be even";
  let g = Instance.graph inst in
  let m = Multigraph.n_edges g in
  if m = 0 then Schedule.of_rounds [||]
  else begin
    let delta = Lower_bounds.lb1 inst in
    let srcs, dsts =
      Probes.time t_orient (fun () -> padded_orientation inst delta)
    in
    let rounds =
      Probes.time t_decompose (fun () ->
          decompose_by_flows inst delta srcs dsts m)
    in
    (* drop padding-only rounds *)
    let nonempty = Array.to_list rounds |> List.filter (fun r -> r <> []) in
    Schedule.of_rounds (Array.of_list nonempty)
  end
