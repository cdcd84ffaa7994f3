type problem = {
  n_left : int;
  n_right : int;
  left_cap : int array;
  right_cap : int array;
  edges : (int * int) array;
}

let check p =
  if Array.length p.left_cap <> p.n_left || Array.length p.right_cap <> p.n_right
  then invalid_arg "Bmatching: capacity vector length mismatch";
  Array.iter
    (fun (l, r) ->
      if l < 0 || l >= p.n_left || r < 0 || r >= p.n_right then
        invalid_arg "Bmatching: edge endpoint out of range")
    p.edges

(* Network layout: 0 = source, 1 = sink, 2..2+nl-1 = left,
   2+nl.. = right.  Edge arcs come last, in edge order, so the forward
   arc of edge i has id [first_edge_arc + 2*i]. *)
let build p =
  let nl = p.n_left and nr = p.n_right in
  let k = nl + nr + Array.length p.edges in
  let src = Array.make k 0 and dst = Array.make k 0 and cap = Array.make k 1 in
  for l = 0 to nl - 1 do
    dst.(l) <- 2 + l;
    cap.(l) <- p.left_cap.(l)
  done;
  for r = 0 to nr - 1 do
    src.(nl + r) <- 2 + nl + r;
    dst.(nl + r) <- 1;
    cap.(nl + r) <- p.right_cap.(r)
  done;
  Array.iteri
    (fun i (l, r) ->
      src.(nl + nr + i) <- 2 + l;
      dst.(nl + nr + i) <- 2 + nl + r)
    p.edges;
  (Flow_network.of_arcs ~n:(2 + nl + nr) ~src ~dst ~cap, 2 * (nl + nr))

(* One Dinic run over the whole problem, even when the bipartite graph
   falls apart into many components.  The network is then their
   disjoint union glued only at source and sink, and every augmenting
   path stays inside one component (Dinic's DFS never passes through
   the sink mid-path).  Restricted to one component, the joint run's
   level functions, cursor dynamics and augmentations coincide with a
   solo run on the (order-preserving) subproblem, so the joint
   selection equals the merged per-component selections bit for bit.
   test/test_flow.ml pins this as a property. *)
let solve_max p =
  check p;
  let net, first = build p in
  let value = Max_flow.max_flow net ~s:0 ~t:1 in
  let sel =
    Array.init (Array.length p.edges) (fun i ->
        Flow_network.flow net (first + (2 * i)) = 1)
  in
  (sel, value)

let solve_exact p =
  check p;
  let sum a = Array.fold_left ( + ) 0 a in
  let target = sum p.left_cap in
  if target <> sum p.right_cap then None
  else
    let sel, value = solve_max p in
    if value = target then Some sel else None

let degrees p sel =
  let ld = Array.make p.n_left 0 and rd = Array.make p.n_right 0 in
  Array.iteri
    (fun i (l, r) ->
      if sel.(i) then begin
        ld.(l) <- ld.(l) + 1;
        rd.(r) <- rd.(r) + 1
      end)
    p.edges;
  (ld, rd)
