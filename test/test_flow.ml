(* Tests for the max-flow substrate: Flow_network, Max_flow,
   Bmatching. *)

module Fn = Netflow.Flow_network
module Mf = Netflow.Max_flow
module Bm = Netflow.Bmatching
open Test_util

(* ------------------------------------------------------------------ *)
(* Flow_network *)

let test_network_basic () =
  let net = Fn.create ~n:3 in
  let a = Fn.add_arc net ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "arc ids pair up" 0 a;
  Alcotest.(check int) "n_arcs counts residuals" 2 (Fn.n_arcs net);
  Alcotest.(check int) "src" 0 (Fn.src net a);
  Alcotest.(check int) "dst" 1 (Fn.dst net a);
  Alcotest.(check int) "residual" 5 (Fn.residual net a);
  Alcotest.(check int) "flow" 0 (Fn.flow net a);
  Fn.push net a 3;
  Alcotest.(check int) "residual after push" 2 (Fn.residual net a);
  Alcotest.(check int) "flow after push" 3 (Fn.flow net a);
  Alcotest.(check int) "reverse residual" 3 (Fn.residual net (a lxor 1));
  Fn.reset net;
  Alcotest.(check int) "reset" 5 (Fn.residual net a)

let test_network_errors () =
  let net = Fn.create ~n:2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Flow_network.add_arc: negative capacity") (fun () ->
      ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:(-1)));
  let a = Fn.add_arc net ~src:0 ~dst:1 ~cap:2 in
  Alcotest.check_raises "overpush" (Invalid_argument "Flow_network.push")
    (fun () -> Fn.push net a 3)

(* ------------------------------------------------------------------ *)
(* Max_flow on known networks *)

(* The classic CLRS example: max flow 23. *)
let test_clrs () =
  let net = Fn.create ~n:6 in
  let s = 0 and t = 5 in
  let add a b c = ignore (Fn.add_arc net ~src:a ~dst:b ~cap:c) in
  add s 1 16;
  add s 2 13;
  add 1 2 10;
  add 2 1 4;
  add 1 3 12;
  add 3 2 9;
  add 2 4 14;
  add 4 3 7;
  add 3 t 20;
  add 4 t 4;
  Alcotest.(check int) "value" 23 (Mf.max_flow net ~s ~t);
  Alcotest.(check bool) "conservation" true (Mf.conservation_ok net ~s ~t)

let test_disconnected () =
  let net = Fn.create ~n:4 in
  ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:7);
  ignore (Fn.add_arc net ~src:2 ~dst:3 ~cap:7);
  Alcotest.(check int) "no path" 0 (Mf.max_flow net ~s:0 ~t:3)

let test_parallel_arcs () =
  let net = Fn.create ~n:2 in
  ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:3);
  ignore (Fn.add_arc net ~src:0 ~dst:1 ~cap:4);
  Alcotest.(check int) "parallel arcs add" 7 (Mf.max_flow net ~s:0 ~t:1)

let test_s_eq_t () =
  let net = Fn.create ~n:2 in
  Alcotest.check_raises "s=t" (Invalid_argument "Max_flow.max_flow: s = t")
    (fun () -> ignore (Mf.max_flow net ~s:0 ~t:0))

(* Random bipartite unit networks: flow = value certified by min cut,
   and conservation holds. *)
let flow_cut_duality =
  qtest "max-flow: min cut certifies the flow value" ~count:60
    (graph_spec_gen ~max_n:14 ~max_m:60)
    (fun spec ->
      let g = graph_of_spec spec in
      let n = Mgraph.Multigraph.n_nodes g in
      (* build s -> left copy -> right copy -> t over the graph's edges *)
      let net = Fn.create ~n:((2 * n) + 2) in
      let s = 2 * n and t = (2 * n) + 1 in
      for v = 0 to n - 1 do
        ignore (Fn.add_arc net ~src:s ~dst:v ~cap:1);
        ignore (Fn.add_arc net ~src:(n + v) ~dst:t ~cap:1)
      done;
      Mgraph.Multigraph.iter_edges g (fun { Mgraph.Multigraph.u; v; _ } ->
          ignore (Fn.add_arc net ~src:u ~dst:(n + v) ~cap:1));
      let value = Mf.max_flow net ~s ~t in
      if not (Mf.conservation_ok net ~s ~t) then false
      else begin
        (* capacity of the cut found must equal the flow value *)
        let cut = Mf.min_cut net ~s in
        let cut_cap = ref 0 in
        let a = ref 0 in
        while !a < Fn.n_arcs net do
          (* forward arcs only *)
          let u = Fn.src net !a and v = Fn.dst net !a in
          if cut.(u) && not cut.(v) then
            cut_cap := !cut_cap + Fn.residual net !a + Fn.flow net !a;
          a := !a + 2
        done;
        !cut_cap = value
      end)

(* Random networks: parallel, antiparallel and self arcs, arbitrary
   capacities.  The value is certified by a cut of equal capacity,
   conservation holds, and no arc carries more than it can.  This
   covers [max_flow]'s row-major copy and its write-back by arc id. *)
let flow_random_networks =
  qtest "max-flow: random networks, flow is feasible and cut-certified"
    ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let n = 2 + Random.State.int rng 8 in
      let net = Fn.create ~n in
      let caps =
        List.init (Random.State.int rng 40) (fun _ ->
            let cap = Random.State.int rng 6 in
            let src = Random.State.int rng n and dst = Random.State.int rng n in
            (Fn.add_arc net ~src ~dst ~cap, cap))
      in
      let s = 0 and t = n - 1 in
      let value = Mf.max_flow net ~s ~t in
      let cut = Mf.min_cut net ~s in
      let cut_cap =
        List.fold_left
          (fun acc (a, cap) ->
            if cut.(Fn.src net a) && not cut.(Fn.dst net a) then acc + cap
            else acc)
          0 caps
      in
      Mf.conservation_ok net ~s ~t
      && List.for_all
           (fun (a, cap) -> Fn.flow net a >= 0 && Fn.flow net a <= cap)
           caps
      && (not cut.(t))
      && cut_cap = value)

(* ------------------------------------------------------------------ *)
(* Bmatching *)

(* the problem on [(l, r)] edge pairs *)
let problem ~left_cap ~right_cap edges =
  {
    Bm.n_left = Array.length left_cap;
    n_right = Array.length right_cap;
    left_cap;
    right_cap;
    edge_left = Array.map fst edges;
    edge_right = Array.map snd edges;
  }

let edges_of p = Array.map2 (fun l r -> (l, r)) p.Bm.edge_left p.Bm.edge_right

let test_bmatching_exact_small () =
  (* 2x2 complete bipartite with unit caps: perfect matching *)
  let p =
    problem ~left_cap:[| 1; 1 |] ~right_cap:[| 1; 1 |]
      [| (0, 0); (0, 1); (1, 0); (1, 1) |]
  in
  (match Bm.solve_exact p with
  | None -> Alcotest.fail "expected a perfect matching"
  | Some sel ->
      let ld, rd = Bm.degrees p sel in
      Alcotest.(check (array int)) "left degrees" [| 1; 1 |] ld;
      Alcotest.(check (array int)) "right degrees" [| 1; 1 |] rd);
  (* infeasible despite equal cap sums: left node 1 needs two edges but
     only one is incident to it *)
  let p_bad =
    problem ~left_cap:[| 1; 2 |] ~right_cap:[| 2; 1 |]
      [| (0, 0); (0, 1); (1, 0) |]
  in
  Alcotest.(check bool) "infeasible" true (Bm.solve_exact p_bad = None)

let test_bmatching_max () =
  let p =
    problem ~left_cap:[| 1; 1; 1 |] ~right_cap:[| 1; 1 |]
      [| (0, 0); (1, 0); (2, 1) |]
  in
  let sel, value = Bm.solve_max p in
  Alcotest.(check int) "max matching" 2 value;
  let ld, rd = Bm.degrees p sel in
  Alcotest.(check bool) "caps respected" true
    (Array.for_all2 ( >= ) p.Bm.left_cap ld
    && Array.for_all2 ( >= ) p.Bm.right_cap rd)

let test_bmatching_errors () =
  let p =
    {
      Bm.n_left = 1;
      n_right = 1;
      left_cap = [| 1; 2 |];
      right_cap = [| 1 |];
      edge_left = [||];
      edge_right = [||];
    }
  in
  Alcotest.check_raises "cap length"
    (Invalid_argument "Bmatching: capacity vector length mismatch") (fun () ->
      ignore (Bm.solve_max p));
  Alcotest.check_raises "endpoint lengths"
    (Invalid_argument "Bmatching: endpoint arrays of unequal length")
    (fun () ->
      ignore (Bm.solve_max { p with left_cap = [| 1 |]; edge_left = [| 0 |] }));
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Bmatching: edge endpoint out of range") (fun () ->
      ignore
        (Bm.solve_max
           (problem ~left_cap:[| 1 |] ~right_cap:[| 1 |] [| (0, 1) |])));
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Bmatching: negative capacity") (fun () ->
      ignore
        (Bm.solve_exact
           (problem ~left_cap:[| -1; 1 |] ~right_cap:[| 0 |] [| (1, 0) |])));
  Alcotest.check_raises "negative rounds"
    (Invalid_argument "Bmatching.peel: negative rounds") (fun () ->
      ignore
        (Bm.peel
           (problem ~left_cap:[| 1 |] ~right_cap:[| 1 |] [| (0, 0) |])
           ~rounds:(-1)
           (fun _ _ -> ())))

(* A random interleaving of [0 .. na-1] and [0 .. nb-1] into
   [0 .. na+nb-1] that keeps each side's order: the positions the two
   sides' elements take. *)
let interleave rng na nb =
  let pa = Array.make na 0 and pb = Array.make nb 0 in
  let ia = ref 0 and ib = ref 0 in
  for i = 0 to na + nb - 1 do
    if !ib = nb || (!ia < na && Random.State.bool rng) then begin
      pa.(!ia) <- i;
      incr ia
    end
    else begin
      pb.(!ib) <- i;
      incr ib
    end
  done;
  (pa, pb)

let random_problem rng =
  let n_left = 1 + Random.State.int rng 6
  and n_right = 1 + Random.State.int rng 6 in
  let caps k = Array.init k (fun _ -> Random.State.int rng 4) in
  problem ~left_cap:(caps n_left) ~right_cap:(caps n_right)
    (Array.init (Random.State.int rng 16) (fun _ ->
         (Random.State.int rng n_left, Random.State.int rng n_right)))

(* Why one joint flow per round is enough: on the disjoint union of two
   problems, nodes and edges interleaved but each part's order kept,
   the selection restricted to a part is exactly that part's solo
   selection. *)
let component_locality =
  qtest "bmatching: a disjoint union selects what each part selects alone"
    ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let a = random_problem rng and b = random_problem rng in
      let la, lb = interleave rng a.Bm.n_left b.Bm.n_left in
      let ra, rb = interleave rng a.Bm.n_right b.Bm.n_right in
      let ea, eb =
        interleave rng
          (Array.length a.Bm.edge_left)
          (Array.length b.Bm.edge_left)
      in
      let left_cap = Array.make (a.n_left + b.n_left) 0
      and right_cap = Array.make (a.n_right + b.n_right) 0
      and edges = Array.make (Array.length ea + Array.length eb) (0, 0) in
      let place p lmap rmap emap =
        Array.iteri (fun l c -> left_cap.(lmap.(l)) <- c) p.Bm.left_cap;
        Array.iteri (fun r c -> right_cap.(rmap.(r)) <- c) p.Bm.right_cap;
        Array.iteri
          (fun i (l, r) -> edges.(emap.(i)) <- (lmap.(l), rmap.(r)))
          (edges_of p)
      in
      place a la ra ea;
      place b lb rb eb;
      let sel, value = Bm.solve_max (problem ~left_cap ~right_cap edges) in
      let sel_a, value_a = Bm.solve_max a and sel_b, value_b = Bm.solve_max b in
      value = value_a + value_b
      && Array.for_all2 (fun i s -> sel.(i) = s) ea sel_a
      && Array.for_all2 (fun i s -> sel.(i) = s) eb sel_b)

(* Bmatching lays out its network in place, row by row.  The rows must
   be exactly the ones [add_arc] in Figure 3 order (source arcs by
   left node, sink arcs by right node, then the edges) and [freeze]
   give, since Dinic's DFS tries arcs in row order: the same kernel on
   both networks must then select the same edges. *)
let layout_is_add_arc_order =
  qtest "bmatching: the in-place network is the add_arc network" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let p = random_problem (rng_of_int seed) in
      let nl = p.Bm.n_left and nr = p.Bm.n_right in
      let net = Fn.create ~n:(2 + nl + nr) in
      Array.iteri
        (fun l cap -> ignore (Fn.add_arc net ~src:0 ~dst:(2 + l) ~cap))
        p.Bm.left_cap;
      Array.iteri
        (fun r cap -> ignore (Fn.add_arc net ~src:(2 + nl + r) ~dst:1 ~cap))
        p.Bm.right_cap;
      let arcs =
        Array.map
          (fun (l, r) -> Fn.add_arc net ~src:(2 + l) ~dst:(2 + nl + r) ~cap:1)
          (edges_of p)
      in
      let value = Mf.max_flow net ~s:0 ~t:1 in
      let sel, value' = Bm.solve_max p in
      value = value'
      && Array.for_all2 (fun a s -> (Fn.flow net a = 1) = s) arcs sel)

(* Regular bipartite multigraphs always admit an exact c-matching
   (this is the feasibility fact behind the paper's Lemma 4.1). *)
let bmatching_regular_feasible =
  qtest "bmatching: d-regular bipartite admits exact c-matching for c <= d"
    ~count:50
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 2 8 in
      let* d = int_range 1 6 in
      let* c = int_range 1 d in
      return (seed, n, d, c))
    (fun (seed, n, d, c) ->
      let rng = rng_of_int seed in
      (* random d-regular bipartite multigraph via d perfect matchings *)
      let edges = ref [] in
      for _ = 1 to d do
        let perm = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        Array.iteri (fun l r -> edges := (l, r) :: !edges) perm
      done;
      let p =
        problem ~left_cap:(Array.make n c) ~right_cap:(Array.make n c)
          (Array.of_list !edges)
      in
      match Bm.solve_exact p with
      | None -> false
      | Some sel ->
          let ld, rd = Bm.degrees p sel in
          Array.for_all (fun x -> x = c) ld && Array.for_all (fun x -> x = c) rd)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The union of k random exact b-matchings on the same capacities: its
   degrees are k times the capacities, so it splits into k exact
   rounds however the rounds are chosen (split each node into
   unit-capacity copies of degree k, then König). *)
let peel_problem rng =
  let n_left = 1 + Random.State.int rng 6 in
  let left_cap = Array.init n_left (fun _ -> Random.State.int rng 4) in
  let total = Array.fold_left ( + ) 0 left_cap in
  let n_right = 1 + Random.State.int rng 6 in
  let right_cap = Array.make n_right 0 in
  for _ = 1 to total do
    let r = Random.State.int rng n_right in
    right_cap.(r) <- right_cap.(r) + 1
  done;
  let stubs caps =
    Array.concat (Array.to_list (Array.mapi (fun v c -> Array.make c v) caps))
  in
  let k = Random.State.int rng 6 in
  let rounds =
    List.init k (fun _ ->
        let ls = stubs left_cap and rs = stubs right_cap in
        shuffle rng rs;
        Array.map2 (fun l r -> (l, r)) ls rs)
  in
  let edges = Array.concat rounds in
  shuffle rng edges;
  (problem ~left_cap ~right_cap edges, k)

(* [peel] against its specification: round r is [solve_exact] on the
   edges round r-1 left, in reverse order, and reports its edges in
   the order it was given them.  So every round is exact on both
   sides, every edge lands in exactly one round, and round 0 is
   [solve_exact] on the whole problem. *)
let peel_matches_spec =
  qtest "bmatching: peel = solve_exact round by round" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let p, k = peel_problem (rng_of_int seed) in
      let m = Array.length p.Bm.edge_left in
      let reported = Array.make k [] in
      let exact =
        Bm.peel p ~rounds:k (fun r e -> reported.(r) <- e :: reported.(r))
      in
      let reported = Array.map List.rev reported in
      let mask edges =
        let sel = Array.make m false in
        List.iter (fun e -> sel.(e) <- true) edges;
        sel
      in
      let round_exact edges =
        Bm.degrees p (mask edges) = (p.Bm.left_cap, p.Bm.right_cap)
      in
      let hits = Array.make m 0 in
      Array.iter (List.iter (fun e -> hits.(e) <- hits.(e) + 1)) reported;
      (* the reference: a fresh [solve_exact] per round on the explicit
         edge order *)
      let rec reference r order =
        r = k
        ||
        let sub =
          {
            p with
            edge_left = Array.map (fun e -> p.Bm.edge_left.(e)) order;
            edge_right = Array.map (fun e -> p.Bm.edge_right.(e)) order;
          }
        in
        match Bm.solve_exact sub with
        | None -> false
        | Some sel ->
            let picked = ref [] and kept = ref [] in
            Array.iteri
              (fun i e ->
                if sel.(i) then picked := e :: !picked else kept := e :: !kept)
              order;
            List.rev !picked = reported.(r)
            && reference (r + 1) (Array.of_list !kept)
      in
      exact
      && Array.for_all round_exact reported
      && Array.for_all (fun h -> h = 1) hits
      && (k = 0 || Bm.solve_exact p = Some (mask reported.(0)))
      && reference 0 (Array.init m Fun.id))

(* No exact round: [peel] returns [false], as [solve_exact] returns
   [None], and reports nothing for that round. *)
let test_peel_infeasible () =
  let calls = ref [] in
  let record r e = calls := (r, e) :: !calls in
  let p_bad =
    problem ~left_cap:[| 1; 2 |] ~right_cap:[| 2; 1 |]
      [| (0, 0); (0, 1); (1, 0) |]
  in
  Alcotest.(check bool) "round 0 infeasible" false
    (Bm.peel p_bad ~rounds:1 record);
  Alcotest.(check (list (pair int int))) "nothing reported" [] !calls;
  let unequal = problem ~left_cap:[| 1 |] ~right_cap:[| 2 |] [| (0, 0) |] in
  Alcotest.(check bool) "unequal cap sums" false
    (Bm.peel unequal ~rounds:1 record);
  (* a perfect matching, then one edge short of another *)
  let p =
    problem ~left_cap:[| 1; 1 |] ~right_cap:[| 1; 1 |]
      [| (0, 0); (1, 1); (0, 1) |]
  in
  Alcotest.(check bool) "round 1 infeasible" false (Bm.peel p ~rounds:2 record);
  Alcotest.(check (list (pair int int))) "round 0 only" [ (0, 0); (0, 1) ]
    (List.rev !calls);
  Alcotest.(check bool) "zero rounds" true (Bm.peel p ~rounds:0 record)

let () =
  Alcotest.run "netflow"
    [
      ( "network",
        [
          Alcotest.test_case "basic" `Quick test_network_basic;
          Alcotest.test_case "errors" `Quick test_network_errors;
        ] );
      ( "max_flow",
        [
          Alcotest.test_case "clrs example" `Quick test_clrs;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs;
          Alcotest.test_case "s = t rejected" `Quick test_s_eq_t;
          flow_cut_duality;
          flow_random_networks;
        ] );
      ( "bmatching",
        [
          Alcotest.test_case "exact small" `Quick test_bmatching_exact_small;
          Alcotest.test_case "max" `Quick test_bmatching_max;
          Alcotest.test_case "errors" `Quick test_bmatching_errors;
          component_locality;
          layout_is_add_arc_order;
          bmatching_regular_feasible;
          peel_matches_spec;
          Alcotest.test_case "peel: no exact round" `Quick test_peel_infeasible;
        ] );
    ]
