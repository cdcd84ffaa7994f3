(* Tests for the max-flow substrate: Max_flow.dinic on row-major
   networks, and Bmatching.peel. *)

module Mf = Netflow.Max_flow
module Bm = Netflow.Bmatching
open Test_util

(* ------------------------------------------------------------------ *)
(* Max_flow *)

(* The rows of an [n]-node network with the arcs [(src, dst, cap)]:
   each arc and its reverse (capacity 0), every row in the order its
   arcs were given.  Also returns each arc's position. *)
let rows_of_arcs n arcs =
  let m = List.length arcs in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    arcs;
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let next = Array.sub offsets 0 n in
  let head = Array.make (2 * m) 0
  and cap = Array.make (2 * m) 0
  and rev = Array.make (2 * m) 0 in
  let slot v =
    let p = next.(v) in
    next.(v) <- p + 1;
    p
  in
  let pos =
    List.map
      (fun (u, v, c) ->
        let a = slot u in
        let b = slot v in
        head.(a) <- v;
        cap.(a) <- c;
        rev.(a) <- b;
        head.(b) <- u;
        rev.(b) <- a;
        a)
      arcs
  in
  ({ Mf.offsets; head; cap; rev }, pos)

(* the nodes residual-reachable from [s]: after a maximum flow, a
   minimum cut *)
let residual_side { Mf.offsets; head; cap; _ } ~s =
  let seen = Array.make (Array.length offsets - 1) false in
  let q = Queue.create () in
  seen.(s) <- true;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for p = offsets.(u) to offsets.(u + 1) - 1 do
      if cap.(p) > 0 && not seen.(head.(p)) then begin
        seen.(head.(p)) <- true;
        Queue.add head.(p) q
      end
    done
  done;
  seen

(* An arc's flow is its reverse's residual.  The flow is feasible when
   every arc carries between 0 and its capacity and every node but [s]
   and [t] passes on all it receives. *)
let feasible n arcs (rows, pos) ~s ~t =
  let balance = Array.make n 0 in
  let ok = ref true in
  List.iter2
    (fun (u, v, c) a ->
      let f = rows.Mf.cap.(rows.Mf.rev.(a)) in
      if f < 0 || f > c || rows.Mf.cap.(a) <> c - f then ok := false;
      balance.(u) <- balance.(u) - f;
      balance.(v) <- balance.(v) + f)
    arcs pos;
  for v = 0 to n - 1 do
    if v <> s && v <> t && balance.(v) <> 0 then ok := false
  done;
  !ok

(* the capacity of the arcs leaving [side] *)
let cut_capacity arcs side =
  List.fold_left
    (fun acc (u, v, c) -> if side.(u) && not side.(v) then acc + c else acc)
    0 arcs

(* The classic CLRS example: max flow 23. *)
let test_clrs () =
  let s = 0 and t = 5 in
  let arcs =
    [ (s, 1, 16); (s, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12) ]
    @ [ (3, 2, 9); (2, 4, 14); (4, 3, 7); (3, t, 20); (4, t, 4) ]
  in
  let net = rows_of_arcs 6 arcs in
  Alcotest.(check int) "value" 23 (Mf.dinic (fst net) ~s ~t);
  Alcotest.(check bool) "conservation" true (feasible 6 arcs net ~s ~t)

let test_disconnected () =
  let rows, _ = rows_of_arcs 4 [ (0, 1, 7); (2, 3, 7) ] in
  Alcotest.(check int) "no path" 0 (Mf.dinic rows ~s:0 ~t:3)

let test_parallel_arcs () =
  let rows, _ = rows_of_arcs 2 [ (0, 1, 3); (0, 1, 4) ] in
  Alcotest.(check int) "parallel arcs add" 7 (Mf.dinic rows ~s:0 ~t:1)

let test_s_eq_t () =
  let rows, _ = rows_of_arcs 2 [] in
  Alcotest.check_raises "s=t" (Invalid_argument "Max_flow.dinic: s = t")
    (fun () -> ignore (Mf.dinic rows ~s:0 ~t:0))

(* Random bipartite unit networks: flow = value certified by min cut,
   and conservation holds. *)
let flow_cut_duality =
  qtest "max-flow: min cut certifies the flow value" ~count:60
    (graph_spec_gen ~max_n:14 ~max_m:60)
    (fun spec ->
      let g = graph_of_spec spec in
      let n = Mgraph.Multigraph.n_nodes g in
      (* s -> left copy -> right copy -> t over the graph's edges *)
      let s = 2 * n and t = (2 * n) + 1 in
      let ends = List.init n (fun v -> [ (s, v, 1); (n + v, t, 1) ]) in
      let edges = ref [] in
      Mgraph.Multigraph.iter_edges g (fun { Mgraph.Multigraph.u; v; _ } ->
          edges := (u, n + v, 1) :: !edges);
      let arcs = List.concat ends @ List.rev !edges in
      let ((rows, _) as net) = rows_of_arcs ((2 * n) + 2) arcs in
      let value = Mf.dinic rows ~s ~t in
      feasible ((2 * n) + 2) arcs net ~s ~t
      && cut_capacity arcs (residual_side rows ~s) = value)

(* Random networks: parallel, antiparallel and self arcs, arbitrary
   capacities.  The value is certified by a cut of equal capacity,
   conservation holds, and no arc carries more than it can. *)
let flow_random_networks =
  qtest "max-flow: random networks, flow is feasible and cut-certified"
    ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let n = 2 + Random.State.int rng 8 in
      let arcs =
        List.init (Random.State.int rng 40) (fun _ ->
            let cap = Random.State.int rng 6 in
            let src = Random.State.int rng n and dst = Random.State.int rng n in
            (src, dst, cap))
      in
      let s = 0 and t = n - 1 in
      let ((rows, _) as net) = rows_of_arcs n arcs in
      let value = Mf.dinic rows ~s ~t in
      let side = residual_side rows ~s in
      feasible n arcs net ~s ~t
      && (not side.(t))
      && cut_capacity arcs side = value)

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

(* One exact b-matching, as a selection mask indexed like the edges:
   [peel]'s first round. *)
let solve_exact p =
  let sel = Array.make (Array.length p.Bm.edge_left) false in
  if Bm.peel p ~rounds:1 (fun _ e -> sel.(e) <- true) then Some sel else None

(* the degrees a selection mask induces *)
let degrees p sel =
  let ld = Array.make p.Bm.n_left 0 and rd = Array.make p.Bm.n_right 0 in
  Array.iteri
    (fun i l ->
      if sel.(i) then begin
        ld.(l) <- ld.(l) + 1;
        rd.(p.Bm.edge_right.(i)) <- rd.(p.Bm.edge_right.(i)) + 1
      end)
    p.Bm.edge_left;
  (ld, rd)

let test_bmatching_exact_small () =
  (* 2x2 complete bipartite with unit caps: perfect matching *)
  let p =
    problem ~left_cap:[| 1; 1 |] ~right_cap:[| 1; 1 |]
      [| (0, 0); (0, 1); (1, 0); (1, 1) |]
  in
  (match solve_exact p with
  | None -> Alcotest.fail "expected a perfect matching"
  | Some sel ->
      let ld, rd = degrees p sel in
      Alcotest.(check (array int)) "left degrees" [| 1; 1 |] ld;
      Alcotest.(check (array int)) "right degrees" [| 1; 1 |] rd);
  (* infeasible despite equal cap sums: left node 1 needs two edges but
     only one is incident to it *)
  let p_bad =
    problem ~left_cap:[| 1; 2 |] ~right_cap:[| 2; 1 |]
      [| (0, 0); (0, 1); (1, 0) |]
  in
  Alcotest.(check bool) "infeasible" true (solve_exact p_bad = None)

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
      ignore (solve_exact p));
  Alcotest.check_raises "endpoint lengths"
    (Invalid_argument "Bmatching: endpoint arrays of unequal length")
    (fun () ->
      ignore (solve_exact { p with left_cap = [| 1 |]; edge_left = [| 0 |] }));
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Bmatching: edge endpoint out of range") (fun () ->
      ignore
        (solve_exact
           (problem ~left_cap:[| 1 |] ~right_cap:[| 1 |] [| (0, 1) |])));
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Bmatching: negative capacity") (fun () ->
      ignore
        (solve_exact
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

(* The round each edge is selected in by [peel p ~rounds], [-1] if
   none, and whether every round was exact. *)
let rounds_of p ~rounds =
  let round = Array.make (Array.length p.Bm.edge_left) (-1) in
  let exact = Bm.peel p ~rounds (fun r e -> round.(e) <- r) in
  (round, exact)

(* Why one joint flow per round is enough: on the disjoint union of two
   problems, nodes and edges interleaved but each part's order kept,
   every round restricted to a part selects exactly what that part's
   round selects when the part is peeled alone. *)
let component_locality =
  qtest "bmatching: a disjoint union selects what each part selects alone"
    ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let a, ka = peel_problem rng in
      let b, kb = peel_problem rng in
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
      (* both parts have an exact round left in each of these *)
      let rounds = min ka kb in
      let round, exact =
        rounds_of (problem ~left_cap ~right_cap edges) ~rounds
      in
      let round_a, exact_a = rounds_of a ~rounds
      and round_b, exact_b = rounds_of b ~rounds in
      exact && exact_a && exact_b
      && Array.for_all2 (fun i r -> round.(i) = r) ea round_a
      && Array.for_all2 (fun i r -> round.(i) = r) eb round_b)

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
      match solve_exact p with
      | None -> false
      | Some sel ->
          let ld, rd = degrees p sel in
          Array.for_all (fun x -> x = c) ld && Array.for_all (fun x -> x = c) rd)

(* [peel] against its specification: round r is a one-round peel
   ([solve_exact]) on the edges round r-1 left, in reverse order, and
   reports its edges in the order it was given them.  So every round
   is exact on both sides, every edge lands in exactly one round, and
   round 0 is [solve_exact] on the whole problem. *)
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
        degrees p (mask edges) = (p.Bm.left_cap, p.Bm.right_cap)
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
        match solve_exact sub with
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
      && (k = 0 || solve_exact p = Some (mask reported.(0)))
      && reference 0 (Array.init m Fun.id))

(* No exact round: [peel] returns [false] and reports nothing for
   that round. *)
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
          Alcotest.test_case "errors" `Quick test_bmatching_errors;
          component_locality;
          bmatching_regular_feasible;
          peel_matches_spec;
          Alcotest.test_case "peel: no exact round" `Quick test_peel_infeasible;
        ] );
    ]
