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
    (fun () -> Fn.push net a 3);
  Alcotest.check_raises "bulk length mismatch"
    (Invalid_argument "Flow_network.of_arcs: length mismatch") (fun () ->
      ignore (Fn.of_arcs ~n:2 ~src:[| 0 |] ~dst:[| 1 |] ~cap:[||]));
  Alcotest.check_raises "bulk negative cap"
    (Invalid_argument "Flow_network.of_arcs: negative capacity") (fun () ->
      ignore (Fn.of_arcs ~n:2 ~src:[| 0 |] ~dst:[| 1 |] ~cap:[| -1 |]));
  Alcotest.check_raises "bulk bad node"
    (Invalid_argument "Flow_network: bad node") (fun () ->
      ignore (Fn.of_arcs ~n:2 ~src:[| 0 |] ~dst:[| 2 |] ~cap:[| 1 |]))

(* The bulk constructor is add_arc in a loop, only faster: same arc
   ids, same rows (each in increasing arc-id order, i.e. insertion
   order), and so the same flow arc by arc. *)
let of_arcs_equals_add_arc =
  qtest "network: of_arcs builds what add_arc builds" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = rng_of_int seed in
      let n = 2 + Random.State.int rng 8 and k = Random.State.int rng 30 in
      let node _ = Random.State.int rng n in
      let src = Array.init k node and dst = Array.init k node in
      let cap = Array.init k (fun _ -> Random.State.int rng 5) in
      let bulk = Fn.of_arcs ~n ~src ~dst ~cap and looped = Fn.create ~n in
      Array.iteri
        (fun i s ->
          ignore (Fn.add_arc looped ~src:s ~dst:dst.(i) ~cap:cap.(i)))
        src;
      let view net =
        ( List.init n (Fn.out_arcs net),
          List.init (Fn.n_arcs net) (fun a ->
              (Fn.src net a, Fn.dst net a, Fn.residual net a)) )
      in
      let flows net = List.init k (fun i -> Fn.flow net (2 * i)) in
      let increasing row =
        Array.for_all Fun.id
          (Array.mapi (fun j a -> j = 0 || row.(j - 1) < a) row)
      in
      List.for_all increasing (fst (view bulk))
      && view bulk = view looped
      && Mf.max_flow bulk ~s:0 ~t:(n - 1) = Mf.max_flow looped ~s:0 ~t:(n - 1)
      && flows bulk = flows looped)

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

(* ------------------------------------------------------------------ *)
(* Bmatching *)

let test_bmatching_exact_small () =
  (* 2x2 complete bipartite with unit caps: perfect matching *)
  let p =
    {
      Bm.n_left = 2;
      n_right = 2;
      left_cap = [| 1; 1 |];
      right_cap = [| 1; 1 |];
      edges = [| (0, 0); (0, 1); (1, 0); (1, 1) |];
    }
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
    {
      Bm.n_left = 2;
      n_right = 2;
      left_cap = [| 1; 2 |];
      right_cap = [| 2; 1 |];
      edges = [| (0, 0); (0, 1); (1, 0) |];
    }
  in
  Alcotest.(check bool) "infeasible" true (Bm.solve_exact p_bad = None)

let test_bmatching_max () =
  let p =
    {
      Bm.n_left = 3;
      n_right = 2;
      left_cap = [| 1; 1; 1 |];
      right_cap = [| 1; 1 |];
      edges = [| (0, 0); (1, 0); (2, 1) |];
    }
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
      edges = [||];
    }
  in
  Alcotest.check_raises "cap length"
    (Invalid_argument "Bmatching: capacity vector length mismatch") (fun () ->
      ignore (Bm.solve_max p))

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
  {
    Bm.n_left;
    n_right;
    left_cap = caps n_left;
    right_cap = caps n_right;
    edges =
      Array.init (Random.State.int rng 16) (fun _ ->
          (Random.State.int rng n_left, Random.State.int rng n_right));
  }

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
        interleave rng (Array.length a.Bm.edges) (Array.length b.Bm.edges)
      in
      let union =
        {
          Bm.n_left = a.n_left + b.n_left;
          n_right = a.n_right + b.n_right;
          left_cap = Array.make (a.n_left + b.n_left) 0;
          right_cap = Array.make (a.n_right + b.n_right) 0;
          edges = Array.make (Array.length ea + Array.length eb) (0, 0);
        }
      in
      let place p lmap rmap emap =
        Array.iteri (fun l c -> union.left_cap.(lmap.(l)) <- c) p.Bm.left_cap;
        Array.iteri (fun r c -> union.right_cap.(rmap.(r)) <- c) p.Bm.right_cap;
        Array.iteri
          (fun i (l, r) -> union.edges.(emap.(i)) <- (lmap.(l), rmap.(r)))
          p.Bm.edges
      in
      place a la ra ea;
      place b lb rb eb;
      let sel, value = Bm.solve_max union in
      let sel_a, value_a = Bm.solve_max a and sel_b, value_b = Bm.solve_max b in
      value = value_a + value_b
      && Array.for_all2 (fun i s -> sel.(i) = s) ea sel_a
      && Array.for_all2 (fun i s -> sel.(i) = s) eb sel_b)

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
        {
          Bm.n_left = n;
          n_right = n;
          left_cap = Array.make n c;
          right_cap = Array.make n c;
          edges = Array.of_list !edges;
        }
      in
      match Bm.solve_exact p with
      | None -> false
      | Some sel ->
          let ld, rd = Bm.degrees p sel in
          Array.for_all (fun x -> x = c) ld && Array.for_all (fun x -> x = c) rd)

let () =
  Alcotest.run "netflow"
    [
      ( "network",
        [
          Alcotest.test_case "basic" `Quick test_network_basic;
          Alcotest.test_case "errors" `Quick test_network_errors;
          of_arcs_equals_add_arc;
        ] );
      ( "max_flow",
        [
          Alcotest.test_case "clrs example" `Quick test_clrs;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs;
          Alcotest.test_case "s = t rejected" `Quick test_s_eq_t;
          flow_cut_duality;
        ] );
      ( "bmatching",
        [
          Alcotest.test_case "exact small" `Quick test_bmatching_exact_small;
          Alcotest.test_case "max" `Quick test_bmatching_max;
          Alcotest.test_case "errors" `Quick test_bmatching_errors;
          component_locality;
          bmatching_regular_feasible;
        ] );
    ]
