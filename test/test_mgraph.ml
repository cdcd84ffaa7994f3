(* Tests for the multigraph substrate: Vec, Multigraph, Traversal,
   Euler, Graph_gen, Graph_io. *)

module Multigraph = Mgraph.Multigraph
module Vec = Mgraph.Vec
open Test_util

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  Alcotest.(check int) "push idx 0" 0 (Vec.push v 10);
  Alcotest.(check int) "push idx 1" 1 (Vec.push v 20);
  Alcotest.(check int) "len" 2 (Vec.length v);
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  Alcotest.(check int) "set" 99 (Vec.get v 0);
  Alcotest.(check int) "peek" 20 (Vec.peek v);
  Alcotest.(check int) "pop" 20 (Vec.pop v);
  Alcotest.(check int) "len after pop" 1 (Vec.length v)

let test_vec_growth () =
  let v = Vec.create ~dummy:(-1) () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "len" 1000 (Vec.length v);
  for i = 0 to 999 do
    Alcotest.(check int) "elem" i (Vec.get v i)
  done

let test_vec_bounds () =
  let v = Vec.make ~dummy:0 3 7 in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop (Vec.create ~dummy:0 ())))

let test_vec_iterators () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v);
  Alcotest.(check int) "fold" 10 (Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v);
  let sum = ref 0 in
  Vec.iteri (fun i x -> sum := !sum + (i * x)) v;
  Alcotest.(check int) "iteri" ((0 * 1) + (1 * 2) + (2 * 3) + (3 * 4)) !sum;
  let c = Vec.copy v in
  Vec.set c 0 42;
  Alcotest.(check int) "copy is independent" 1 (Vec.get v 0)

let vec_roundtrip =
  qtest "vec: of_list/to_list roundtrip"
    QCheck2.Gen.(list int)
    (fun l -> Vec.to_list (Vec.of_list ~dummy:0 l) = l)

(* ------------------------------------------------------------------ *)
(* Multigraph *)

let test_graph_basic () =
  let g = Multigraph.create ~n:3 () in
  let e0 = Multigraph.add_edge g 0 1 in
  let e1 = Multigraph.add_edge g 0 1 in
  let e2 = Multigraph.add_edge g 1 2 in
  Alcotest.(check int) "nodes" 3 (Multigraph.n_nodes g);
  Alcotest.(check int) "edges" 3 (Multigraph.n_edges g);
  Alcotest.(check int) "deg 0" 2 (Multigraph.degree g 0);
  Alcotest.(check int) "deg 1" 3 (Multigraph.degree g 1);
  Alcotest.(check int) "multiplicity" 2 (Multigraph.multiplicity g 0 1);
  Alcotest.(check int) "max mult" 2 (Multigraph.max_multiplicity g);
  Alcotest.(check int) "other" 1 (Multigraph.other_endpoint g e0 0);
  Alcotest.(check int) "other'" 0 (Multigraph.other_endpoint g e1 1);
  Alcotest.(check bool) "not simple" false (Multigraph.is_simple g);
  Alcotest.(check bool) "handshake" true (Multigraph.handshake_ok g);
  Alcotest.(check (pair int int)) "endpoints" (1, 2) (Multigraph.endpoints g e2)

let test_self_loop () =
  let g = Multigraph.create ~n:2 () in
  let e = Multigraph.add_edge g 0 0 in
  Alcotest.(check bool) "is self loop" true (Multigraph.is_self_loop g e);
  Alcotest.(check int) "self loop degree 2" 2 (Multigraph.degree g 0);
  Alcotest.(check int) "listed once" 1 (List.length (Multigraph.incident g 0));
  Alcotest.(check int) "other endpoint" 0 (Multigraph.other_endpoint g e 0);
  Alcotest.(check bool) "handshake with loop" true (Multigraph.handshake_ok g)

let test_add_node () =
  let g = Multigraph.create () in
  let a = Multigraph.add_node g in
  let b = Multigraph.add_node g in
  Alcotest.(check int) "ids" 0 a;
  Alcotest.(check int) "ids" 1 b;
  ignore (Multigraph.add_edge g a b);
  Alcotest.(check int) "deg" 1 (Multigraph.degree g a);
  (* force adjacency growth *)
  for _ = 1 to 100 do
    ignore (Multigraph.add_node g)
  done;
  Alcotest.(check int) "n" 102 (Multigraph.n_nodes g)

let test_sub () =
  let g = Multigraph.create ~n:4 () in
  let _e0 = Multigraph.add_edge g 0 1 in
  let e1 = Multigraph.add_edge g 1 2 in
  let _e2 = Multigraph.add_edge g 2 3 in
  let e3 = Multigraph.add_edge g 3 0 in
  let keep e = e = e1 || e = e3 in
  let h, mapping = Multigraph.sub g keep in
  Alcotest.(check int) "same node count" 4 (Multigraph.n_nodes h);
  Alcotest.(check int) "edge count" 2 (Multigraph.n_edges h);
  Alcotest.(check (array int)) "mapping" [| e1; e3 |] mapping;
  Alcotest.(check (pair int int)) "renumbered endpoints" (1, 2)
    (Multigraph.endpoints h 0)

let test_bad_args () =
  let g = Multigraph.create ~n:2 () in
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Multigraph.add_edge") (fun () ->
      ignore (Multigraph.add_edge g 0 5));
  let e = Multigraph.add_edge g 0 1 in
  Alcotest.check_raises "not an endpoint"
    (Invalid_argument "Multigraph.other_endpoint: not an endpoint") (fun () ->
      ignore (Multigraph.other_endpoint g e 5))

let graph_handshake =
  qtest "multigraph: handshake lemma on random graphs"
    (graph_spec_gen ~max_n:40 ~max_m:200)
    (fun spec -> Multigraph.handshake_ok (graph_of_spec spec))

let graph_degree_sum =
  qtest "multigraph: degree = |incident| + self-loops"
    (graph_spec_gen ~max_n:30 ~max_m:150)
    (fun spec ->
      let g = graph_of_spec spec in
      let ok = ref true in
      for v = 0 to Multigraph.n_nodes g - 1 do
        let loops =
          List.length
            (List.filter (Multigraph.is_self_loop g) (Multigraph.incident g v))
        in
        if
          Multigraph.degree g v
          <> List.length (Multigraph.incident g v) + loops
        then ok := false
      done;
      !ok)

let graph_copy_independent =
  qtest "multigraph: copy is structurally equal and independent"
    (graph_spec_gen ~max_n:20 ~max_m:60)
    (fun spec ->
      let g = graph_of_spec spec in
      let h = Multigraph.copy g in
      ignore (Multigraph.add_edge h 0 1);
      Multigraph.n_edges h = Multigraph.n_edges g + 1)

(* ------------------------------------------------------------------ *)
(* Traversal *)

let test_bfs_path () =
  let g = Mgraph.Graph_gen.path 5 in
  let dist = Mgraph.Traversal.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] dist

let test_bfs_unreachable () =
  let g = Multigraph.create ~n:3 () in
  ignore (Multigraph.add_edge g 0 1);
  let dist = Mgraph.Traversal.bfs g 0 in
  Alcotest.(check int) "unreachable" (-1) dist.(2)

let test_components () =
  let g = Multigraph.create ~n:6 () in
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 1 2);
  ignore (Multigraph.add_edge g 3 4);
  let comp, k = Mgraph.Traversal.components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check bool) "same comp" true (comp.(0) = comp.(2));
  Alcotest.(check bool) "diff comp" true (comp.(0) <> comp.(3));
  Alcotest.(check bool) "isolated" true (comp.(5) <> comp.(0));
  Alcotest.(check bool) "connected?" false (Mgraph.Traversal.is_connected g);
  let members = Mgraph.Traversal.component_members g in
  let sizes = Array.map List.length members in
  Array.sort compare sizes;
  Alcotest.(check (array int)) "member sizes" [| 1; 2; 3 |] sizes

let test_dfs_order () =
  let g = Mgraph.Graph_gen.cycle 4 in
  let order = Mgraph.Traversal.dfs_order g 0 in
  Alcotest.(check int) "visits all" 4 (List.length order);
  Alcotest.(check int) "starts at src" 0 (List.hd order)

let components_partition =
  qtest "traversal: components partition the nodes"
    (graph_spec_gen ~max_n:40 ~max_m:120)
    (fun spec ->
      let g = graph_of_spec spec in
      let comp, k = Mgraph.Traversal.components g in
      Array.for_all (fun c -> c >= 0 && c < k) comp)

(* ------------------------------------------------------------------ *)
(* Euler *)

let circuit_covers g =
  let circuits = Mgraph.Euler.circuits g in
  let seen = Array.make (Multigraph.n_edges g) 0 in
  let ok = ref true in
  List.iter
    (fun circuit ->
      (* consecutive arcs chain, and the circuit closes *)
      (match circuit with
      | [] -> ()
      | first :: _ ->
          let rec chain = function
            | [ last ] -> if last.Mgraph.Euler.dst <> first.Mgraph.Euler.src then ok := false
            | a :: (b :: _ as rest) ->
                if a.Mgraph.Euler.dst <> b.Mgraph.Euler.src then ok := false;
                chain rest
            | [] -> ()
          in
          chain circuit);
      List.iter
        (fun arc -> seen.(arc.Mgraph.Euler.edge) <- seen.(arc.Mgraph.Euler.edge) + 1)
        circuit)
    circuits;
  !ok && Array.for_all (fun c -> c = 1) seen

let test_euler_cycle_graph () =
  let g = Mgraph.Graph_gen.cycle 6 in
  Alcotest.(check bool) "even degrees" true (Mgraph.Euler.all_degrees_even g);
  Alcotest.(check bool) "covers" true (circuit_covers g)

let test_euler_odd_rejected () =
  let g = Mgraph.Graph_gen.path 3 in
  Alcotest.check_raises "odd degree"
    (Invalid_argument "Euler: graph has a node of odd degree") (fun () ->
      ignore (Mgraph.Euler.circuits g))

let test_euler_with_self_loops () =
  let g = Multigraph.create ~n:2 () in
  ignore (Multigraph.add_edge g 0 0);
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 0 1);
  ignore (Multigraph.add_edge g 1 1);
  Alcotest.(check bool) "covers with loops" true (circuit_covers g)

let test_euler_self_loops_only () =
  let g = Multigraph.create ~n:1 () in
  ignore (Multigraph.add_edge g 0 0);
  ignore (Multigraph.add_edge g 0 0);
  Alcotest.(check bool) "covers" true (circuit_covers g);
  let orient = Mgraph.Euler.orientation g in
  Alcotest.(check (array (pair int int))) "both loops oriented"
    [| (0, 0); (0, 0) |] orient

let euler_random =
  qtest "euler: circuits cover evenized random multigraphs"
    (graph_spec_gen ~max_n:30 ~max_m:150)
    (fun spec -> circuit_covers (evenize (graph_of_spec spec)))

let euler_orientation_balanced =
  qtest "euler: orientation splits degree in half"
    (graph_spec_gen ~max_n:30 ~max_m:150)
    (fun spec ->
      let g = evenize (graph_of_spec spec) in
      let orient = Mgraph.Euler.orientation g in
      let n = Multigraph.n_nodes g in
      let outd = Array.make n 0 and ind = Array.make n 0 in
      Array.iter
        (fun (s, d) ->
          if s >= 0 then begin
            outd.(s) <- outd.(s) + 1;
            ind.(d) <- ind.(d) + 1
          end)
        orient;
      let ok = ref true in
      for v = 0 to n - 1 do
        if outd.(v) <> Multigraph.degree g v / 2 then ok := false;
        if ind.(v) <> Multigraph.degree g v / 2 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_gen_shapes () =
  let rng = rng_of_int 5 in
  let g = Mgraph.Graph_gen.gnm rng ~n:10 ~m:25 in
  Alcotest.(check int) "gnm m" 25 (Multigraph.n_edges g);
  Alcotest.(check bool) "gnm no self loops" true
    (Multigraph.fold_edges (fun e acc -> acc && e.Multigraph.u <> e.Multigraph.v) g true);
  let r = Mgraph.Graph_gen.regular rng ~n:8 ~deg:4 in
  Alcotest.(check bool) "regular degrees" true
    (List.for_all (fun v -> Multigraph.degree r v = 4) (List.init 8 Fun.id));
  let b = Mgraph.Graph_gen.bipartite rng ~n1:4 ~n2:6 ~m:30 in
  Alcotest.(check bool) "bipartite sides" true
    (Multigraph.fold_edges
       (fun e acc -> acc && e.Multigraph.u < 4 && e.Multigraph.v >= 4)
       b true);
  let t = Mgraph.Graph_gen.triangle_stack 7 in
  Alcotest.(check int) "triangle edges" 21 (Multigraph.n_edges t);
  Alcotest.(check int) "triangle mult" 7 (Multigraph.multiplicity t 0 1);
  let k = Mgraph.Graph_gen.complete 6 in
  Alcotest.(check int) "complete edges" 15 (Multigraph.n_edges k);
  Alcotest.(check bool) "complete simple" true (Multigraph.is_simple k);
  let s = Mgraph.Graph_gen.star ~leaves:9 in
  Alcotest.(check int) "star hub degree" 9 (Multigraph.degree s 0);
  let p = Mgraph.Graph_gen.power_law rng ~n:20 ~m:100 in
  Alcotest.(check int) "power law m" 100 (Multigraph.n_edges p);
  let c = Mgraph.Graph_gen.clustered rng ~k:3 ~size:5 ~intra:10 ~inter:4 in
  Alcotest.(check int) "clustered n" 15 (Multigraph.n_nodes c);
  Alcotest.(check int) "clustered m" 34 (Multigraph.n_edges c);
  let f = Mgraph.Graph_gen.example_fig1 () in
  Alcotest.(check int) "fig1 nodes" 5 (Multigraph.n_nodes f);
  Alcotest.(check bool) "fig1 has parallel edges" true
    (Multigraph.max_multiplicity f >= 2)

let test_gen_determinism () =
  let g1 = Mgraph.Graph_gen.gnm (rng_of_int 9) ~n:12 ~m:40 in
  let g2 = Mgraph.Graph_gen.gnm (rng_of_int 9) ~n:12 ~m:40 in
  Alcotest.(check string) "same stream, same graph"
    (Mgraph.Graph_io.to_edge_list g1)
    (Mgraph.Graph_io.to_edge_list g2)

let test_gen_errors () =
  let rng = rng_of_int 1 in
  Alcotest.check_raises "regular parity"
    (Invalid_argument "Graph_gen.regular: n * deg must be even") (fun () ->
      ignore (Mgraph.Graph_gen.regular rng ~n:3 ~deg:3));
  Alcotest.check_raises "cycle too small"
    (Invalid_argument "Graph_gen.cycle: need n >= 3") (fun () ->
      ignore (Mgraph.Graph_gen.cycle 2))

(* ------------------------------------------------------------------ *)
(* IO *)

let io_roundtrip =
  qtest "io: edge-list round trip"
    (graph_spec_gen ~max_n:25 ~max_m:100)
    (fun spec ->
      let g = graph_of_spec spec in
      let h = Mgraph.Graph_io.of_edge_list (Mgraph.Graph_io.to_edge_list g) in
      Multigraph.n_nodes h = Multigraph.n_nodes g
      && Multigraph.n_edges h = Multigraph.n_edges g
      && List.for_all
           (fun e ->
             Multigraph.endpoints g e.Multigraph.id
             = Multigraph.endpoints h e.Multigraph.id)
           (Multigraph.edges g))

let test_io_errors () =
  let bad input msg =
    try
      ignore (Mgraph.Graph_io.of_edge_list input);
      Alcotest.failf "expected failure for %s" msg
    with Failure _ -> ()
  in
  bad "" "empty";
  bad "2" "missing m";
  bad "2 1\n0" "dangling";
  bad "2 1\n0 1\n0 1" "extra edges";
  bad "2 2\n0 1" "missing edges";
  bad "2 1\n0 7" "out of range";
  bad "2 1\nx y" "not ints"

let test_io_dot () =
  let g = Mgraph.Graph_gen.triangle_stack 1 in
  let dot = Mgraph.Graph_io.to_dot ~name:"tri" g in
  Alcotest.(check bool) "has header" true
    (String.length dot > 10 && String.sub dot 0 9 = "graph tri")

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_hand () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Mgraph.Stats.mean xs);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Mgraph.Stats.stddev xs);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Mgraph.Stats.minimum xs);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Mgraph.Stats.maximum xs);
  Alcotest.(check (float 1e-9)) "median" 4.0 (Mgraph.Stats.median xs);
  Alcotest.(check (float 1e-9)) "p100" 9.0 (Mgraph.Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "singleton stddev" 0.0
    (Mgraph.Stats.stddev [ 3.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty sample")
    (fun () -> ignore (Mgraph.Stats.mean []))

let stats_summary_consistent =
  qtest "stats: summary fields are ordered and within range"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Mgraph.Stats.summarize xs in
      s.Mgraph.Stats.min <= s.Mgraph.Stats.p50
      && s.Mgraph.Stats.p50 <= s.Mgraph.Stats.p95
      && s.Mgraph.Stats.p95 <= s.Mgraph.Stats.max
      && s.Mgraph.Stats.min <= s.Mgraph.Stats.mean +. 1e-9
      && s.Mgraph.Stats.mean <= s.Mgraph.Stats.max +. 1e-9
      && s.Mgraph.Stats.n = List.length xs)

let () =
  Alcotest.run "mgraph"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          vec_roundtrip;
        ] );
      ( "multigraph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "self loops" `Quick test_self_loop;
          Alcotest.test_case "add_node" `Quick test_add_node;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          graph_handshake;
          graph_degree_sum;
          graph_copy_independent;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "dfs order" `Quick test_dfs_order;
          components_partition;
        ] );
      ( "euler",
        [
          Alcotest.test_case "cycle graph" `Quick test_euler_cycle_graph;
          Alcotest.test_case "odd rejected" `Quick test_euler_odd_rejected;
          Alcotest.test_case "self loops" `Quick test_euler_with_self_loops;
          Alcotest.test_case "only self loops" `Quick
            test_euler_self_loops_only;
          euler_random;
          euler_orientation_balanced;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_gen_shapes;
          Alcotest.test_case "determinism" `Quick test_gen_determinism;
          Alcotest.test_case "errors" `Quick test_gen_errors;
        ] );
      ( "io",
        [
          io_roundtrip;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "dot" `Quick test_io_dot;
        ] );
      ( "stats",
        [
          Alcotest.test_case "hand computed" `Quick test_stats_hand;
          stats_summary_consistent;
        ] );
    ]
