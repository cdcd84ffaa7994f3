(* Tests for the edge-coloring substrate: Edge_coloring state,
   Recolor (capacitated Kempe walks), Greedy, Vizing, Shannon. *)

module Multigraph = Mgraph.Multigraph
module Ec = Coloring.Edge_coloring
open Test_util

(* gnm graphs deduplicated into simple graphs, for Vizing *)
let simple_of_spec spec =
  let g = graph_of_spec spec in
  let seen = Hashtbl.create 16 in
  let h = Multigraph.create ~n:(Multigraph.n_nodes g) () in
  Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
      let key = if u <= v then (u, v) else (v, u) in
      if u <> v && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        ignore (Multigraph.add_edge h u v)
      end);
  h

(* ------------------------------------------------------------------ *)
(* Edge_coloring state *)

let small_graph () =
  let g = Multigraph.create ~n:3 () in
  let e0 = Multigraph.add_edge g 0 1 in
  let e1 = Multigraph.add_edge g 0 1 in
  let e2 = Multigraph.add_edge g 1 2 in
  (g, e0, e1, e2)

let test_state_basic () =
  let g, e0, e1, e2 = small_graph () in
  let t = Ec.create g ~cap:(fun v -> if v = 1 then 2 else 1) ~colors:2 in
  Alcotest.(check int) "palette" 2 (Ec.n_colors t);
  Alcotest.(check int) "uncolored" 3 (Ec.n_uncolored t);
  Ec.assign t e0 0;
  Alcotest.(check (option int)) "color_of" (Some 0) (Ec.color_of t e0);
  Alcotest.(check int) "count" 1 (Ec.count t 0 0);
  Alcotest.(check bool) "0 saturated in color 0" false (Ec.missing t 0 0);
  Alcotest.(check bool) "1 still missing color 0" true (Ec.missing t 1 0);
  (* node 1 has cap 2: e2 can share color 0 *)
  Ec.assign t e2 0;
  Alcotest.(check bool) "1 now saturated" false (Ec.missing t 1 0);
  Alcotest.(check (option int)) "common for e1" (Some 1) (Ec.common_missing t e1);
  Ec.assign t e1 1;
  Alcotest.(check bool) "complete" true (Ec.is_complete t);
  check_valid_coloring t "state basic";
  Ec.unassign t e1;
  Alcotest.(check int) "uncolored again" 1 (Ec.n_uncolored t);
  Alcotest.(check (option int)) "uncolored edge" None (Ec.color_of t e1)

let test_state_guards () =
  let g, e0, e1, _ = small_graph () in
  let t = Ec.create g ~cap:(fun _ -> 1) ~colors:1 in
  Ec.assign t e0 0;
  Alcotest.check_raises "overflow"
    (Invalid_argument "Edge_coloring.assign: capacity overflow at first endpoint")
    (fun () -> Ec.assign t e1 0);
  Alcotest.check_raises "double assign"
    (Invalid_argument "Edge_coloring.assign: edge already colored") (fun () ->
      Ec.assign t e0 0);
  Alcotest.check_raises "bad color"
    (Invalid_argument "Edge_coloring: color not in palette") (fun () ->
      Ec.assign t e1 5);
  Alcotest.check_raises "unassign uncolored"
    (Invalid_argument "Edge_coloring.unassign: edge not colored") (fun () ->
      Ec.unassign t e1)

let test_state_self_loop_rejected () =
  let g = Multigraph.create ~n:1 () in
  ignore (Multigraph.add_edge g 0 0);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Edge_coloring.create: graph has a self-loop") (fun () ->
      ignore (Ec.create g ~cap:(fun _ -> 1) ~colors:1))

let test_state_missing_levels () =
  let g = Multigraph.create ~n:2 () in
  let e0 = Multigraph.add_edge g 0 1 in
  let e1 = Multigraph.add_edge g 0 1 in
  let t = Ec.create g ~cap:(fun _ -> 3) ~colors:1 in
  Alcotest.(check bool) "strongly missing at 0 uses" true
    (Ec.strongly_missing t 0 0);
  Ec.assign t e0 0;
  Alcotest.(check bool) "still strongly missing" true
    (Ec.strongly_missing t 0 0);
  Ec.assign t e1 0;
  Alcotest.(check bool) "lightly missing" true (Ec.lightly_missing t 0 0);
  Alcotest.(check bool) "not strongly" false (Ec.strongly_missing t 0 0);
  Alcotest.(check (list int)) "missing colors" [ 0 ] (Ec.missing_colors t 0)

let test_state_add_color_and_classes () =
  let g, e0, e1, e2 = small_graph () in
  let t = Ec.create g ~cap:(fun _ -> 1) ~colors:1 in
  Ec.assign t e0 0;
  let c1 = Ec.add_color t in
  Alcotest.(check int) "new color id" 1 c1;
  Ec.assign t e1 c1;
  (* node 1 is now saturated in both colors; e2 = (1,2) needs a third *)
  let c2 = Ec.add_color t in
  Ec.assign t e2 c2;
  check_valid_coloring t "after palette growth";
  Ec.unassign t e2;
  Alcotest.check_raises "caps enforced across palette growth"
    (Invalid_argument "Edge_coloring.assign: capacity overflow at first endpoint")
    (fun () -> Ec.assign t e2 c1);
  let t2 = Ec.create g ~cap:(fun _ -> 2) ~colors:1 in
  Ec.assign t2 e0 0;
  Ec.assign t2 e2 0;
  let classes = Ec.classes t2 in
  Alcotest.(check (list int)) "class 0" [ e0; e2 ] (List.sort compare classes.(0));
  Alcotest.(check (list int)) "incident with color" [ e0 ]
    (Ec.incident_with_color t2 0 0)

let test_copy_restore () =
  let g, e0, e1, e2 = small_graph () in
  let t = Ec.create g ~cap:(fun _ -> 2) ~colors:2 in
  Ec.assign t e0 0;
  let snapshot = Ec.copy t in
  Ec.assign t e1 1;
  Ec.assign t e2 0;
  Ec.unassign t e0;
  Ec.restore ~snapshot t;
  Alcotest.(check (option int)) "e0 restored" (Some 0) (Ec.color_of t e0);
  Alcotest.(check (option int)) "e1 restored" None (Ec.color_of t e1);
  Alcotest.(check int) "uncolored restored" 2 (Ec.n_uncolored t);
  check_valid_coloring t "restore"

(* ------------------------------------------------------------------ *)
(* Greedy *)

let greedy_valid =
  qtest "greedy: always complete and valid"
    (instance_spec_gen ~max_n:25 ~max_m:150 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      let t =
        Coloring.Greedy_coloring.color
          (Migration.Instance.graph inst)
          ~cap:(Migration.Instance.cap inst)
      in
      Ec.is_complete t && Ec.validate t = Ok ())

let greedy_palette_bound =
  qtest "greedy: palette < 2 * max ceil(d/c)"
    (instance_spec_gen ~max_n:25 ~max_m:150 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      let g = Migration.Instance.graph inst in
      if Multigraph.n_edges g = 0 then true
      else begin
        let t =
          Coloring.Greedy_coloring.color g ~cap:(Migration.Instance.cap inst)
        in
        (* first-fit never opens a color unless all lower ones are
           saturated at an endpoint: classic 2Δ̄-1 bound *)
        Ec.n_colors t <= (2 * Migration.Lower_bounds.lb1 inst) - 1
      end)

(* ------------------------------------------------------------------ *)
(* Recolor *)

let test_try_free_trivial () =
  let g = Multigraph.create ~n:4 () in
  let e0 = Multigraph.add_edge g 0 1 in
  let e1 = Multigraph.add_edge g 1 2 in
  let _ = e1 in
  let t = Ec.create g ~cap:(fun _ -> 1) ~colors:2 in
  Ec.assign t e0 0;
  (* 0 is saturated in color 0, missing color 1; free color 0 at node 0 *)
  Alcotest.(check bool) "frees by flipping e0" true
    (Coloring.Recolor.try_free t ~v:0 ~a:0 ~b:1 ());
  Alcotest.(check (option int)) "e0 flipped" (Some 1) (Ec.color_of t e0);
  check_valid_coloring t "try_free trivial";
  (* already missing at an untouched node: no-op true *)
  Alcotest.(check bool) "already missing" true
    (Coloring.Recolor.try_free t ~v:2 ~a:0 ~b:1 ())

let test_try_free_chain () =
  (* path 0-1-2-3 colored alternately; freeing color a at one end must
     flip the whole chain *)
  let g = Mgraph.Graph_gen.path 4 in
  let t = Ec.create g ~cap:(fun _ -> 1) ~colors:2 in
  Ec.assign t 0 0;
  Ec.assign t 1 1;
  Ec.assign t 2 0;
  Alcotest.(check bool) "free 0 at node 0" true
    (Coloring.Recolor.try_free t ~v:0 ~a:0 ~b:1 ());
  check_valid_coloring t "chain";
  Alcotest.(check bool) "color 0 now missing at 0" true (Ec.missing t 0 0)

let test_try_free_guards () =
  let g = Mgraph.Graph_gen.path 2 in
  let t = Ec.create g ~cap:(fun _ -> 1) ~colors:2 in
  Alcotest.check_raises "a = b" (Invalid_argument "Recolor.try_free: a = b")
    (fun () -> ignore (Coloring.Recolor.try_free t ~v:0 ~a:0 ~b:0 ()));
  Ec.assign t 0 1;
  Alcotest.check_raises "b not missing"
    (Invalid_argument "Recolor.try_free: b must be missing at v") (fun () ->
      ignore (Coloring.Recolor.try_free t ~v:0 ~a:0 ~b:1 ()))

let recolor_preserves_validity =
  qtest "recolor: try_color_edge leaves a valid state either way"
    ~count:200
    (instance_spec_gen ~max_n:12 ~max_m:60 ())
    (fun spec ->
      let inst = instance_of_spec spec in
      let g = Migration.Instance.graph inst in
      if Multigraph.n_edges g = 0 then true
      else begin
        (* tight palette: exactly lb1 colors *)
        let q = max 1 (Migration.Lower_bounds.lb1 inst) in
        let t = Ec.create g ~cap:(Migration.Instance.cap inst) ~colors:q in
        let rng = rng_of_int spec.gspec.seed in
        Multigraph.iter_edges g (fun { Multigraph.id; _ } ->
            ignore (Coloring.Recolor.try_color_edge t ~rng id));
        Ec.validate t = Ok ()
      end)

(* ------------------------------------------------------------------ *)
(* Vizing *)

let test_vizing_petersen () =
  (* Petersen graph is class 2: needs exactly Δ+1 = 4 colors *)
  let g = Multigraph.create ~n:10 () in
  let outer = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let spokes = [ (0, 5); (1, 6); (2, 7); (3, 8); (4, 9) ] in
  let inner = [ (5, 7); (7, 9); (9, 6); (6, 8); (8, 5) ] in
  List.iter
    (fun (u, v) -> ignore (Multigraph.add_edge g u v))
    (outer @ spokes @ inner);
  let t = Coloring.Vizing.color g in
  Alcotest.(check bool) "complete" true (Ec.is_complete t);
  check_valid_coloring t "petersen";
  Alcotest.(check int) "palette 4" 4 (Ec.n_colors t);
  Alcotest.(check int) "no fallbacks" 0 (Coloring.Vizing.last_fallbacks ())

let test_vizing_rejects_multigraph () =
  let g = Mgraph.Graph_gen.triangle_stack 2 in
  Alcotest.check_raises "not simple"
    (Invalid_argument "Vizing.color: graph must be simple") (fun () ->
      ignore (Coloring.Vizing.color g))

let vizing_bound =
  qtest "vizing: valid, complete, palette <= Δ+1, no fallbacks" ~count:150
    (graph_spec_gen ~max_n:20 ~max_m:120)
    (fun spec ->
      let g = simple_of_spec spec in
      let t = Coloring.Vizing.color g in
      Ec.is_complete t
      && Ec.validate t = Ok ()
      && Ec.n_colors t <= Multigraph.max_degree g + 1
      && Coloring.Vizing.last_fallbacks () = 0)

(* ------------------------------------------------------------------ *)
(* Shannon *)

let shannon_bound =
  qtest "shannon: valid, complete, palette <= floor(3Δ/2)" ~count:120
    (graph_spec_gen ~max_n:16 ~max_m:120)
    (fun spec ->
      let g = graph_of_spec spec in
      if Multigraph.n_edges g = 0 then true
      else begin
        let rng = rng_of_int spec.seed in
        let t = Coloring.Shannon.color ~rng g in
        Ec.is_complete t
        && Ec.validate t = Ok ()
        && Ec.n_colors t <= max 1 (Coloring.Shannon.bound g)
      end)

let test_shannon_triangle_tight () =
  (* triangle with multiplicity M needs exactly 3M colors: Shannon's
     bound is tight here (Δ = 2M, 3Δ/2 = 3M) *)
  let m = 4 in
  let g = Mgraph.Graph_gen.triangle_stack m in
  let t = Coloring.Shannon.color ~rng:(rng_of_int 3) g in
  check_valid_coloring t "triangle";
  Alcotest.(check int) "exactly 3M colors" (3 * m) (Ec.n_colors t)

let test_greedy_order_override () =
  let g = Mgraph.Graph_gen.path 3 in
  (* reversed order still yields a complete valid coloring *)
  let t = Coloring.Greedy_coloring.color ~order:[ 1; 0 ] g ~cap:(fun _ -> 1) in
  Alcotest.(check bool) "complete" true (Ec.is_complete t);
  check_valid_coloring t "order override"

let () =
  Alcotest.run "coloring"
    [
      ( "state",
        [
          Alcotest.test_case "basic" `Quick test_state_basic;
          Alcotest.test_case "guards" `Quick test_state_guards;
          Alcotest.test_case "self loop" `Quick test_state_self_loop_rejected;
          Alcotest.test_case "missing levels" `Quick test_state_missing_levels;
          Alcotest.test_case "add color / classes" `Quick
            test_state_add_color_and_classes;
          Alcotest.test_case "copy & restore" `Quick test_copy_restore;
        ] );
      ("greedy", [ greedy_valid; greedy_palette_bound ]);
      ( "recolor",
        [
          Alcotest.test_case "try_free trivial" `Quick test_try_free_trivial;
          Alcotest.test_case "try_free chain" `Quick test_try_free_chain;
          Alcotest.test_case "guards" `Quick test_try_free_guards;
          recolor_preserves_validity;
        ] );
      ( "vizing",
        [
          Alcotest.test_case "petersen (class 2)" `Quick test_vizing_petersen;
          Alcotest.test_case "rejects multigraphs" `Quick
            test_vizing_rejects_multigraph;
          vizing_bound;
        ] );
      ( "shannon",
        [
          shannon_bound;
          Alcotest.test_case "triangle tight" `Quick test_shannon_triangle_tight;
        ] );
      ( "greedy_order",
        [ Alcotest.test_case "order override" `Quick test_greedy_order_override ] );
    ]
