(* The flat-core contract suite: CSR/arena kernels vs their pre-CSR
   references.

   - qcheck differential props: the [Multigraph.Slow] oracles
     (original list/Hashtbl code) must agree with the CSR paths on
     instances drawn from every generator family;
   - the incident-order pin: [incident] IS the CSR row, in canonical
     insertion order — kernels index the frozen arrays relying on it;
   - golden replay: every row of data/golden/schedules.tsv (generated
     by the pre-CSR planners) must reproduce byte-identically, RNG
     draw for RNG draw;
   - arena discipline: poisoned handles raise [Stale], steady-state
     checkout of a pooled size class reuses the same physical array. *)

module M = Migration
module Multigraph = Mgraph.Multigraph
module Arena = Mgraph.Arena
open Test_util

(* ------------------------------------------------------------------ *)
(* Slow ≡ CSR differential props, across all generator families *)

(* a (family, seed, size) triple is a complete reproducer, so the
   qcheck shrinker output alone names the failing instance *)
let fam_gen =
  let open QCheck2.Gen in
  let n_fam = List.length Gen.all in
  map
    (fun (fi, seed, size) -> (List.nth Gen.all fi, seed, size))
    (triple (int_range 0 (n_fam - 1)) (int_range 1 999) (int_range 4 12))

let graph_of (fam, seed, size) =
  M.Instance.graph (Gen.instance fam ~seed ~size)

let graph_repr g =
  (Format.asprintf "%a" Multigraph.pp g, Multigraph.edges g)

let prop_incident (spec : Gen.family * int * int) =
  let g = graph_of spec in
  let ok = ref true in
  for v = 0 to Multigraph.n_nodes g - 1 do
    if Multigraph.incident g v <> Multigraph.Slow.incident g v then ok := false
  done;
  !ok

let prop_multiplicity spec =
  let g = graph_of spec in
  let n = Multigraph.n_nodes g in
  let ok = ref true in
  let check u v =
    if Multigraph.multiplicity g u v <> Multigraph.Slow.multiplicity g u v
    then ok := false
  in
  (* every realized pair, plus pairs that are (usually) absent *)
  Multigraph.iter_edges g (fun { Multigraph.u; v; _ } ->
      check u v;
      check v u);
  if n > 1 then begin
    check 0 (n - 1);
    check (n - 1) 0
  end;
  !ok
  && Multigraph.max_multiplicity g = Multigraph.Slow.max_multiplicity g
  && Multigraph.is_simple g = Multigraph.Slow.is_simple g

let prop_sub spec =
  let g = graph_of spec in
  let agree keep =
    let fast, fmap = Multigraph.sub g keep in
    let slow, smap = Multigraph.Slow.sub g keep in
    graph_repr fast = graph_repr slow && fmap = smap
  in
  agree (fun v -> v land 1 = 0)
  && agree (fun v -> v mod 3 <> 0)
  && agree (fun _ -> true)
  && agree (fun _ -> false)

(* incident = the CSR row's edge ids, in canonical insertion order *)
let prop_incident_order spec =
  let g = graph_of spec in
  let csr = Multigraph.freeze g in
  let ok = ref true in
  for v = 0 to Multigraph.n_nodes g - 1 do
    let row = ref [] in
    for s = Multigraph.Csr.row_stop csr v - 1
        downto Multigraph.Csr.row_start csr v do
      row := csr.Multigraph.Csr.edge_ids.(s) :: !row
    done;
    if Multigraph.incident g v <> !row then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* golden replay *)

let golden_path =
  let candidates =
    [
      "data/golden/schedules.tsv";
      "../data/golden/schedules.tsv";
      "../../data/golden/schedules.tsv";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "golden corpus data/golden/schedules.tsv not found"

let test_golden_replay () =
  let text =
    let ic = open_in_bin golden_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rows = M.Golden.parse_rows text in
  Alcotest.(check bool) "corpus non-empty" true (rows <> []);
  List.iter
    (fun (r : M.Golden.row) ->
      let where =
        Printf.sprintf "%s seed=%d size=%d %s" r.family r.seed r.size r.solver
      in
      match Gen.family_of_string r.family with
      | None -> Alcotest.fail (where ^ ": unknown family")
      | Some fam -> (
          let inst = Gen.instance fam ~seed:r.seed ~size:r.size in
          match M.Golden.fingerprint inst ~solver:r.solver ~seed:r.seed with
          | None -> Alcotest.fail (where ^ ": solver now rejects the instance")
          | Some fp ->
              Alcotest.(check int) (where ^ " rounds") r.rounds fp.rounds;
              Alcotest.(check string) (where ^ " digest") r.digest fp.digest))
    rows

(* Dinic's work on even-opt, pinned: one BFS phase per level graph and
   one blocking flow per phase.  Pruning Dinic's search may skip dead
   ends only, so both counts stay; the golden replay checks the
   schedules themselves. *)
let test_flow_counters () =
  let huge = Option.get (Gen.family_of_string "huge") in
  List.iter
    (fun (size, phases, paths) ->
      let inst = Gen.instance huge ~seed:1 ~size in
      M.Instr.reset ();
      ignore (M.Even_optimal.schedule inst);
      let value name = M.Instr.counter_value (M.Instr.counter name) in
      let where = Printf.sprintf "huge seed 1 size %d: " size in
      Alcotest.(check int) (where ^ "flow.bfs_phases") phases
        (value "flow.bfs_phases");
      Alcotest.(check int) (where ^ "flow.augmenting_paths") paths
        (value "flow.augmenting_paths"))
    [ (26, 78, 78); (60, 123, 123) ]

(* ------------------------------------------------------------------ *)
(* arena discipline *)

let test_arena_poisoning () =
  let a = Arena.create () in
  let h = Arena.ints a ~len:8 ~fill:7 in
  let arr = Arena.arr h in
  for i = 0 to 7 do
    Alcotest.(check int) "filled" 7 arr.(i)
  done;
  Alcotest.(check int) "outstanding" 1 (Arena.outstanding a);
  Arena.release a h;
  Alcotest.(check int) "outstanding after release" 0 (Arena.outstanding a);
  Alcotest.check_raises "arr after release" Arena.Stale (fun () ->
      ignore (Arena.arr h));
  Alcotest.check_raises "double release" Arena.Stale (fun () ->
      Arena.release a h)

let test_arena_reuse () =
  let a = Arena.create () in
  let h1 = Arena.ints a ~len:8 ~fill:0 in
  let a1 = Arena.arr h1 in
  Arena.release a h1;
  (* same size class -> the pooled array comes back: steady state
     allocates nothing, which is what the bench gate's bytes-per-edge
     budget rests on *)
  let h2 = Arena.ints a ~len:6 ~fill:1 in
  let a2 = Arena.arr h2 in
  Alcotest.(check bool) "pooled array reused" true (a1 == a2);
  for i = 0 to 5 do
    Alcotest.(check int) "refilled" 1 a2.(i)
  done;
  Arena.release a h2

let test_arena_local_per_domain () =
  let here = Arena.local () in
  Alcotest.(check bool) "stable within a domain" true (here == Arena.local ());
  let there = Domain.join (Domain.spawn (fun () -> Arena.local ())) in
  Alcotest.(check bool) "distinct across domains" false (here == there)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "flatcore"
    [
      ( "slow-vs-csr",
        [
          qtest ~count:60 "incident" fam_gen prop_incident;
          qtest ~count:60 "multiplicity family" fam_gen prop_multiplicity;
          qtest ~count:40 "sub" fam_gen prop_sub;
          qtest ~count:60 "incident order = CSR row" fam_gen
            prop_incident_order;
        ] );
      ( "golden",
        [
          Alcotest.test_case "replay corpus" `Quick test_golden_replay;
          Alcotest.test_case "even-opt flow counters" `Quick
            test_flow_counters;
        ] );
      ( "arena",
        [
          Alcotest.test_case "poisoning" `Quick test_arena_poisoning;
          Alcotest.test_case "pooled reuse" `Quick test_arena_reuse;
          Alcotest.test_case "per-domain local" `Quick
            test_arena_local_per_domain;
        ] );
    ]
