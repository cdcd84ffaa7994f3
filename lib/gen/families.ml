module Multigraph = Mgraph.Multigraph
module Graph_gen = Mgraph.Graph_gen
module Instance = Migration.Instance

type family = {
  name : string;
  doc : string;
  build : Random.State.t -> size:int -> Instance.t;
}

let mixed_menu = [ 1; 2; 3; 4; 5 ]

let uniform rng ~size =
  let n = max 4 size in
  let m = 3 * n in
  Instance.random_caps rng (Graph_gen.gnm rng ~n ~m) ~choices:mixed_menu

let powerlaw rng ~size =
  let n = max 4 size in
  let m = 3 * n in
  Instance.random_caps rng (Graph_gen.power_law rng ~n ~m) ~choices:mixed_menu

let even rng ~size =
  let n = max 4 size in
  let m = 3 * n in
  Instance.random_caps rng (Graph_gen.gnm rng ~n ~m) ~choices:[ 2; 4; 6 ]

let unit rng ~size =
  let n = max 4 size in
  (* sparser than the mixed families: with c_v = 1 every extra edge is
     a whole extra round on its endpoints *)
  let m = 2 * n in
  Instance.uniform (Graph_gen.gnm rng ~n ~m) ~cap:1

let parallel rng ~size =
  let k = 3 + Random.State.int rng 3 in
  let g = Multigraph.create ~n:k () in
  let target = max 6 (2 * size) in
  let added = ref 0 in
  while !added < target do
    let u = Random.State.int rng k in
    let v = Random.State.int rng k in
    if u <> v then begin
      (* a burst of parallel copies of the same pair *)
      let burst = min (target - !added) (1 + Random.State.int rng 6) in
      for _ = 1 to burst do
        ignore (Multigraph.add_edge g u v)
      done;
      added := !added + burst
    end
  done;
  Instance.random_caps rng g ~choices:[ 1; 2; 3 ]

(* Odd clique of unit-capacity disks with every pair stacked [q] deep:
   LB1 = 2kq but Gamma = (2k+1)q (cap sum 2k+1 gives only k edge slots
   per round), so the subset bound strictly binds.  High-capacity
   leaves hang off the clique to keep the witness a proper subset. *)
let bottleneck rng ~size =
  let k = 1 + Random.State.int rng 2 in
  let core = (2 * k) + 1 in
  let q = max 1 (size / core) in
  let leaves = 1 + Random.State.int rng (max 1 (size / 4)) in
  let g = Multigraph.create ~n:(core + leaves) () in
  for u = 0 to core - 1 do
    for v = u + 1 to core - 1 do
      for _ = 1 to q do
        ignore (Multigraph.add_edge g u v)
      done
    done
  done;
  for l = 0 to leaves - 1 do
    (* spread leaves over the clique so no core disk's LB1 term
       catches up with the subset bound *)
    ignore (Multigraph.add_edge g (l mod core) (core + l))
  done;
  let caps =
    Array.init (core + leaves) (fun v ->
        if v < core then 1 else 4 + (2 * Random.State.int rng 3))
  in
  Instance.create g ~caps

let multipool rng ~size =
  let pool = max 4 (size / 2) in
  let specs =
    [
      ((fun rng -> Graph_gen.gnm rng ~n:pool ~m:(2 * pool)), [ 2; 4 ]);
      ((fun rng -> Graph_gen.gnm rng ~n:pool ~m:(2 * pool)), [ 1 ]);
      ((fun rng -> Graph_gen.power_law rng ~n:pool ~m:(2 * pool)), mixed_menu);
    ]
  in
  let parts =
    List.map
      (fun (build, menu) -> Instance.random_caps rng (build rng) ~choices:menu)
      specs
  in
  let n = List.fold_left (fun acc p -> acc + Instance.n_disks p) 0 parts in
  let g = Multigraph.create ~n () in
  let caps = Array.make n 1 in
  let off = ref 0 in
  List.iter
    (fun p ->
      let base = !off in
      Multigraph.iter_edges (Instance.graph p) (fun { Multigraph.u; v; _ } ->
          ignore (Multigraph.add_edge g (base + u) (base + v)));
      Array.iteri (fun v c -> caps.(base + v) <- c) (Instance.caps p);
      off := base + Instance.n_disks p)
    parts;
  Instance.create g ~caps

(* Perf-scale family: [size] is interpreted quadratically so that the
   fuzz-range sizes stay cheap (size 10 -> 800 edges) while bench
   sizes reach the flat-core targets (size 112 -> ~1e5 edges,
   size 354 -> ~1e6; experiment E27).  All-even capacities keep every
   solver, even-opt included, applicable. *)
let huge rng ~size =
  let n = max 16 (size * size) in
  let m = 8 * n in
  Instance.random_caps rng (Graph_gen.gnm rng ~n ~m) ~choices:[ 2; 4 ]

(* SLA regime: a mixed G(n,m) whose edges carry tenant/group tags.
   Ownership is skewed (a min-of-two draw: a few big tenants own most
   items) and priority weights are drawn 1..8, so weighted-completion
   planners and the certifier's inversion check both get exercised. *)
let tenants rng ~size =
  let n = max 4 size in
  let m = 3 * n in
  let g = Graph_gen.gnm rng ~n ~m in
  let k = 2 + Random.State.int rng 6 in
  let weights = Array.init k (fun _ -> 1 + Random.State.int rng 8) in
  let groups =
    Array.init (Multigraph.n_edges g) (fun _ ->
        let a = Random.State.int rng k and b = Random.State.int rng k in
        min a b)
  in
  let menu = Array.of_list mixed_menu in
  let caps =
    Array.init n (fun _ -> menu.(Random.State.int rng (Array.length menu)))
  in
  Instance.create g ~caps ~groups ~weights

let all =
  [
    { name = "uniform"; doc = "G(n,m) multigraph, mixed constraints"; build = uniform };
    { name = "powerlaw"; doc = "preferential-attachment hot spots"; build = powerlaw };
    { name = "even"; doc = "all-even constraints (Theorem 4.1 regime)"; build = even };
    { name = "unit"; doc = "c_v = 1 everywhere (chromatic index)"; build = unit };
    { name = "parallel"; doc = "few disks, deep parallel-edge stacks"; build = parallel };
    { name = "bottleneck"; doc = "unit-cap odd clique: Gamma > LB1"; build = bottleneck };
    { name = "multipool"; doc = "disjoint pools, clashing cap styles"; build = multipool };
    { name = "huge"; doc = "perf-scale all-even G(n,m): ~8*size^2 edges"; build = huge };
    { name = "tenants"; doc = "tenant-tagged G(n,m): skewed groups, SLA weights"; build = tenants };
  ]

let names = List.map (fun f -> f.name) all
let family_of_string s = List.find_opt (fun f -> f.name = s) all

let instance fam ~seed ~size =
  let rng = Random.State.make [| 0x6e57; Hashtbl.hash fam.name; seed |] in
  fam.build rng ~size
