let gnm rng ~n ~m =
  if n <= 0 then invalid_arg "Graph_gen.gnm: need n > 0";
  if n = 1 && m > 0 then
    invalid_arg "Graph_gen.gnm: cannot avoid self-loops with n = 1";
  let g = Multigraph.create ~n () in
  for _ = 1 to m do
    let u = Random.State.int rng n in
    let rec pick () =
      let v = Random.State.int rng n in
      if v = u then pick () else v
    in
    ignore (Multigraph.add_edge g u (pick ()))
  done;
  g

let regular rng ~n ~deg =
  if n <= 0 || deg < 0 then invalid_arg "Graph_gen.regular";
  if n * deg mod 2 <> 0 then
    invalid_arg "Graph_gen.regular: n * deg must be even";
  let stubs = Array.make (n * deg) 0 in
  for v = 0 to n - 1 do
    for j = 0 to deg - 1 do
      stubs.((v * deg) + j) <- v
    done
  done;
  (* Fisher-Yates, then pair consecutive stubs *)
  let len = Array.length stubs in
  for i = len - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = stubs.(i) in
    stubs.(i) <- stubs.(j);
    stubs.(j) <- t
  done;
  let g = Multigraph.create ~n () in
  let i = ref 0 in
  while !i + 1 < len do
    ignore (Multigraph.add_edge g stubs.(!i) stubs.(!i + 1));
    i := !i + 2
  done;
  g

let bipartite rng ~n1 ~n2 ~m =
  if n1 <= 0 || n2 <= 0 then invalid_arg "Graph_gen.bipartite";
  let g = Multigraph.create ~n:(n1 + n2) () in
  for _ = 1 to m do
    let u = Random.State.int rng n1 in
    let v = n1 + Random.State.int rng n2 in
    ignore (Multigraph.add_edge g u v)
  done;
  g

let power_law rng ~n ~m =
  if n < 2 then invalid_arg "Graph_gen.power_law: need n >= 2";
  let g = Multigraph.create ~n () in
  (* endpoint pool: node v appears degree(v)+1 times *)
  let pool = Vec.create ~dummy:(-1) () in
  for v = 0 to n - 1 do
    ignore (Vec.push pool v)
  done;
  for _ = 1 to m do
    let u = Vec.get pool (Random.State.int rng (Vec.length pool)) in
    let rec pick tries =
      let v = Vec.get pool (Random.State.int rng (Vec.length pool)) in
      if v = u && tries < 50 then pick (tries + 1)
      else if v = u then (u + 1) mod n
      else v
    in
    let v = pick 0 in
    ignore (Multigraph.add_edge g u v);
    ignore (Vec.push pool u);
    ignore (Vec.push pool v)
  done;
  g

let clustered rng ~k ~size ~intra ~inter =
  if k <= 0 || size <= 1 then invalid_arg "Graph_gen.clustered";
  let n = k * size in
  let g = Multigraph.create ~n () in
  for c = 0 to k - 1 do
    let base = c * size in
    for _ = 1 to intra do
      let u = base + Random.State.int rng size in
      let rec pick () =
        let v = base + Random.State.int rng size in
        if v = u then pick () else v
      in
      ignore (Multigraph.add_edge g u (pick ()))
    done
  done;
  if k > 1 then
    for _ = 1 to inter do
      let cu = Random.State.int rng k in
      let rec pick_cluster () =
        let cv = Random.State.int rng k in
        if cv = cu then pick_cluster () else cv
      in
      let cv = pick_cluster () in
      let u = (cu * size) + Random.State.int rng size in
      let v = (cv * size) + Random.State.int rng size in
      ignore (Multigraph.add_edge g u v)
    done;
  g

let cycle n =
  if n < 3 then invalid_arg "Graph_gen.cycle: need n >= 3";
  let g = Multigraph.create ~n () in
  for v = 0 to n - 1 do
    ignore (Multigraph.add_edge g v ((v + 1) mod n))
  done;
  g

let path n =
  if n < 1 then invalid_arg "Graph_gen.path";
  let g = Multigraph.create ~n () in
  for v = 0 to n - 2 do
    ignore (Multigraph.add_edge g v (v + 1))
  done;
  g

let complete n =
  if n < 1 then invalid_arg "Graph_gen.complete";
  let g = Multigraph.create ~n () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Multigraph.add_edge g u v)
    done
  done;
  g

let triangle_stack m =
  if m < 1 then invalid_arg "Graph_gen.triangle_stack";
  let g = Multigraph.create ~n:3 () in
  List.iter
    (fun (u, v) ->
      for _ = 1 to m do
        ignore (Multigraph.add_edge g u v)
      done)
    [ (0, 1); (1, 2); (0, 2) ];
  g

let star ~leaves =
  if leaves < 1 then invalid_arg "Graph_gen.star";
  let g = Multigraph.create ~n:(leaves + 1) () in
  for v = 1 to leaves do
    ignore (Multigraph.add_edge g 0 v)
  done;
  g

let example_fig1 () =
  let g = Multigraph.create ~n:5 () in
  (* disks v0..v4; parallel edges model several items moving between the
     same pair of disks *)
  List.iter
    (fun (u, v) -> ignore (Multigraph.add_edge g u v))
    [ (0, 1); (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (3, 4); (4, 1); (0, 3) ];
  g
